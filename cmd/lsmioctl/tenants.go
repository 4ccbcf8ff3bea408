package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lsmio"
	"lsmio/internal/svc"
)

// tenantsCmd implements `lsmioctl tenants [-json] [-health]` for a
// service directory (one holding a SERVICE.json written by lsmiod): the
// tenant quota table and shard layout, without opening the shard
// stores. -health adds the supervisor's per-shard view (state, restart
// counts, breaker status) recorded when the manifest was last written.
func tenantsCmd(fs lsmio.FS, args []string) {
	fset := flag.NewFlagSet("tenants", flag.ExitOnError)
	asJSON := fset.Bool("json", false, "emit the manifest as JSON")
	health := fset.Bool("health", false, "show per-shard supervisor state, restarts, and breaker status")
	fset.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: lsmioctl -dir <service> tenants [-json] [-health]")
		fset.PrintDefaults()
		os.Exit(2)
	}
	fset.Parse(args)

	m, err := svc.ReadManifest(fs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmioctl: not a service directory:", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m); err != nil {
			fmt.Fprintln(os.Stderr, "lsmioctl:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("service: %d shard(s), %d tenant(s)\n", m.Shards, len(m.Tenants))
	fmt.Printf("%-24s %8s %14s\n", "TENANT", "WEIGHT", "BYTES/S")
	for _, t := range m.Tenants {
		fmt.Printf("%-24s %8.2f %14s\n", t.Name, t.Weight, rateOrDash(t.BytesPerSec))
	}
	if *health {
		if len(m.ShardStatus) == 0 {
			fmt.Println("\nno shard health recorded (manifest predates the supervisor, or it was disabled)")
			return
		}
		fmt.Printf("\n%-6s %-11s %9s %-10s %11s\n", "SHARD", "STATE", "RESTARTS", "BREAKER", "CONSEC-ERRS")
		for _, sh := range m.ShardStatus {
			breaker := sh.Breaker
			if breaker == "" {
				breaker = "-"
			}
			fmt.Printf("%-6d %-11s %9d %-10s %11d\n", sh.Shard, sh.State, sh.Restarts, breaker, sh.ConsecErrs)
		}
	}
}

func rateOrDash(r float64) string {
	if r <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", r)
}
