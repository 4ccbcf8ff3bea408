package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"lsmio"
	"lsmio/internal/svc"
	"lsmio/internal/vfs"
)

// statsCmd implements `lsmioctl stats [-json]`: one aligned text table
// over every instrument in the registry of a manager that lsmioctl opens
// on the store; -json emits the same snapshot as a nested object
// (histograms as count/mean/quantile summaries). The session is
// lsmioctl's own, so the counters describe opening the store (recovery,
// the engine's on-disk state), not another process's activity.
func statsCmd(fsys lsmio.FS, args []string) {
	fset := flag.NewFlagSet("stats", flag.ExitOnError)
	asJSON := fset.Bool("json", false, "emit the snapshot as JSON")
	fset.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: lsmioctl -dir <store> stats [-json]")
		fset.PrintDefaults()
		os.Exit(2)
	}
	fset.Parse(args)

	// A directory holding a SERVICE.json is a multi-tenant service
	// layout (written by lsmiod): aggregate across its shard stores
	// instead of opening a single one.
	if m, err := svc.ReadManifest(fsys); err == nil {
		serviceStats(fsys, m, *asJSON)
		return
	} else if !errors.Is(err, vfs.ErrNotExist) {
		fmt.Fprintln(os.Stderr, "lsmioctl:", err)
		os.Exit(1)
	}

	mgr, err := lsmio.NewManager("store", lsmio.ManagerOptions{
		Store: lsmio.StoreOptions{FS: fsys},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmioctl:", err)
		os.Exit(1)
	}
	defer func() {
		if err := mgr.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "lsmioctl:", err)
			os.Exit(1)
		}
	}()

	snap := mgr.Obs().Snapshot()
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap.Tree()); err != nil {
			fmt.Fprintln(os.Stderr, "lsmioctl:", err)
			os.Exit(1)
		}
		return
	}
	if err := snap.WriteTable(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lsmioctl:", err)
		os.Exit(1)
	}
	writeIOSchedSection(os.Stdout, snap)
}

// serviceStats opens every shard store named by the manifest, merges
// the snapshots of those fresh sessions (counters add, histograms merge
// bucket-wise) and prints one aggregate view beside the manifest's
// layout and tenant table. No service-level (`svc.`) instrument is
// persisted, so none of the live service's counters appear.
func serviceStats(fsys lsmio.FS, m svc.Manifest, asJSON bool) {
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "lsmioctl:", err)
		os.Exit(1)
	}
	var agg lsmio.MetricsSnapshot
	for i := 0; i < m.Shards; i++ {
		mgr, err := lsmio.NewManager(svc.ShardDirName(i), lsmio.ManagerOptions{
			Store: lsmio.StoreOptions{FS: fsys},
		})
		if err != nil {
			die(fmt.Errorf("shard %d: %w", i, err))
		}
		snap := mgr.Obs().Snapshot()
		if err := mgr.Close(); err != nil {
			die(fmt.Errorf("shard %d: %w", i, err))
		}
		if i == 0 {
			agg = snap
		} else {
			agg = agg.Merge(snap)
		}
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]interface{}{
			"service": m,
			"metrics": agg.Tree(),
		}); err != nil {
			die(err)
		}
		return
	}
	fmt.Printf("service: %d shard(s), %d tenant(s); aggregate across shards:\n",
		m.Shards, len(m.Tenants))
	if err := agg.WriteTable(os.Stdout); err != nil {
		die(err)
	}
	writeIOSchedSection(os.Stdout, agg)
}

// writeIOSchedSection renders the shared I/O scheduler's per-class
// accounting as an operator-oriented summary below the raw instrument
// table: one row per priority class with grant counts, granted bytes,
// cumulative token wait and the live deficit backlog, plus the device
// budget and how much of it was actually bought. Printed only when the
// snapshot carries `iosched.*` instruments (a deployment with the
// scheduler attached); silent otherwise.
func writeIOSchedSection(w io.Writer, snap lsmio.MetricsSnapshot) {
	rate := snap.Gauges["iosched.device.rate_bytes_per_sec"]
	busy := snap.Counters["iosched.device.busy_nanos"]
	classes := []string{"foreground", "flush", "drain", "compaction", "scrub"}
	attached := rate != 0 || busy != 0
	for _, c := range classes {
		if snap.Counters["iosched."+c+".grants"] != 0 {
			attached = true
		}
	}
	if !attached {
		return
	}
	fmt.Fprintf(w, "\niosched: device budget %.1f MB/s, %v of device time bought\n",
		float64(rate)/1e6, time.Duration(busy).Round(time.Millisecond))
	fmt.Fprintf(w, "  %-12s %10s %14s %14s %12s\n", "class", "grants", "bytes", "wait", "deficit")
	for _, c := range classes {
		fmt.Fprintf(w, "  %-12s %10d %14d %14s %12d\n", c,
			snap.Counters["iosched."+c+".grants"],
			snap.Counters["iosched."+c+".granted_bytes"],
			time.Duration(snap.Counters["iosched."+c+".wait_nanos"]).Round(time.Microsecond),
			snap.Gauges["iosched."+c+".deficit_bytes"])
	}
}
