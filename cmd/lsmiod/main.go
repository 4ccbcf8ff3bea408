// Command lsmiod hosts the multi-tenant sharded checkpoint service
// (internal/svc): a pool of LSM-backed shards multiplexed between
// tenants with hashed key routing and fair-share admission.
//
//	lsmiod -sim -tenants 4 -noisy -assert-fair 2
//	    run a simulated session: tenants checkpoint over the fabric
//	    front beside a flooding noisy neighbor; -assert-fair R exits
//	    non-zero unless the behaved tenants' p99 commit latency stays
//	    within R times the solo baseline
//	lsmiod -dir /srv/ckpt -tenants 2
//	    run the same session flat out over a real directory
//	    (in-process transport) and write SERVICE.json, so
//	    `lsmioctl tenants` / `lsmioctl stats` can inspect the layout;
//	    -noisy and -assert-fair need -sim
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"lsmio/internal/bench"
	"lsmio/internal/svc"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lsmiod (-sim | -dir <path>) [flags]

modes:
  -sim                run the service on the simulated cluster (fabric front)
  -dir <path>         host the service over a real directory (in-process)

workload:
  -tenants n          behaved tenants (default 4)
  -shards n           shard pool size (default 4)
  -steps n            checkpoint steps per tenant (default 3)
  -blocks n           puts per step (default 16)
  -block-bytes n      bytes per put (default 262144)
  -noisy              add a flooding tenant with no barrier discipline (sim)
  -fair               fair-share admission (default true)
  -iosched-bw n       shared I/O scheduler device budget in bytes/sec
                      (0 = scheduler off, the default): one iosched
                      instance paces WAL/flush/compaction across every
                      shard and scrub on the simulated cluster

reporting:
  -assert-fair r      exit 1 unless behaved p99 <= r x solo p99 (sim, needs -noisy)
  -json               emit the session report as JSON`)
	os.Exit(2)
}

type tenantReport struct {
	Name        string  `json:"name"`
	WorstStepMs float64 `json:"worst_step_ms,omitempty"` // behaved tenants only
	Ops         int64   `json:"ops"`
	Bytes       int64   `json:"bytes"`
	Rejects     int64   `json:"quota_rejects"`
}

type report struct {
	Mode          string            `json:"mode"`
	Shards        int               `json:"shards"`
	Tenants       int               `json:"tenants"`
	Noisy         bool              `json:"noisy"`
	Fair          bool              `json:"fair"`
	SoloP99Ms     float64           `json:"solo_p99_ms,omitempty"`
	P99Ms         float64           `json:"p99_ms"`
	AggBytesSec   float64           `json:"aggregate_bytes_per_sec"`
	Tenant        []tenantReport    `json:"tenant"`
	ShardRestarts int64             `json:"shard_restarts"`
	ShardHealth   []svc.ShardStatus `json:"shard_health,omitempty"`
}

func main() {
	simMode := flag.Bool("sim", false, "run on the simulated cluster")
	dir := flag.String("dir", "", "host the service over a real directory")
	tenants := flag.Int("tenants", 4, "behaved tenants")
	shards := flag.Int("shards", 4, "shard pool size")
	steps := flag.Int("steps", 3, "checkpoint steps per tenant")
	blocks := flag.Int("blocks", 16, "puts per step")
	blockBytes := flag.Int64("block-bytes", 256<<10, "bytes per put")
	noisy := flag.Bool("noisy", false, "add a flooding tenant (sim mode)")
	fair := flag.Bool("fair", true, "fair-share admission")
	ioBW := flag.Float64("iosched-bw", 0, "shared I/O scheduler budget, bytes/sec (0 = off)")
	assertFair := flag.Float64("assert-fair", 0, "exit 1 unless behaved p99 <= r x solo p99")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	flag.Usage = usage
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "lsmiod:", err)
		os.Exit(1)
	}
	if (*simMode == (*dir != "")) || *tenants < 1 || *shards < 1 || (*noisy && !*simMode) {
		usage()
	}

	sess := bench.ServiceSession{
		Shards:     *shards,
		Tenants:    *tenants,
		Steps:      *steps,
		Blocks:     *blocks,
		BlockBytes: *blockBytes,
		BufferSize: 1 << 20,
		Noisy:      *noisy,
		Fair:       *fair,
		IOSchedBW:  *ioBW,
	}
	mode := "sim"
	var res bench.ServiceResult
	var err error
	if *simMode {
		res, err = sess.Run()
	} else {
		mode = "dir"
		res, err = sess.RunDir(*dir)
	}
	if err != nil {
		die(err)
	}
	rep := newReport(mode, sess, res)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			die(err)
		}
	} else {
		fmt.Printf("lsmiod: %s service, %d shard(s), %d tenant(s)%s, fair-share %v\n",
			rep.Mode, rep.Shards, rep.Tenants, map[bool]string{true: " + noisy", false: ""}[rep.Noisy], rep.Fair)
		if res.Solo > 0 {
			fmt.Printf("  solo p99 %v\n", res.Solo.Round(time.Microsecond))
		}
		fmt.Printf("  %-12s %12s %8s %12s %8s\n", "tenant", "worst step", "ops", "bytes", "rejects")
		for _, tr := range rep.Tenant {
			stall := "-"
			if tr.WorstStepMs > 0 {
				stall = fmt.Sprintf("%.3fms", tr.WorstStepMs)
			}
			fmt.Printf("  %-12s %12s %8d %12d %8d\n", tr.Name, stall, tr.Ops, tr.Bytes, tr.Rejects)
		}
		fmt.Printf("  behaved p99 %v, aggregate %.1f MB/s\n", res.P99().Round(time.Microsecond), rep.AggBytesSec/1e6)
		if rep.ShardRestarts > 0 {
			fmt.Printf("  supervisor: %d shard restart(s)\n", rep.ShardRestarts)
			for _, sh := range rep.ShardHealth {
				if sh.Restarts > 0 || sh.State != "up" {
					fmt.Printf("    shard %03d: %s, %d restart(s), breaker %s\n", sh.Shard, sh.State, sh.Restarts, sh.Breaker)
				}
			}
		} else if len(rep.ShardHealth) > 0 {
			fmt.Printf("  supervisor: all %d shard(s) up, no restarts\n", len(rep.ShardHealth))
		}
	}

	if *assertFair > 0 {
		if !*simMode || !*noisy || !*fair {
			die(fmt.Errorf("-assert-fair needs -sim -noisy -fair"))
		}
		p99, solo := res.P99(), res.Solo
		bound := time.Duration(*assertFair * float64(solo))
		if p99 > bound {
			die(fmt.Errorf("fair-share bound violated: behaved p99 %v > %.1f x solo %v",
				p99.Round(time.Microsecond), *assertFair, solo.Round(time.Microsecond)))
		}
		fmt.Printf("fair-share OK: behaved p99 %v <= %.1f x solo %v\n",
			p99.Round(time.Microsecond), *assertFair, solo.Round(time.Microsecond))
	}
}

// newReport summarises a session: the behaved tenants' p99 step stall
// over all their steps, and per tenant its worst step and the service's
// counters.
func newReport(mode string, sess bench.ServiceSession, res bench.ServiceResult) report {
	rep := report{
		Mode:          mode,
		Shards:        sess.Shards,
		Tenants:       sess.Tenants,
		Noisy:         sess.Noisy,
		Fair:          sess.Fair,
		SoloP99Ms:     float64(res.Solo) / 1e6,
		P99Ms:         float64(res.P99()) / 1e6,
		AggBytesSec:   res.Aggregate,
		ShardRestarts: res.Metrics.Counters["svc.supervisor.restarts"],
		ShardHealth:   res.Shards,
	}
	names := make([]string, 0, len(res.Steps))
	for n := range res.Steps {
		names = append(names, n)
	}
	sort.Strings(names)
	if sess.Noisy {
		names = append(names, "noisy")
	}
	for _, n := range names {
		tr := tenantReport{
			Name:    n,
			Ops:     res.Metrics.Counters["svc.tenant."+n+".ops"],
			Bytes:   res.Metrics.Counters["svc.tenant."+n+".bytes_in"],
			Rejects: res.Metrics.Counters["svc.tenant."+n+".quota_rejects"],
		}
		for _, d := range res.Steps[n] {
			if ms := float64(d) / 1e6; ms > tr.WorstStepMs {
				tr.WorstStepMs = ms
			}
		}
		rep.Tenant = append(rep.Tenant, tr)
	}
	return rep
}
