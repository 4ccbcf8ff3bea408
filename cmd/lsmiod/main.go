// Command lsmiod hosts the multi-tenant sharded checkpoint service
// (internal/svc): a pool of LSM-backed shards multiplexed between
// tenants with consistent-hash routing and fair-share admission.
//
//	lsmiod -sim -tenants 4 -noisy -assert-fair 2
//	    run a simulated session: tenants checkpoint over the fabric
//	    front beside a flooding noisy neighbor; -assert-fair R exits
//	    non-zero unless the behaved tenants' p99 commit latency stays
//	    within R times the solo baseline
//	lsmiod -dir /srv/ckpt -tenants 2
//	    host the service over a real directory (in-process transport),
//	    drive one short session per tenant and write SERVICE.json, so
//	    `lsmioctl tenants` / `lsmioctl stats` can inspect the layout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"lsmio/internal/core"
	"lsmio/internal/iosched"
	"lsmio/internal/obs"
	"lsmio/internal/pfs"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/svc"
	"lsmio/internal/vfs"
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

// dutyFactor is compute time per step in solo-p99 units; it matches the
// ext-service bench so lsmiod sessions and the figure agree on load
// shape.
const dutyFactor = 12

type tenantReport struct {
	Name    string  `json:"name"`
	P99Ms   float64 `json:"p99_ms,omitempty"` // behaved tenants only
	Ops     int64   `json:"ops"`
	Bytes   int64   `json:"bytes"`
	Rejects int64   `json:"quota_rejects"`
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

type sessionResult struct {
	p99      time.Duration
	stalls   map[string]time.Duration // per-tenant worst step
	makespan time.Duration
	snap     obs.Snapshot
	health   []svc.ShardStatus // supervisor view at session end
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
	if (*simMode == (*dir != "")) || *tenants < 1 || *shards < 1 {
		usage()
	}

	var rep report
	var solo time.Duration
	var res sessionResult
	if *simMode {
		// Solo probe calibrates the load shape and the fairness
		// baseline: one tenant, no neighbor, no admission limits.
		probe, err := runSim(*shards, 1, *steps, *blocks, *blockBytes, false, svc.AdmissionConfig{}, 0, 0, *ioBW)
		if err != nil {
			die(err)
		}
		solo = probe.p99
		stepBytes := int64(*blocks) * *blockBytes
		compute := dutyFactor * solo
		demand := float64(stepBytes) / (compute + solo).Seconds()
		capacity := 2 * demand * float64(*tenants+1)
		adm := svc.AdmissionConfig{Disabled: !*fair, CapacityBytesPerSec: capacity, MaxWait: solo / 4}
		res, err = runSim(*shards, *tenants, *steps, *blocks, *blockBytes, *noisy, adm, compute, capacity, *ioBW)
		if err != nil {
			die(err)
		}
		rep.Mode = "sim"
	} else {
		var err error
		res, err = runDir(*dir, *shards, *tenants, *steps, *blocks, *blockBytes, *fair, *ioBW)
		if err != nil {
			die(err)
		}
		rep.Mode = "dir"
	}

	rep.Shards, rep.Tenants, rep.Noisy, rep.Fair = *shards, *tenants, *noisy, *fair
	rep.SoloP99Ms = float64(solo) / 1e6
	rep.P99Ms = float64(res.p99) / 1e6
	total := float64(*tenants) * float64(*steps) * float64(*blocks) * float64(*blockBytes)
	rep.AggBytesSec = total / res.makespan.Seconds()
	names := make([]string, 0, len(res.stalls))
	for n := range res.stalls {
		names = append(names, n)
	}
	sort.Strings(names)
	if *noisy {
		names = append(names, "noisy")
	}
	for _, n := range names {
		tr := tenantReport{
			Name:    n,
			Ops:     res.snap.Counters["svc.tenant."+n+".ops"],
			Bytes:   res.snap.Counters["svc.tenant."+n+".bytes_in"],
			Rejects: res.snap.Counters["svc.tenant."+n+".quota_rejects"],
		}
		if st, ok := res.stalls[n]; ok {
			tr.P99Ms = float64(st) / 1e6
		}
		rep.Tenant = append(rep.Tenant, tr)
	}
	rep.ShardRestarts = res.snap.Counters["svc.supervisor.restarts"]
	rep.ShardHealth = res.health

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			die(err)
		}
	} else {
		fmt.Printf("lsmiod: %s service, %d shard(s), %d tenant(s)%s, fair-share %v\n",
			rep.Mode, rep.Shards, rep.Tenants, map[bool]string{true: " + noisy", false: ""}[rep.Noisy], rep.Fair)
		if solo > 0 {
			fmt.Printf("  solo p99 %v\n", solo.Round(time.Microsecond))
		}
		fmt.Printf("  %-12s %12s %8s %12s %8s\n", "tenant", "worst step", "ops", "bytes", "rejects")
		for _, tr := range rep.Tenant {
			stall := "-"
			if tr.P99Ms > 0 {
				stall = fmt.Sprintf("%.3fms", tr.P99Ms)
			}
			fmt.Printf("  %-12s %12s %8d %12d %8d\n", tr.Name, stall, tr.Ops, tr.Bytes, tr.Rejects)
		}
		fmt.Printf("  behaved p99 %v, aggregate %.1f MB/s\n", res.p99.Round(time.Microsecond), rep.AggBytesSec/1e6)
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
		bound := time.Duration(*assertFair * float64(solo))
		if res.p99 > bound {
			die(fmt.Errorf("fair-share bound violated: behaved p99 %v > %.1f x solo %v",
				res.p99.Round(time.Microsecond), *assertFair, solo.Round(time.Microsecond)))
		}
		fmt.Printf("fair-share OK: behaved p99 %v <= %.1f x solo %v\n",
			res.p99.Round(time.Microsecond), *assertFair, solo.Round(time.Microsecond))
	}
}

// runSim executes one simulated session: behaved tenants checkpoint
// over the fabric front on a staggered compute/commit cadence; a noisy
// tenant, when present, offers un-barriered puts at the full advertised
// capacity until the behaved tenants finish.
func runSim(shards, tenants, steps, blocks int, blockBytes int64, noisy bool, adm svc.AdmissionConfig, compute time.Duration, noisyRate float64, ioBW float64) (sessionResult, error) {
	k := sim.NewKernel()
	rtm := rt.Sim(k)
	clients := tenants + 1
	cluster := pfs.NewCluster(k, pfs.VikingConfig(clients+shards))
	reg := obs.NewRegistryOn(rtm.Now)

	// One scheduler instance covers every shard's engine I/O and the
	// cluster's scrubber; disabled (nil-equivalent) when ioBW is 0 so the
	// calibrated fairness gate is measured on the unscheduled baseline.
	var sched *iosched.Scheduler
	if ioBW > 0 {
		sched = iosched.New(iosched.Config{BytesPerSec: ioBW, Clock: rtm, Obs: reg})
		cluster.SetIOScheduler(sched)
	}

	var s *svc.Service
	var front *svc.Front
	var setupErr error
	k.Spawn("setup", func(p *sim.Proc) {
		s, setupErr = svc.New(svc.Options{
			Shards: shards,
			OpenShard: func(i int) (*core.Manager, error) {
				return core.NewManager(svc.ShardDirName(i), core.ManagerOptions{
					Store: core.StoreOptions{
						FS:              cluster.Client(clients + i),
						Async:           true,
						WriteBufferSize: 1 << 20,
						IOSched:         sched,
					},
					Runtime: rtm,
					Obs:     reg,
				})
			},
			Runtime:   rtm,
			Obs:       reg,
			Admission: adm,
			IOSched:   sched,
		})
		if setupErr != nil {
			return
		}
		nodes := make([]int, shards)
		for i := range nodes {
			nodes[i] = clients + i
		}
		front = svc.NewFront(s, cluster.Fabric(), nodes)
		cfg := svc.TenantConfig{Weight: 1, BurstBytes: float64(int64(blocks) * blockBytes)}
		for t := 0; t < tenants; t++ {
			if _, err := s.RegisterTenant(fmt.Sprintf("tenant%02d", t), cfg); err != nil {
				setupErr = err
				return
			}
		}
		if noisy {
			if _, err := s.RegisterTenant("noisy", cfg); err != nil {
				setupErr = err
			}
		}
	})
	if err := k.Run(); err != nil {
		return sessionResult{}, err
	}
	if setupErr != nil {
		return sessionResult{}, setupErr
	}

	res := sessionResult{stalls: make(map[string]time.Duration)}
	block := make([]byte, blockBytes)
	errs := make([]error, tenants+1)
	remaining := tenants
	for t := 0; t < tenants; t++ {
		t := t
		name := fmt.Sprintf("tenant%02d", t)
		k.Spawn(name, func(p *sim.Proc) {
			defer func() { remaining-- }()
			c := front.Connect(name, t)
			if off := compute * time.Duration(t) / time.Duration(tenants); off > 0 {
				p.Sleep(off)
			}
			for step := 0; step < steps; step++ {
				if compute > 0 {
					p.Sleep(compute)
				}
				start := p.Now()
				for b := 0; b < blocks; b++ {
					if err := c.Put(fmt.Sprintf("step%03d/block%03d", step, b), block); err != nil {
						errs[t] = err
						return
					}
				}
				if err := c.Barrier(); err != nil {
					errs[t] = err
					return
				}
				if d := p.Now().Sub(start); d > res.stalls[name] {
					res.stalls[name] = d
				}
			}
			if end := p.Now().Duration(); end > res.makespan {
				res.makespan = end
			}
		})
	}
	if noisy {
		gap := time.Duration(float64(blockBytes) / noisyRate * float64(time.Second))
		k.Spawn("noisy", func(p *sim.Proc) {
			c := front.Connect("noisy", tenants)
			for sent := int64(0); remaining > 0; {
				err := c.Put(fmt.Sprintf("junk%08d", sent), block)
				if err != nil {
					if qe, ok := err.(*svc.QuotaError); ok {
						p.Sleep(qe.RetryAfter)
						continue
					}
					errs[tenants] = err
					return
				}
				sent += blockBytes
				p.Sleep(gap)
			}
		})
	}
	if err := k.Run(); err != nil {
		return sessionResult{}, err
	}
	for _, err := range errs {
		if err != nil {
			return sessionResult{}, err
		}
	}
	for _, d := range res.stalls {
		if d > res.p99 {
			res.p99 = d
		}
	}
	res.health = s.ShardStatuses()
	res.snap = cluster.Obs().Snapshot().Merge(reg.Snapshot())
	return res, nil
}

// runDir hosts the service over a real directory and drives one short
// session per tenant through the in-process transport. The layout —
// shard-NNN stores plus SERVICE.json — is what lsmioctl's service mode
// inspects.
func runDir(dir string, shards, tenants, steps, blocks int, blockBytes int64, fair bool, ioBW float64) (sessionResult, error) {
	fs, err := vfs.NewOSFS(dir)
	if err != nil {
		return sessionResult{}, err
	}
	reg := obs.NewRegistry()
	var sched *iosched.Scheduler
	if ioBW > 0 {
		// Wall-clock mode: every shard's engine paces against the same
		// real-time budget.
		sched = iosched.New(iosched.Config{BytesPerSec: ioBW, Obs: reg})
	}
	s, err := svc.New(svc.Options{
		Shards: shards,
		OpenShard: func(i int) (*core.Manager, error) {
			return core.NewManager(svc.ShardDirName(i), core.ManagerOptions{
				Store: core.StoreOptions{FS: fs, Async: true, IOSched: sched},
				Obs:   reg,
			})
		},
		Obs:        reg,
		Admission:  svc.AdmissionConfig{Disabled: !fair},
		ManifestFS: fs,
		IOSched:    sched,
	})
	if err != nil {
		return sessionResult{}, err
	}
	res := sessionResult{stalls: make(map[string]time.Duration)}
	block := make([]byte, blockBytes)
	errs := make([]error, tenants)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < tenants; t++ {
		name := fmt.Sprintf("tenant%02d", t)
		tn, err := s.RegisterTenant(name, svc.TenantConfig{Weight: 1})
		if err != nil {
			return sessionResult{}, err
		}
		wg.Add(1)
		t := t
		go func() {
			defer wg.Done()
			for step := 0; step < steps; step++ {
				stepStart := time.Now()
				for b := 0; b < blocks; b++ {
					if err := tn.Put(fmt.Sprintf("step%03d/block%03d", step, b), block); err != nil {
						errs[t] = err
						return
					}
				}
				if err := tn.Barrier(); err != nil {
					errs[t] = err
					return
				}
				mu.Lock()
				if d := time.Since(stepStart); d > res.stalls[name] {
					res.stalls[name] = d
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.makespan = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return sessionResult{}, err
		}
	}
	for _, d := range res.stalls {
		if d > res.p99 {
			res.p99 = d
		}
	}
	res.health = s.ShardStatuses()
	if err := s.Close(); err != nil {
		return sessionResult{}, err
	}
	res.snap = reg.Snapshot()
	return res, nil
}
