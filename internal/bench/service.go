package bench

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"lsmio/internal/core"
	"lsmio/internal/obs"
	"lsmio/internal/pfs"
	"lsmio/internal/resil"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/svc"
)

// The ext-service experiment drives the multi-tenant sharded service
// (internal/svc) over the simulated cluster: N well-behaved tenants
// checkpoint on a compute/commit cadence through the fabric front while
// one noisy tenant floods asynchronous puts with no barrier discipline,
// with fair-share admission on (weighted per-tenant token buckets) and
// off. The scale's node counts become tenant counts. Series, all
// expressed as effective bandwidth so the ratio checks compare
// latencies inverted:
//
//	fair-aggregate    behaved tenants' committed bytes over their
//	                  makespan, admission on
//	nofair-aggregate  the same with admission disabled
//	solo-p99          step bytes over the p99 per-step commit latency of
//	                  a tenant running alone (one point, at 1 tenant)
//	victim-fair       step bytes over the behaved tenants' p99 per-step
//	                  commit latency beside the noisy tenant, admission on
//	victim-nofair     the same with admission disabled
const (
	svcShards = 4 // shard pool size (constant across tenant counts)
	svcSteps  = 3 // checkpoint steps per behaved tenant
	svcBlocks = 16
	// svcDutyFactor is compute time per step in units of the solo p99
	// commit latency; it keeps the behaved tenants' aggregate demand
	// below the shard pool's capacity so that any p99 inflation they see
	// is caused by the noisy neighbor, not self-saturation.
	svcDutyFactor = 12
)

// ExtService is the multi-tenant checkpoint-service extension
// experiment.
func ExtService() Figure {
	f := Figure{
		ID:        "ext-service",
		Title:     "EXTENSION: multi-tenant sharded service, fair-share admission on/off",
		Transfers: []int64{kb64},
		Phase:     PhaseWrite,
		Series: []Series{
			{Name: "fair-aggregate"},
			{Name: "nofair-aggregate"},
			{Name: "solo-p99"},
			{Name: "victim-fair"},
			{Name: "victim-nofair"},
			{Name: "fault-aggregate"},
		},
		Checks: []Check{
			{
				Desc: "aggregate committed throughput at max tenants ≥3× a single tenant (fair-share on)",
				Ratio: func(fr *FigureResult) (float64, error) {
					hi, err := fr.BW("fair-aggregate", kb64, 4, fr.MaxNodes())
					if err != nil {
						return 0, err
					}
					lo, err := fr.BW("fair-aggregate", kb64, 4, minNodes(fr))
					if err != nil {
						return 0, err
					}
					if lo == 0 {
						return 0, fmt.Errorf("bench: zero single-tenant aggregate")
					}
					return hi / lo, nil
				},
				Min: 3,
			},
			{
				Desc:  "behaved-tenant p99 commit ≤2× solo under a noisy neighbor (fair-share on, max tenants)",
				Ratio: ratioVsSolo("victim-fair"),
				Min:   0.5,
			},
			{
				Desc:  "fair-share admission improves (or at worst matches) the victim p99 vs no admission",
				Ratio: ratioAtMaxNodes("victim-fair", kb64, "victim-nofair", kb64, 4),
				Min:   1.0,
			},
			{
				Desc: "noisy tenant saturates its quota (typed retryable rejections observed, fair run)",
				Ratio: func(fr *FigureResult) (float64, error) {
					snap, ok := fr.Metrics["fair"]
					if !ok {
						return 0, fmt.Errorf("bench: no fair-run metrics")
					}
					return float64(snap.Counters["svc.tenant.noisy.quota_rejects"]), nil
				},
				Min: 1,
			},
			{
				Desc: "behaved-tenant availability ≥99% through a single-shard crash-restart cycle",
				Ratio: func(fr *FigureResult) (float64, error) {
					snap, ok := fr.Metrics["fault"]
					if !ok {
						return 0, fmt.Errorf("bench: no fault-run metrics")
					}
					total := snap.Counters["svc.bench.sla_total"]
					if total == 0 {
						return 0, fmt.Errorf("bench: fault run issued no requests")
					}
					return float64(snap.Counters["svc.bench.sla_ok"]) / float64(total), nil
				},
				Min: 0.99,
			},
			{
				Desc: "the supervisor recovered the crashed shard (restart observed, MTTR recorded)",
				Ratio: func(fr *FigureResult) (float64, error) {
					snap, ok := fr.Metrics["fault"]
					if !ok {
						return 0, fmt.Errorf("bench: no fault-run metrics")
					}
					return float64(snap.Counters["svc.supervisor.restarts"]), nil
				},
				Min: 1,
			},
		},
	}
	f.Custom = runServiceFigure
	return f
}

// minNodes returns the smallest tenant count measured.
func minNodes(fr *FigureResult) int {
	min := 0
	for _, p := range fr.Points {
		if min == 0 || p.Nodes < min {
			min = p.Nodes
		}
	}
	return min
}

// ratioVsSolo compares a victim series at max tenants against the solo
// baseline point (inverted p99s, so ≥0.5 means p99 ≤ 2× solo).
func ratioVsSolo(series string) func(*FigureResult) (float64, error) {
	return func(fr *FigureResult) (float64, error) {
		num, err := fr.BW(series, kb64, 4, fr.MaxNodes())
		if err != nil {
			return 0, err
		}
		den, err := fr.BW("solo-p99", kb64, 4, 1)
		if err != nil {
			return 0, err
		}
		if den == 0 {
			return 0, fmt.Errorf("bench: zero solo baseline")
		}
		return num / den, nil
	}
}

// svcRunResult is one service run's measurements.
type svcRunResult struct {
	p99      time.Duration // behaved tenants' p99 per-step commit stall
	agg      float64       // behaved committed bytes per second of makespan
	snapshot obs.Snapshot
}

func runServiceFigure(f Figure, scale Scale, progress func(string)) (*FigureResult, error) {
	fr := &FigureResult{Figure: f}
	stepBytes := scale.PerRankBytes

	// Solo baseline: one behaved tenant, no noisy neighbor, no caps.
	solo, err := runServiceRun(scale, 1, false, svc.AdmissionConfig{}, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("ext-service solo: %w", err)
	}
	fr.addMetrics("solo", solo.snapshot)
	fr.Points = append(fr.Points, Point{
		Series: "solo-p99", Transfer: kb64, StripeCount: 4, Nodes: 1,
		BW: float64(stepBytes) / solo.p99.Seconds(),
	})
	if progress != nil {
		progress(fmt.Sprintf("%s %-16s       p99=%10v", f.ID, "solo", solo.p99.Round(time.Microsecond)))
	}

	// Calibrate the load shape off the solo probe: a low duty cycle
	// keeps the behaved tenants' aggregate demand under the pool's
	// capacity, and the advertised service capacity grants every tenant
	// (the noisy one included) a fair share of twice its sustained
	// demand — enough headroom for bursts, tight enough that the noisy
	// tenant's flood hits its quota.
	compute := svcDutyFactor * solo.p99
	demand := float64(stepBytes) / (compute + solo.p99).Seconds()

	for _, tenants := range scale.Nodes {
		capacity := 2 * demand * float64(tenants+1)
		// MaxWait sits below one block's token time at a tenant's share
		// (~0.4× the solo p99), so a tenant pushing past its share gets
		// typed QuotaError rejections to back off on, not just smoothing
		// delays.
		adm := svc.AdmissionConfig{
			CapacityBytesPerSec: capacity,
			MaxWait:             solo.p99 / 4,
		}
		fair, err := runServiceRun(scale, tenants, true, adm, compute, capacity)
		if err != nil {
			return nil, fmt.Errorf("ext-service fair n=%d: %w", tenants, err)
		}
		nofair, err := runServiceRun(scale, tenants, true, svc.AdmissionConfig{Disabled: true}, compute, capacity)
		if err != nil {
			return nil, fmt.Errorf("ext-service nofair n=%d: %w", tenants, err)
		}
		fr.addMetrics("fair", fair.snapshot)
		fr.addMetrics("nofair", nofair.snapshot)
		for _, m := range []struct {
			series string
			bw     float64
		}{
			{"fair-aggregate", fair.agg},
			{"nofair-aggregate", nofair.agg},
			{"victim-fair", float64(stepBytes) / fair.p99.Seconds()},
			{"victim-nofair", float64(stepBytes) / nofair.p99.Seconds()},
		} {
			fr.Points = append(fr.Points, Point{
				Series: m.series, Transfer: kb64, StripeCount: 4, Nodes: tenants, BW: m.bw,
			})
		}
		if progress != nil {
			progress(fmt.Sprintf("%s n=%-2d  fair agg=%9.1f MB/s p99=%10v   nofair agg=%9.1f MB/s p99=%10v",
				f.ID, tenants, fair.agg/1e6, fair.p99.Round(time.Microsecond),
				nofair.agg/1e6, nofair.p99.Round(time.Microsecond)))
		}
	}

	// Under-fault panel: rerun the max tenant count with fair admission
	// and the shard supervisor enabled, crash one shard as the first
	// commit wave lands, and measure per-request availability while the
	// supervisor restarts it.
	maxTenants := scale.Nodes[len(scale.Nodes)-1]
	adm := svc.AdmissionConfig{
		CapacityBytesPerSec: 2 * demand * float64(maxTenants+1),
		MaxWait:             solo.p99 / 4,
	}
	fault, err := runServiceFaultRun(scale, maxTenants, adm, compute)
	if err != nil {
		return nil, fmt.Errorf("ext-service fault n=%d: %w", maxTenants, err)
	}
	fr.addMetrics("fault", fault.snapshot)
	fr.Points = append(fr.Points, Point{
		Series: "fault-aggregate", Transfer: kb64, StripeCount: 4, Nodes: maxTenants, BW: fault.agg,
	})
	if progress != nil {
		total := fault.snapshot.Counters["svc.bench.sla_total"]
		ok := fault.snapshot.Counters["svc.bench.sla_ok"]
		avail := 0.0
		if total > 0 {
			avail = float64(ok) / float64(total)
		}
		progress(fmt.Sprintf("%s n=%-2d fault agg=%9.1f MB/s avail=%6.2f%% restarts=%d",
			f.ID, maxTenants, fault.agg/1e6, 100*avail,
			fault.snapshot.Counters["svc.supervisor.restarts"]))
	}
	return fr, nil
}

// runServiceRun executes one service configuration: `behaved` tenants
// on a compute/commit cadence (plus, when noisy is set, one tenant
// offering un-barriered puts at noisyRate bytes/s — the full advertised
// service capacity, several times its fair share — for as long as any
// behaved tenant is still running, retrying quota rejections after the
// advertised delay) over a svcShards-shard pool hosted on the
// simulated cluster.
func runServiceRun(scale Scale, behaved int, noisy bool, adm svc.AdmissionConfig, compute time.Duration, noisyRate float64) (svcRunResult, error) {
	k := sim.NewKernel()
	rtm := rt.Sim(k)
	clients := behaved + 1 // the last client node hosts the noisy tenant
	cluster := pfs.NewCluster(k, pfs.VikingConfig(clients+svcShards))
	reg := obs.NewRegistryOn(rtm.Now)

	var s *svc.Service
	var front *svc.Front
	var setupErr error
	k.Spawn("svc-setup", func(p *sim.Proc) {
		s, setupErr = svc.New(svc.Options{
			Shards: svcShards,
			OpenShard: func(i int) (*core.Manager, error) {
				return core.NewManager(fmt.Sprintf("svc/shard%03d", i), core.ManagerOptions{
					Store: core.StoreOptions{
						FS:              cluster.Client(clients + i),
						Async:           true,
						WriteBufferSize: scale.BufferSize,
					},
					Runtime: rtm,
					Obs:     reg,
				})
			},
			Runtime:   rtm,
			Obs:       reg,
			Admission: adm,
		})
		if setupErr != nil {
			return
		}
		nodes := make([]int, svcShards)
		for i := range nodes {
			nodes[i] = clients + i
		}
		front = svc.NewFront(s, cluster.Fabric(), nodes)
		// Every tenant gets weight 1 and a burst allowance of one full
		// checkpoint step, so a behaved tenant's commit burst is admitted
		// without delay while a sustained flood runs into its share.
		cfg := svc.TenantConfig{Weight: 1, BurstBytes: float64(scale.PerRankBytes)}
		for t := 0; t < behaved; t++ {
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
		return svcRunResult{}, err
	}
	if setupErr != nil {
		return svcRunResult{}, setupErr
	}

	block := make([]byte, stepBlockSize(scale))
	stalls := make([]time.Duration, 0, behaved*svcSteps)
	errs := make([]error, behaved+1)
	var makespan time.Duration
	// remaining counts behaved tenants still running; the simulator is
	// cooperative, so plain shared variables are race-free.
	remaining := behaved
	for t := 0; t < behaved; t++ {
		t := t
		k.Spawn(fmt.Sprintf("svc-tenant%02d", t), func(p *sim.Proc) {
			defer func() { remaining-- }()
			c := front.Connect(fmt.Sprintf("tenant%02d", t), t)
			// Stagger starts across one compute period: real jobs do not
			// checkpoint in lockstep, and a synchronized barrier herd
			// would measure queueing the service cannot influence.
			if off := compute * time.Duration(t) / time.Duration(behaved); off > 0 {
				p.Sleep(off)
			}
			for step := 0; step < svcSteps; step++ {
				if compute > 0 {
					p.Sleep(compute)
				}
				start := p.Now()
				for b := 0; b < svcBlocks; b++ {
					if err := c.Put(fmt.Sprintf("step%03d/block%03d", step, b), block); err != nil {
						errs[t] = err
						return
					}
				}
				if err := c.Barrier(); err != nil {
					errs[t] = err
					return
				}
				stalls = append(stalls, p.Now().Sub(start))
			}
			if end := p.Now().Duration(); end > makespan {
				makespan = end
			}
		})
	}
	if noisy {
		// The noisy tenant paces itself to its offered rate so the
		// no-admission arm models a greedy-but-finite client rather than
		// an unbounded queue.
		gap := time.Duration(float64(len(block)) / noisyRate * float64(time.Second))
		k.Spawn("svc-noisy", func(p *sim.Proc) {
			c := front.Connect("noisy", behaved)
			for sent := int64(0); remaining > 0; {
				err := c.Put(fmt.Sprintf("junk%08d", sent), block)
				if err != nil {
					if qe, ok := err.(*svc.QuotaError); ok {
						p.Sleep(qe.RetryAfter)
						continue
					}
					errs[behaved] = err
					return
				}
				sent += int64(len(block))
				p.Sleep(gap)
			}
		})
	}
	if err := k.Run(); err != nil {
		return svcRunResult{}, err
	}
	for _, err := range errs {
		if err != nil {
			return svcRunResult{}, err
		}
	}
	if len(stalls) == 0 || makespan <= 0 {
		return svcRunResult{}, fmt.Errorf("bench: service run measured nothing")
	}
	sort.Slice(stalls, func(i, j int) bool { return stalls[i] < stalls[j] })
	p99 := stalls[(len(stalls)*99+99)/100-1]
	committed := float64(behaved) * float64(svcSteps) * float64(scale.PerRankBytes)
	return svcRunResult{
		p99:      p99,
		agg:      committed / makespan.Seconds(),
		snapshot: cluster.Obs().Snapshot().Merge(reg.Snapshot()),
	}, nil
}

// runServiceFaultRun executes the under-fault arm of the service
// figure: `behaved` tenants on the usual compute/commit cadence, fair
// admission on, no noisy neighbor, and the shard supervisor enabled
// with a tight restart backoff. A chaos proc crashes shard 0 in the
// middle of the first commit wave; tenants retry typed transient
// failures (ShardDownError while the supervisor restarts the shard,
// quota smoothing, fabric hiccups) and a request counts toward
// availability when it completes within one compute period of its
// first attempt — a latency SLO about 12x the solo p99, so only
// fault-induced stalls miss it. A barrier that reports asynchronous
// write loss makes the tenant replay the whole step, mirroring how a
// real checkpoint client must re-offer data the service never made
// durable.
func runServiceFaultRun(scale Scale, behaved int, adm svc.AdmissionConfig, compute time.Duration) (svcRunResult, error) {
	k := sim.NewKernel()
	rtm := rt.Sim(k)
	clients := behaved + 1
	cluster := pfs.NewCluster(k, pfs.VikingConfig(clients+svcShards))
	reg := obs.NewRegistryOn(rtm.Now)

	var s *svc.Service
	var front *svc.Front
	var setupErr error
	k.Spawn("svc-setup", func(p *sim.Proc) {
		s, setupErr = svc.New(svc.Options{
			Shards: svcShards,
			OpenShard: func(i int) (*core.Manager, error) {
				return core.NewManager(fmt.Sprintf("svc/shard%03d", i), core.ManagerOptions{
					Store: core.StoreOptions{
						FS:              cluster.Client(clients + i),
						Async:           true,
						WriteBufferSize: scale.BufferSize,
					},
					Runtime: rtm,
					Obs:     reg,
				})
			},
			Runtime:    rtm,
			Obs:        reg,
			Admission:  adm,
			Supervisor: svc.SupervisorConfig{RestartBackoff: 500 * time.Microsecond},
		})
		if setupErr != nil {
			return
		}
		nodes := make([]int, svcShards)
		for i := range nodes {
			nodes[i] = clients + i
		}
		front = svc.NewFront(s, cluster.Fabric(), nodes)
		cfg := svc.TenantConfig{Weight: 1, BurstBytes: float64(scale.PerRankBytes)}
		for t := 0; t < behaved; t++ {
			if _, err := s.RegisterTenant(fmt.Sprintf("tenant%02d", t), cfg); err != nil {
				setupErr = err
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		return svcRunResult{}, err
	}
	if setupErr != nil {
		return svcRunResult{}, setupErr
	}

	if compute <= 0 {
		compute = time.Millisecond
	}
	slo := compute
	slaTotal := reg.Counter("svc.bench.sla_total")
	slaOK := reg.Counter("svc.bench.sla_ok")
	// slaOp issues one logical request: retry typed transient failures
	// with a short pause, count the request as available when it
	// succeeds within the SLO of its first attempt. Write-loss reports
	// are returned to the caller (the step must be replayed, not the
	// barrier); non-typed errors abort the run.
	slaOp := func(p *sim.Proc, op func() error) error {
		slaTotal.Inc()
		start := p.Now().Duration()
		for {
			err := op()
			elapsed := p.Now().Duration() - start
			if err == nil {
				if elapsed <= slo {
					slaOK.Inc()
				}
				return nil
			}
			var wl *svc.WriteLossError
			if errors.As(err, &wl) {
				return err
			}
			if resil.Classify(err) != resil.ClassTransient || elapsed > 2*time.Second {
				return err
			}
			p.Sleep(200 * time.Microsecond)
		}
	}

	block := make([]byte, stepBlockSize(scale))
	stalls := make([]time.Duration, 0, behaved*svcSteps)
	errs := make([]error, behaved+1)
	var makespan time.Duration
	for t := 0; t < behaved; t++ {
		t := t
		k.Spawn(fmt.Sprintf("svc-tenant%02d", t), func(p *sim.Proc) {
			c := front.Connect(fmt.Sprintf("tenant%02d", t), t)
			if off := compute * time.Duration(t) / time.Duration(behaved); off > 0 {
				p.Sleep(off)
			}
			for step := 0; step < svcSteps; step++ {
				p.Sleep(compute)
				start := p.Now()
			replay:
				for {
					for b := 0; b < svcBlocks; b++ {
						key := fmt.Sprintf("step%03d/block%03d", step, b)
						if err := slaOp(p, func() error { return c.Put(key, block) }); err != nil {
							errs[t] = err
							return
						}
					}
					err := slaOp(p, c.Barrier)
					var wl *svc.WriteLossError
					if errors.As(err, &wl) {
						continue replay
					}
					if err != nil {
						errs[t] = err
						return
					}
					break
				}
				stalls = append(stalls, p.Now().Sub(start))
			}
			if end := p.Now().Duration(); end > makespan {
				makespan = end
			}
		})
	}
	// The chaos proc crashes shard 0 when the staggered commit waves are
	// in full swing (tenant t commits around compute*(1+t/behaved), so
	// 1.5 compute periods lands mid-spread) and the supervisor must
	// recover it while requests are arriving.
	k.Spawn("svc-bench-chaos", func(p *sim.Proc) {
		p.Sleep(compute + compute/2)
		errs[behaved] = s.CrashShard(0)
	})
	if err := k.Run(); err != nil {
		return svcRunResult{}, err
	}
	for _, err := range errs {
		if err != nil {
			return svcRunResult{}, err
		}
	}
	if len(stalls) == 0 || makespan <= 0 {
		return svcRunResult{}, fmt.Errorf("bench: service fault run measured nothing")
	}
	sort.Slice(stalls, func(i, j int) bool { return stalls[i] < stalls[j] })
	committed := float64(behaved) * float64(svcSteps) * float64(scale.PerRankBytes)
	return svcRunResult{
		p99:      stalls[(len(stalls)*99+99)/100-1],
		agg:      committed / makespan.Seconds(),
		snapshot: cluster.Obs().Snapshot().Merge(reg.Snapshot()),
	}, nil
}

func stepBlockSize(scale Scale) int64 {
	b := scale.PerRankBytes / svcBlocks
	if b <= 0 {
		b = 1
	}
	return b
}
