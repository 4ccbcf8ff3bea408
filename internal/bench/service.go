package bench

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lsmio/internal/core"
	"lsmio/internal/iosched"
	"lsmio/internal/obs"
	"lsmio/internal/pfs"
	"lsmio/internal/resil"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/svc"
	"lsmio/internal/vfs"
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

func runServiceFigure(f Figure, scale Scale, progress func(string)) (*FigureResult, error) {
	e := newEmitter(f, progress)
	stepBytes := float64(scale.PerRankBytes)
	sess := ServiceSession{
		Shards:     svcShards,
		Tenants:    1,
		Steps:      svcSteps,
		Blocks:     svcBlocks,
		BlockBytes: stepBlockSize(scale),
		BufferSize: scale.BufferSize,
	}

	// Solo baseline: one behaved tenant, no noisy neighbor, no caps.
	solo, err := sess.run(serviceLoad{})
	if err != nil {
		return nil, fmt.Errorf("ext-service solo: %w", err)
	}
	soloP99 := solo.P99()
	e.fr.addMetrics("solo", solo.Metrics)
	e.point("solo-p99", 1, stepBytes/soloP99.Seconds(), "%-16s       p99=%10v", "solo", soloP99.Round(time.Microsecond))

	sess.Noisy = true
	for _, tenants := range scale.Nodes {
		sess.Tenants = tenants
		load := sess.calibrate(soloP99)
		fair, err := sess.run(load)
		if err != nil {
			return nil, fmt.Errorf("ext-service fair n=%d: %w", tenants, err)
		}
		load.adm.Disabled = true
		nofair, err := sess.run(load)
		if err != nil {
			return nil, fmt.Errorf("ext-service nofair n=%d: %w", tenants, err)
		}
		e.fr.addMetrics("fair", fair.Metrics)
		e.fr.addMetrics("nofair", nofair.Metrics)
		e.point("fair-aggregate", tenants, fair.Aggregate, "")
		e.point("nofair-aggregate", tenants, nofair.Aggregate, "")
		e.point("victim-fair", tenants, stepBytes/fair.P99().Seconds(), "")
		e.point("victim-nofair", tenants, stepBytes/nofair.P99().Seconds(), "")
		e.log("n=%-2d  fair agg=%9.1f MB/s p99=%10v   nofair agg=%9.1f MB/s p99=%10v",
			tenants, fair.Aggregate/1e6, fair.P99().Round(time.Microsecond),
			nofair.Aggregate/1e6, nofair.P99().Round(time.Microsecond))
	}

	// Under-fault panel: rerun the max tenant count with fair admission
	// and the shard supervisor enabled, crash one shard as the first
	// commit wave lands, and measure per-request availability while the
	// supervisor restarts it.
	sess.Tenants, sess.Noisy = scale.Nodes[len(scale.Nodes)-1], false
	load := sess.calibrate(soloP99)
	load.fault = true
	fault, err := sess.run(load)
	if err != nil {
		return nil, fmt.Errorf("ext-service fault n=%d: %w", sess.Tenants, err)
	}
	e.fr.addMetrics("fault", fault.Metrics)
	total := fault.Metrics.Counters["svc.bench.sla_total"]
	avail := 0.0
	if total > 0 {
		avail = float64(fault.Metrics.Counters["svc.bench.sla_ok"]) / float64(total)
	}
	e.point("fault-aggregate", sess.Tenants, fault.Aggregate, "n=%-2d fault agg=%9.1f MB/s avail=%6.2f%% restarts=%d",
		sess.Tenants, fault.Aggregate/1e6, 100*avail, fault.Metrics.Counters["svc.supervisor.restarts"])
	return e.fr, nil
}

// ServiceSession is the shape of one simulated session of the
// checkpoint service (internal/svc): Tenants behaved tenants each commit
// Steps steps of Blocks puts of BlockBytes, then a barrier, through the
// fabric front onto a pool of Shards shards hosted on the simulated
// cluster, each shard's store with a BufferSize-byte memtable.
type ServiceSession struct {
	Shards     int
	Tenants    int
	Steps      int
	Blocks     int
	BlockBytes int64
	BufferSize int
	// Noisy adds a tenant offering un-barriered puts at the advertised
	// service capacity — several times its fair share — for as long as
	// any behaved tenant is still running, retrying quota rejections
	// after the advertised delay.
	Noisy bool
	// Fair turns fair-share admission on.
	Fair bool
	// IOSchedBW, when positive, is the budget in bytes/s of one I/O
	// scheduler that paces every shard's engine I/O and the cluster's
	// scrubber.
	IOSchedBW float64
}

// ServiceResult is what one session measured.
type ServiceResult struct {
	// Solo is the solo probe's p99 step stall (set by Run).
	Solo time.Duration
	// Steps holds each behaved tenant's per-step commit stalls, by
	// tenant name.
	Steps    map[string][]time.Duration
	Makespan time.Duration
	// Aggregate is the behaved tenants' committed bytes per second of
	// makespan.
	Aggregate float64
	Metrics   obs.Snapshot
	// Shards is the supervisor's view of the shards at the end.
	Shards []svc.ShardStatus
}

// P99 is the behaved tenants' p99 step stall over all their steps.
func (r ServiceResult) P99() time.Duration {
	var all []time.Duration
	for _, st := range r.Steps {
		all = append(all, st...)
	}
	return p99(all)
}

// Run calibrates the session on a solo probe — one tenant, no noisy
// neighbor, no admission limits — and then runs it at the calibrated
// load.
func (s ServiceSession) Run() (ServiceResult, error) {
	probe := s
	probe.Tenants, probe.Noisy = 1, false
	solo, err := probe.run(serviceLoad{})
	if err != nil {
		return ServiceResult{}, fmt.Errorf("solo probe: %w", err)
	}
	load := s.calibrate(solo.P99())
	load.adm.Disabled = !s.Fair
	res, err := s.run(load)
	res.Solo = solo.P99()
	return res, err
}

// serviceLoad is the load a session offers.
type serviceLoad struct {
	compute   time.Duration // a behaved tenant's compute time before each step
	adm       svc.AdmissionConfig
	noisyRate float64 // the noisy tenant's offered bytes/s
	// fault supervises the shards, crashes shard 0 mid-run and accounts
	// each request's availability (see run).
	fault bool
}

// calibrate derives the load from the solo probe's p99 stall: a low
// duty cycle keeps the behaved tenants' aggregate demand under the
// pool's capacity, and the advertised service capacity grants every
// tenant (the noisy one included) a fair share of twice its sustained
// demand — enough headroom for bursts, tight enough that the noisy
// tenant's flood hits its quota. MaxWait sits below one block's token
// time at a tenant's share (~0.4× the solo p99), so a tenant pushing
// past its share gets typed QuotaError rejections to back off on, not
// just smoothing delays.
func (s ServiceSession) calibrate(solo time.Duration) serviceLoad {
	compute := svcDutyFactor * solo
	demand := float64(int64(s.Blocks)*s.BlockBytes) / (compute + solo).Seconds()
	capacity := 2 * demand * float64(s.Tenants+1)
	return serviceLoad{
		compute:   compute,
		adm:       svc.AdmissionConfig{CapacityBytesPerSec: capacity, MaxWait: solo / 4},
		noisyRate: capacity,
	}
}

// options is the service both setups open on rtm: s.Shards shards,
// shard i's asynchronous store on shardFS(i) with a bufferSize memtable
// (0: the engine's default), one registry, and one I/O scheduler when
// IOSchedBW is positive.
func (s ServiceSession) options(rtm rt.Runtime, adm svc.AdmissionConfig, bufferSize int, shardFS func(int) vfs.FS) (svc.Options, *iosched.Scheduler) {
	reg := obs.NewRegistryOn(rtm.Now)
	var sched *iosched.Scheduler
	if s.IOSchedBW > 0 {
		sched = iosched.New(iosched.Config{BytesPerSec: s.IOSchedBW, Clock: rtm, Obs: reg})
	}
	return svc.Options{
		Shards: s.Shards,
		OpenShard: func(i int) (*core.Manager, error) {
			return manager(svc.ShardDirName(i), shardFS(i), rtm, bufferSize, reg, sched)
		},
		Runtime:   rtm,
		Obs:       reg,
		Admission: adm,
	}, sched
}

// serviceHost is what a session's setup builds for the body to run on:
// connect opens a tenant's client at a client node, the makespan counts
// from origin, spawn queues a task and wait runs the queued tasks to
// completion and returns their failure; metrics is taken last.
type serviceHost struct {
	rtm     rt.Runtime
	service *svc.Service
	connect func(tenant string, node int) *svc.Client
	origin  time.Duration
	spawn   func(name string, body func() error)
	wait    func() error
	metrics func() (obs.Snapshot, error)
}

// run executes one session at the given load on a fresh simulated
// cluster: the shards live on cluster clients behind the fabric front,
// and the makespan counts from virtual time 0.
func (s ServiceSession) run(load serviceLoad) (ServiceResult, error) {
	clients := s.Tenants + 1 // the last client node hosts the noisy tenant
	r := newSimRun(pfs.VikingConfig(clients + s.Shards))
	opts, sched := s.options(r.rtm, load.adm, s.BufferSize, func(i int) vfs.FS { return r.cluster.Client(clients + i) })
	if sched != nil {
		r.cluster.SetIOScheduler(sched)
	}
	if load.fault {
		opts.Supervisor = svc.SupervisorConfig{RestartBackoff: 500 * time.Microsecond}
	}
	var service *svc.Service
	var front *svc.Front
	r.spawn("svc-setup", func(p *sim.Proc) error {
		var err error
		if service, err = svc.New(opts); err != nil {
			return err
		}
		nodes := make([]int, s.Shards)
		for i := range nodes {
			nodes[i] = clients + i
		}
		front = svc.NewFront(service, r.cluster.Fabric(), nodes, svc.FrontOptions{})
		return nil
	})
	if err := r.run(); err != nil {
		return ServiceResult{}, err
	}
	return s.drive(load, serviceHost{
		rtm: r.rtm, service: service, connect: front.Connect,
		spawn: func(name string, body func() error) { r.spawn(name, func(*sim.Proc) error { return body() }) },
		wait:  r.run,
		metrics: func() (obs.Snapshot, error) {
			return r.cluster.Obs().Snapshot().Merge(opts.Obs.Snapshot()), nil
		},
	})
}

// RunDir runs the session flat out on the real runtime — no solo probe,
// no compute, admission off unless Fair — with in-process tenants and
// the shards (engine-default memtables; BufferSize is the simulator's)
// and SERVICE.json under dir. The makespan counts from the tenants'
// launch. Noisy is simulator-only: the noisy tenant's rate is
// calibrated on a solo probe, which needs a fresh store.
func (s ServiceSession) RunDir(dir string) (ServiceResult, error) {
	if s.Noisy {
		return ServiceResult{}, errors.New("bench: a noisy tenant needs the simulator's calibration probe")
	}
	fs, err := vfs.NewOSFS(dir)
	if err != nil {
		return ServiceResult{}, err
	}
	rtm := rt.Real()
	opts, _ := s.options(rtm, svc.AdmissionConfig{Disabled: !s.Fair}, 0, func(int) vfs.FS { return fs })
	opts.ManifestFS = fs
	service, err := svc.New(opts)
	if err != nil {
		return ServiceResult{}, err
	}
	var tasks []func() error
	return s.drive(serviceLoad{}, serviceHost{
		rtm: rtm, service: service, origin: rtm.Now(),
		connect: func(tenant string, _ int) *svc.Client { return service.Tenant(tenant) },
		spawn:   func(_ string, body func() error) { tasks = append(tasks, body) },
		wait: func() error {
			errs := make([]error, len(tasks))
			rtm.Parallel("svc", len(tasks), func(i int) { errs[i] = tasks[i]() })
			return errors.Join(errs...)
		},
		metrics: func() (obs.Snapshot, error) {
			err := service.Close()
			return opts.Obs.Snapshot(), err
		},
	})
}

// drive registers the tenants and runs the session body on h: the
// behaved tenants, the noisy neighbor and, under fault, the chaos task;
// then it assembles the result. Behaved tenants start staggered across
// one compute period and then alternate compute and a committed step.
//
// Under fault, the shard supervisor runs with a tight restart backoff
// and a chaos task crashes shard 0 in the middle of the first commit
// wave. Tenants retry typed transient failures (ShardDownError while the
// supervisor restarts the shard, quota smoothing, fabric hiccups), and a
// request counts toward availability when it completes within one
// compute period of its first attempt — a latency SLO about 12x the
// solo p99, so only fault-induced stalls miss it. A barrier that reports
// asynchronous write loss makes the tenant replay the whole step,
// mirroring how a real checkpoint client must re-offer data the service
// never made durable.
func (s ServiceSession) drive(load serviceLoad, h serviceHost) (ServiceResult, error) {
	rtm, reg := h.rtm, h.service.Obs()
	stepBytes := int64(s.Blocks) * s.BlockBytes
	// Every tenant gets weight 1 and a burst allowance of one full
	// checkpoint step, so a behaved tenant's commit burst is admitted
	// without delay while a sustained flood runs into its share.
	cfg := svc.TenantConfig{Weight: 1, BurstBytes: float64(stepBytes)}
	for t := 0; t < s.Tenants; t++ {
		if _, err := h.service.RegisterTenant(fmt.Sprintf("tenant%02d", t), cfg); err != nil {
			return ServiceResult{}, err
		}
	}
	if s.Noisy {
		if _, err := h.service.RegisterTenant("noisy", cfg); err != nil {
			return ServiceResult{}, err
		}
	}

	// request issues one request; under fault it retries typed transient
	// failures with a short pause and counts the request as available
	// when it succeeds within the SLO of its first attempt. Write-loss
	// reports are returned to the caller (the step must be replayed, not
	// the barrier); non-typed errors abort the run.
	request := func(op func() error) error { return op() }
	if load.fault {
		slo := load.compute
		slaTotal := reg.Counter("svc.bench.sla_total")
		slaOK := reg.Counter("svc.bench.sla_ok")
		request = func(op func() error) error {
			slaTotal.Inc()
			start := rtm.Now()
			for {
				err := op()
				elapsed := rtm.Now() - start
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
				rtm.Sleep(200 * time.Microsecond)
			}
		}
	}

	// mu guards res and is never held across a blocking call; done
	// counts the behaved tenants that have finished.
	block := make([]byte, s.BlockBytes)
	res := ServiceResult{Steps: make(map[string][]time.Duration, s.Tenants)}
	var mu sync.Mutex
	var done atomic.Int64
	for t := 0; t < s.Tenants; t++ {
		name := fmt.Sprintf("tenant%02d", t)
		h.spawn("svc-"+name, func() error {
			defer done.Add(1)
			c := h.connect(name, t)
			// Stagger starts across one compute period: real jobs do not
			// checkpoint in lockstep, and a synchronized barrier herd
			// would measure queueing the service cannot influence.
			if off := load.compute * time.Duration(t) / time.Duration(s.Tenants); off > 0 {
				rtm.Sleep(off)
			}
			for step := 0; step < s.Steps; step++ {
				if load.compute > 0 {
					rtm.Sleep(load.compute)
				}
				start := rtm.Now()
				for {
					for b := 0; b < s.Blocks; b++ {
						key := fmt.Sprintf("step%03d/block%03d", step, b)
						if err := request(func() error { return c.Put(key, block) }); err != nil {
							return err
						}
					}
					err := request(c.Barrier)
					var wl *svc.WriteLossError
					if load.fault && errors.As(err, &wl) {
						continue
					}
					if err != nil {
						return err
					}
					break
				}
				now := rtm.Now()
				mu.Lock()
				res.Steps[name] = append(res.Steps[name], now-start)
				res.Makespan = max(res.Makespan, now-h.origin)
				mu.Unlock()
			}
			return nil
		})
	}
	if s.Noisy {
		// The noisy tenant paces itself to its offered rate so the
		// no-admission arm models a greedy-but-finite client rather than
		// an unbounded queue.
		gap := time.Duration(float64(s.BlockBytes) / load.noisyRate * float64(time.Second))
		h.spawn("svc-noisy", func() error {
			c := h.connect("noisy", s.Tenants)
			for sent := int64(0); done.Load() < int64(s.Tenants); {
				err := c.Put(fmt.Sprintf("junk%08d", sent), block)
				if qe, ok := err.(*svc.QuotaError); ok {
					rtm.Sleep(qe.RetryAfter)
					continue
				}
				if err != nil {
					return err
				}
				sent += s.BlockBytes
				rtm.Sleep(gap)
			}
			return nil
		})
	}
	if load.fault {
		// The chaos task crashes shard 0 when the staggered commit waves
		// are in full swing (tenant t commits around
		// compute*(1+t/Tenants), so 1.5 compute periods lands
		// mid-spread) and the supervisor must recover it while requests
		// are arriving.
		h.spawn("svc-bench-chaos", func() error {
			rtm.Sleep(load.compute + load.compute/2)
			return h.service.CrashShard(0)
		})
	}
	if err := h.wait(); err != nil {
		return ServiceResult{}, err
	}
	if len(res.Steps) == 0 || res.Makespan <= 0 {
		return ServiceResult{}, fmt.Errorf("bench: service run measured nothing")
	}
	res.Aggregate = float64(s.Tenants) * float64(s.Steps) * float64(stepBytes) / res.Makespan.Seconds()
	res.Shards = h.service.ShardStatuses()
	var err error
	res.Metrics, err = h.metrics()
	return res, err
}

func stepBlockSize(scale Scale) int64 {
	b := scale.PerRankBytes / svcBlocks
	if b <= 0 {
		b = 1
	}
	return b
}
