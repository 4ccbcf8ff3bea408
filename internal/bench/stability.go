package bench

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"lsmio/internal/iosched"
	"lsmio/internal/lsm"
	"lsmio/internal/obs"
	"lsmio/internal/pfs"
	"lsmio/internal/sim"
)

// The ext-stability experiment is the sustained-load A/B for the shared
// I/O bandwidth scheduler (internal/iosched): one foreground committer
// checkpoints continuously on the simulated cluster through three
// workload phases — steady cadence, bursty cadence, and a compaction
// storm (an overwrite-heavy bulk writer plus concurrent scrub repair
// traffic on the same OSTs) — once with the scheduler attached and once
// without, over the same virtual-time span. Periodic obs.Window deltas
// over the run's registry yield per-window throughput and latency
// quantiles, from which the figure reports:
//
//	thru-{on,off}      mean foreground throughput (bytes/s)
//	cov-{on,off}       coefficient of variation of windowed throughput
//	drift-{on,off}     windowed p999 drift (max window p999 / median)
//	stalls-{on,off}    stall episodes (runs of windows below half the
//	                   median windowed throughput)
//	storm-p99-{on,off} storm-phase commit p99, inverted to effective
//	                   bandwidth (value bytes / p99) so ratio checks
//	                   compare latencies the right way up
//
// The checks encode the PR's stability gate: scheduler-on must have
// strictly lower windowed-throughput CoV and p999 drift than
// scheduler-off, cost at most 5% of mean throughput, and improve the
// foreground commit p99 under the compaction storm.
//
// Dimensionless series (cov, drift, stalls) store their value directly
// in the point's BW field — the Nodes axis is a single configuration,
// as in the other custom extension figures.
const (
	stabValueSize = 16 << 10
	stabStripe    = 2
)

// ExtStability is the sustained-load scheduler-stability extension figure.
func ExtStability() Figure {
	f := Figure{
		ID:           "ext-stability",
		Title:        "EXTENSION: sustained-load stability with the shared I/O scheduler",
		Transfers:    []int64{stabValueSize},
		StripeCounts: []int{stabStripe},
		Phase:        PhaseWrite,
		Series: []Series{
			{Name: "thru-on"}, {Name: "thru-off"},
			{Name: "cov-on"}, {Name: "cov-off"},
			{Name: "drift-on"}, {Name: "drift-off"},
			{Name: "stalls-on"}, {Name: "stalls-off"},
			{Name: "storm-p99-on"}, {Name: "storm-p99-off"},
		},
		Checks: []Check{
			{
				Desc:  "windowed throughput CoV strictly lower with the scheduler",
				Ratio: ratioAtMaxNodes("cov-off", stabValueSize, "cov-on", stabValueSize, stabStripe),
				Min:   1.05, Paper: 0,
			},
			{
				Desc:  "windowed p999 drift strictly lower with the scheduler",
				Ratio: ratioAtMaxNodes("drift-off", stabValueSize, "drift-on", stabValueSize, stabStripe),
				Min:   1.02, Paper: 0,
			},
			{
				Desc:  "scheduler costs at most 5% of mean foreground throughput",
				Ratio: ratioAtMaxNodes("thru-on", stabValueSize, "thru-off", stabValueSize, stabStripe),
				Min:   0.95, Paper: 0,
			},
			{
				Desc:  "storm-phase commit p99 improves with the scheduler",
				Ratio: ratioAtMaxNodes("storm-p99-on", stabValueSize, "storm-p99-off", stabValueSize, stabStripe),
				Min:   1.02, Paper: 0,
			},
		},
	}
	f.Custom = runStabilityFigure
	return f
}

// stabStats is one arm's reduced measurement.
type stabStats struct {
	meanBW   float64       // foreground bytes/s over the whole run
	cov      float64       // CoV of windowed throughput
	drift    float64       // max windowed p999 over median windowed p999
	stalls   int           // stall episodes
	stormP99 time.Duration // storm-phase commit p99
	snap     obs.Snapshot  // registry snapshot (engine + iosched + pfs)
}

func runStabilityFigure(f Figure, scale Scale, progress func(string)) (*FigureResult, error) {
	e := newEmitter(f, progress)
	on, err := runStabilityWorkload(scale, true)
	if err != nil {
		return nil, fmt.Errorf("ext-stability sched-on: %w", err)
	}
	off, err := runStabilityWorkload(scale, false)
	if err != nil {
		return nil, fmt.Errorf("ext-stability sched-off: %w", err)
	}
	e.fr.addMetrics("sched-on", on.snap)
	e.fr.addMetrics("sched-off", off.snap)
	for _, m := range []struct {
		series string
		value  float64
	}{
		{"thru-on", on.meanBW}, {"thru-off", off.meanBW},
		{"cov-on", on.cov}, {"cov-off", off.cov},
		{"drift-on", on.drift}, {"drift-off", off.drift},
		{"stalls-on", float64(on.stalls)}, {"stalls-off", float64(off.stalls)},
		{"storm-p99-on", stabValueSize / on.stormP99.Seconds()},
		{"storm-p99-off", stabValueSize / off.stormP99.Seconds()},
	} {
		e.point(m.series, 1, m.value, "%-14s %14.3f", m.series, m.value)
	}
	e.log("storm p99: on=%v off=%v  stalls: on=%d off=%d",
		on.stormP99.Round(time.Microsecond), off.stormP99.Round(time.Microsecond),
		on.stalls, off.stalls)
	return e.fr, nil
}

// stabDurations maps the sweep scale to the run's virtual-time span:
// quick scale runs three 10-second phases (the smoke gate), paper scale
// a full hour of virtual time (three 20-minute phases) with coarser
// windows — the sustained-load mode the figure is named for.
func stabDurations(scale Scale) (phaseDur, winDur time.Duration) {
	if scale.PerRankBytes >= 32<<20 {
		return 20 * time.Minute, 5 * time.Second
	}
	return 10 * time.Second, 500 * time.Millisecond
}

// runStabilityWorkload drives one arm: foreground committer (client 0),
// compaction-storm bulk writer (client 1, final phase only) and two
// scrub sweepers (final phase only), all against one simulated cluster,
// with every I/O consumer drawing from the same scheduler when withSched
// is set. A windower process advances an obs.Window every winDur and the
// per-window deltas become the stability statistics.
func runStabilityWorkload(scale Scale, withSched bool) (stabStats, error) {
	cfg := pfs.Config{
		ComputeNodes:       3,
		NumOSTs:            4,
		NumOSSs:            1,
		DefaultStripeCount: stabStripe,
		DefaultStripeSize:  64 << 10,
		OSTSeqWriteBW:      20e6, // slow OSTs: contention must be visible
	}
	phaseDur, winDur := stabDurations(scale)
	end := 3 * phaseDur
	stormStart := 2 * phaseDur

	s := newSimRun(cfg)
	cluster := s.cluster
	cluster.EnableResilience(pfs.Resilience{Parity: true})

	reg := obs.NewRegistryOn(s.rtm.Now)
	commitBytes := reg.Counter("stab.commit.bytes")
	commitLat := reg.Histogram("stab.commit.lat")

	var sched *iosched.Scheduler
	if withSched {
		// Budget slightly under the device aggregate (4 OSTs × 20 MB/s),
		// so queueing happens at the scheduler — where class priorities
		// apply — instead of at the OSTs, where they cannot.
		sched = iosched.New(iosched.Config{BytesPerSec: 0.75 * 4 * cfg.OSTSeqWriteBW, Clock: s.rtm, Obs: reg})
		cluster.SetIOScheduler(sched)
	}

	// Setup phase: the parity files the storm-phase scrubbers sweep are
	// laid down before measurement starts.
	const scrubbers = 2
	s.spawn("stab-prep", func(p *sim.Proc) error {
		rfs := cluster.ResilientClient(2)
		for i := 0; i < scrubbers; i++ {
			f, err := rfs.CreateStriped(fmt.Sprintf("scrub%d/par.dat", i), stabStripe, 64<<10)
			if err != nil {
				return err
			}
			if _, err := f.Write(bytes.Repeat([]byte{0x5a}, 2<<20)); err != nil {
				return err
			}
			if err := f.Sync(); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	if err := s.run(); err != nil {
		return stabStats{}, err
	}

	lsmOpts := func(client int, buf int) lsm.Options {
		opts := overwriteOptions(cluster.Client(client), s.rtm, 2, buf)
		opts.Obs = reg
		opts.IOSched = sched
		return opts
	}

	// Foreground committer: one value per step, cadence per phase.
	s.spawn("stab-committer", func(p *sim.Proc) error {
		db, err := lsm.Open("fg", lsmOpts(0, 32*stabValueSize))
		if err != nil {
			return err
		}
		payload := make([]byte, stabValueSize-24)
		for i := 0; p.Now().Duration() < end; i++ {
			start := p.Now()
			if err := db.Put([]byte(fmt.Sprintf("step%010d", i)), payload); err != nil {
				return err
			}
			commitLat.ObserveDuration(p.Now().Sub(start))
			commitBytes.Add(stabValueSize)
			now := p.Now().Duration()
			switch {
			case now >= phaseDur && now < stormStart && i%8 == 7:
				// Bursty phase: eight back-to-back commits, then idle.
				p.Sleep(32 * time.Millisecond)
			case now >= phaseDur && now < stormStart:
				p.Sleep(500 * time.Microsecond)
			default:
				// Steady cadence (also used under the storm, so the
				// storm-phase latency shift is workload-for-workload).
				p.Sleep(4 * time.Millisecond)
			}
		}
		if err := db.Flush(); err != nil {
			return err
		}
		if err := db.WaitBackground(); err != nil {
			return err
		}
		return db.Close()
	})

	// Compaction storm: an overwrite-heavy bulk writer with a tiny
	// memtable, switched on for the final phase only.
	s.spawn("stab-storm", func(p *sim.Proc) error {
		p.Sleep(stormStart)
		db, err := lsm.Open("bulk", lsmOpts(1, 8*stabValueSize))
		if err != nil {
			return err
		}
		payload := make([]byte, stabValueSize-24)
		const keyspace = 256 // every key overwritten many times: compaction debt
		for i := 0; p.Now().Duration() < end; i++ {
			if err := db.Put([]byte(fmt.Sprintf("bulk%04d", i%keyspace)), payload); err != nil {
				return err
			}
			p.Sleep(200 * time.Microsecond)
		}
		if err := db.WaitBackground(); err != nil {
			return err
		}
		return db.Close()
	})

	// Scrub repair sweeps beside the storm, drawing from the lowest class.
	s.ranks("stab-scrub", scrubbers, func(p *sim.Proc, i int) error {
		p.Sleep(stormStart)
		rfs := cluster.ResilientClient(2)
		for p.Now().Duration() < end {
			if _, err := rfs.Scrub(fmt.Sprintf("scrub%d", i)); err != nil {
				return err
			}
		}
		return nil
	})

	// Windower: periodic delta snapshots — the satellite's windowed views
	// in action. Each window's committer bytes and latency histogram feed
	// the CoV / drift / stall statistics below.
	type window struct {
		endT  time.Duration
		delta obs.Snapshot
	}
	var wins []window
	s.spawn("stab-windows", func(p *sim.Proc) error {
		w := obs.NewWindow(reg)
		for p.Now().Duration() < end {
			p.Sleep(winDur)
			wins = append(wins, window{endT: p.Now().Duration(), delta: w.Advance()})
		}
		return nil
	})

	if err := s.run(); err != nil {
		return stabStats{}, err
	}
	if len(wins) < 6 {
		return stabStats{}, fmt.Errorf("ext-stability: only %d windows measured", len(wins))
	}

	// Reduce the windows to the arm's statistics.
	var st stabStats
	perWin := make([]float64, len(wins))
	var total float64
	for i, w := range wins {
		perWin[i] = float64(w.delta.Counters["stab.commit.bytes"])
		total += perWin[i]
	}
	st.meanBW = total / end.Seconds()
	mean := total / float64(len(perWin))
	var variance float64
	for _, v := range perWin {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(len(perWin))
	if mean > 0 {
		st.cov = math.Sqrt(variance) / mean
	}

	// Stall episodes: contiguous runs of windows below half the median
	// windowed throughput.
	sorted := append([]float64(nil), perWin...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	inStall := false
	for _, v := range perWin {
		if v < median/2 {
			if !inStall {
				st.stalls++
			}
			inStall = true
		} else {
			inStall = false
		}
	}

	// p999 drift: max windowed p999 over the median, across windows with
	// enough samples for the quantile to mean anything.
	var p999s []float64
	var stormSnap obs.Snapshot
	stormMerged := false
	for _, w := range wins {
		if h, ok := w.delta.Hists["stab.commit.lat"]; ok && h.Count >= 8 {
			p999s = append(p999s, float64(h.Quantile(0.999)))
		}
		if w.endT > stormStart {
			if !stormMerged {
				stormSnap, stormMerged = w.delta, true
			} else {
				stormSnap = stormSnap.Merge(w.delta)
			}
		}
	}
	if len(p999s) < 4 {
		return stabStats{}, fmt.Errorf("ext-stability: only %d windows carried latency samples", len(p999s))
	}
	sort.Float64s(p999s)
	if med := p999s[len(p999s)/2]; med > 0 {
		st.drift = p999s[len(p999s)-1] / med
	}

	if !stormMerged {
		return stabStats{}, fmt.Errorf("ext-stability: no storm-phase windows measured")
	}
	stormHist, ok := stormSnap.Hists["stab.commit.lat"]
	if !ok || stormHist.Count == 0 {
		return stabStats{}, fmt.Errorf("ext-stability: no storm-phase commits measured")
	}
	st.stormP99 = time.Duration(stormHist.Quantile(0.99))
	if st.stormP99 <= 0 {
		return stabStats{}, fmt.Errorf("ext-stability: zero storm-phase p99")
	}

	st.snap = reg.Snapshot().Merge(cluster.Obs().Snapshot())
	return st, nil
}
