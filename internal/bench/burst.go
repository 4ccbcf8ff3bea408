package bench

import (
	"fmt"
	"time"

	"lsmio/ckpt"
	"lsmio/internal/burst"
	"lsmio/internal/core"
	"lsmio/internal/obs"
	"lsmio/internal/pfs"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

// The ext-burst experiment drives the ckpt layer directly instead of
// IOR: every rank checkpoints through a direct PFS-backed store
// (synchronous commit) and through a burst-buffer staging tier with a
// background drain, under an identical compute/checkpoint cadence. Four
// series result, all expressed as effective bandwidth (bytes moved per
// second of the series' latency metric) so the harness's ratio checks
// compare latencies inverted:
//
//	sync          per-rank time blocked in synchronous Commit
//	sync-total    end-to-end time of the synchronous run
//	burst-staged  per-rank time blocked in staged Commit
//	burst-durable end-to-end time until the tier reports durable
const (
	burstSteps = 2 // checkpoint steps per rank
	burstVars  = 8 // variables per step
)

// ExtBurst is the burst-buffer staging extension experiment.
func ExtBurst() Figure {
	f := Figure{
		ID:        "ext-burst",
		Title:     "EXTENSION: synchronous commit vs burst-buffer staging with async drain",
		Transfers: []int64{kb64},
		Phase:     PhaseWrite,
		Series: []Series{
			{Name: "sync"},
			{Name: "sync-total"},
			{Name: "burst-staged"},
			{Name: "burst-durable"},
		},
		Checks: []Check{
			{
				Desc:  "staged commit stall ≥5× lower than synchronous commit at max nodes",
				Ratio: ratioAtMaxNodes("burst-staged", kb64, "sync", kb64, 4),
				Min:   5, Paper: 0,
			},
			{
				Desc:  "time-to-durable within ~1.2× of the synchronous total at max nodes",
				Ratio: ratioAtMaxNodes("burst-durable", kb64, "sync-total", kb64, 4),
				Min:   1.0 / 1.2, Paper: 0,
			},
		},
	}
	f.Custom = runBurstFigure
	return f
}

func runBurstFigure(f Figure, scale Scale, progress func(string)) (*FigureResult, error) {
	e := newEmitter(f, progress)
	for _, nodes := range scale.Nodes {
		// Calibrate the compute phase per node count: 1.2× the probe's
		// per-step synchronous stall, so compute roughly covers a
		// step's drain and the overlap claim is actually exercised.
		probeStall, _, _, err := runBurstSync(nodes, scale, 0)
		if err != nil {
			return nil, fmt.Errorf("ext-burst probe n=%d: %w", nodes, err)
		}
		compute := time.Duration(1.2 * float64(probeStall) / burstSteps)

		syncStall, syncTotal, syncSnap, err := runBurstSync(nodes, scale, compute)
		if err != nil {
			return nil, fmt.Errorf("ext-burst sync n=%d: %w", nodes, err)
		}
		stagedStall, durableTotal, stagedSnap, err := runBurstStaged(nodes, scale, compute)
		if err != nil {
			return nil, fmt.Errorf("ext-burst staged n=%d: %w", nodes, err)
		}
		e.fr.addMetrics("sync", syncSnap)
		e.fr.addMetrics("burst", stagedSnap)

		bytes := float64(int64(nodes) * scale.PerRankBytes * burstSteps)
		for _, m := range []struct {
			series string
			d      time.Duration
		}{
			{"sync", syncStall},
			{"sync-total", syncTotal},
			{"burst-staged", stagedStall},
			{"burst-durable", durableTotal},
		} {
			if m.d <= 0 {
				return nil, fmt.Errorf("ext-burst %s n=%d: zero latency", m.series, nodes)
			}
			e.point(m.series, nodes, bytes/m.d.Seconds(), "%-13s n=%-2d  %10v  (%9.1f MB/s effective)",
				m.series, nodes, m.d.Round(time.Microsecond), bytes/m.d.Seconds()/1e6)
		}
	}
	return e.fr, nil
}

// burstRank runs one rank's checkpoint cadence through tp — compute,
// then burstVars variables written and committed, burstSteps times —
// and returns the time the rank was blocked in writes and commits.
func burstRank(p *sim.Proc, tp ckpt.TwoPhase, perRank int64, compute time.Duration) (time.Duration, error) {
	payload := make([]byte, perRank/burstVars)
	var stalled time.Duration
	for step := int64(1); step <= burstSteps; step++ {
		if compute > 0 {
			p.Sleep(compute)
		}
		start := p.Now()
		w, err := tp.Begin(step)
		if err != nil {
			return 0, err
		}
		for v := 0; v < burstVars; v++ {
			if err := w.Write(fmt.Sprintf("var%02d", v), payload); err != nil {
				return 0, err
			}
		}
		if err := w.Commit(); err != nil {
			return 0, err
		}
		stalled += p.Now().Sub(start)
	}
	return stalled, nil
}

// runBurstSync runs the synchronous baseline: every rank checkpoints
// straight into a PFS-backed store. Returns the worst rank's summed
// commit stall, the end-to-end completion time and the cluster's
// registry snapshot.
func runBurstSync(nodes int, scale Scale, compute time.Duration) (time.Duration, time.Duration, obs.Snapshot, error) {
	s := newSimRun(pfs.VikingConfig(nodes))
	defer s.close()
	stalls := make([]time.Duration, nodes)
	var total time.Duration
	s.ranks("sync-rank", nodes, func(p *sim.Proc, r int) error {
		mgr, err := manager(fmt.Sprintf("sync/rank%03d", r), s.cluster.Client(r), s.rtm, scale.BufferSize, nil, nil)
		if err != nil {
			return err
		}
		if stalls[r], err = burstRank(p, ckpt.Direct{Store: ckpt.New(mgr, ckpt.Options{})}, scale.PerRankBytes, compute); err != nil {
			return err
		}
		if end := p.Now().Duration(); end > total {
			total = end
		}
		return mgr.Close()
	})
	if err := s.run(); err != nil {
		return 0, 0, obs.Snapshot{}, err
	}
	return maxDuration(stalls), total, s.cluster.Obs().Snapshot(), nil
}

// runBurstStaged runs the staging tier: every rank checkpoints into an
// in-memory staging store, and a background worker drains to the same
// PFS-backed store the sync run used. Returns the worst rank's summed
// staged-commit stall, the time the last rank reached durable and the
// run's registry snapshot (the cluster's `pfs.*` instruments merged
// with the ranks' shared `burst.*` tier instruments).
func runBurstStaged(nodes int, scale Scale, compute time.Duration) (time.Duration, time.Duration, obs.Snapshot, error) {
	s := newSimRun(pfs.VikingConfig(nodes))
	defer s.close()
	// One registry shared by every rank's tier, so the drain counters and
	// lag histogram aggregate across the whole run.
	tierReg := obs.NewRegistryOn(s.rtm.Now)
	stalls := make([]time.Duration, nodes)
	var durable time.Duration
	s.ranks("burst-rank", nodes, func(p *sim.Proc, r int) error {
		smgr, err := core.NewManager(fmt.Sprintf("stage/rank%03d", r), core.ManagerOptions{
			Store: core.StoreOptions{
				FS:              vfs.NewMemFS(),
				WriteBufferSize: scale.BufferSize,
			},
			Runtime: s.rtm,
		})
		if err != nil {
			return err
		}
		dmgr, err := manager(fmt.Sprintf("burst/rank%03d", r), s.cluster.Client(r), s.rtm, scale.BufferSize, nil, nil)
		if err != nil {
			return err
		}
		tier := burst.New(
			ckpt.New(smgr, ckpt.Options{}),
			ckpt.New(dmgr, ckpt.Options{}),
			burst.Options{StagingBudget: 4 * scale.PerRankBytes, Runtime: s.rtm, Obs: tierReg},
		)
		tier.StartWorker()
		if stalls[r], err = burstRank(p, tier.TwoPhase(), scale.PerRankBytes, compute); err != nil {
			return err
		}
		if err := tier.Sync(); err != nil {
			return err
		}
		if end := p.Now().Duration(); end > durable {
			durable = end
		}
		if err := tier.Close(); err != nil {
			return err
		}
		if err := smgr.Close(); err != nil {
			return err
		}
		return dmgr.Close()
	})
	if err := s.run(); err != nil {
		return 0, 0, obs.Snapshot{}, err
	}
	return maxDuration(stalls), durable, s.cluster.Obs().Snapshot().Merge(tierReg.Snapshot()), nil
}

func maxDuration(ds []time.Duration) time.Duration {
	var max time.Duration
	for _, d := range ds {
		if d > max {
			max = d
		}
	}
	return max
}
