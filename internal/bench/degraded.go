package bench

import (
	"fmt"
	"time"

	"lsmio/ckpt"
	"lsmio/internal/core"
	"lsmio/internal/obs"
	"lsmio/internal/pfs"
	"lsmio/internal/resil"
	"lsmio/internal/sim"
)

// The ext-degraded experiment measures the checkpoint write path when
// the PFS itself degrades — the failure modes the resilience layer
// (parity striping, hedged writes, the per-OST breaker) exists for.
// Every rank checkpoints through a parity-striped resilient client
// under four regimes:
//
//	healthy        all OSTs healthy (hedging armed but idle)
//	dead-1         one OST fail-stops mid-run; parity absorbs it and
//	               the run validates RestoreLatest + a scrub rebuild
//	slow-1         one OST serves 10× slow; hedged writes redirect
//	slow-1-nohedge the same straggler with hedging disabled
//
// All series are effective bandwidths (bytes moved per second of the
// metric) so the harness's ratio checks compare latencies inverted:
// the four above invert end-to-end completion time, and the two
// `-p99` series invert the p99 per-step commit stall.
const (
	degradedSteps    = 4  // checkpoint steps per rank
	degradedVars     = 4  // variables per step
	degradedVictim   = 0  // the OST that dies or slows
	degradedSlowdown = 10 // service-time multiplier for the slow OST
)

// ExtDegraded is the degraded-mode striping extension experiment.
func ExtDegraded() Figure {
	f := Figure{
		ID:        "ext-degraded",
		Title:     "EXTENSION: checkpoint writes under dead and slow OSTs (parity + hedging)",
		Transfers: []int64{kb64},
		Phase:     PhaseWrite,
		Series: []Series{
			{Name: "healthy"},
			{Name: "dead-1"},
			{Name: "slow-1"},
			{Name: "slow-1-nohedge"},
			{Name: "healthy-p99"},
			{Name: "slow-1-p99"},
		},
		Checks: []Check{
			{
				Desc:  "parity keeps commits flowing with one OST dead: dead-1 over healthy at max nodes",
				Ratio: ratioAtMaxNodes("dead-1", kb64, "healthy", kb64, 4),
				Min:   0.4, Paper: 0,
			},
			{
				Desc:  "hedged writes beat unhedged under one 10x-slow OST at max nodes",
				Ratio: ratioAtMaxNodes("slow-1", kb64, "slow-1-nohedge", kb64, 4),
				Min:   1.15, Paper: 0,
			},
			{
				Desc:  "hedging keeps p99 commit within 2x of healthy under one slow OST",
				Ratio: ratioAtMaxNodes("slow-1-p99", kb64, "healthy-p99", kb64, 4),
				Min:   0.5, Paper: 0,
			},
		},
	}
	f.Custom = runDegradedFigure
	return f
}

// degradedMode is one health regime of the sweep.
type degradedMode struct {
	name  string
	dead  bool // fail-stop the victim mid-run, then validate recovery
	slow  bool // degrade the victim before the run starts
	hedge bool
}

func runDegradedFigure(f Figure, scale Scale, progress func(string)) (*FigureResult, error) {
	e := newEmitter(f, progress)
	modes := []degradedMode{
		{name: "healthy", hedge: true},
		{name: "dead-1", dead: true, hedge: true},
		{name: "slow-1", slow: true, hedge: true},
		{name: "slow-1-nohedge", slow: true},
	}
	for _, nodes := range scale.Nodes {
		for _, m := range modes {
			total, p99, snap, err := runDegradedMode(nodes, scale, m)
			if err != nil {
				return nil, fmt.Errorf("ext-degraded %s n=%d: %w", m.name, nodes, err)
			}
			e.fr.addMetrics(m.name, snap)
			if total <= 0 || p99 <= 0 {
				return nil, fmt.Errorf("ext-degraded %s n=%d: zero latency", m.name, nodes)
			}
			bytes := float64(int64(nodes) * scale.PerRankBytes * degradedSteps)
			e.point(m.name, nodes, bytes/total.Seconds(), "%-14s n=%-2d  %10v  (%9.1f MB/s effective)",
				m.name, nodes, total.Round(time.Microsecond), bytes/total.Seconds()/1e6)
			if m.name == "healthy" || m.name == "slow-1" {
				e.point(m.name+"-p99", nodes, float64(scale.PerRankBytes)/p99.Seconds(), "%-14s n=%-2d  %10v  (p99 commit)",
					m.name+"-p99", nodes, p99.Round(time.Microsecond))
			}
		}
	}
	return e.fr, nil
}

// degradedClusterConfig shrinks the Viking cluster so one OST is a
// meaningful fraction of capacity, and tightens the write-back window
// so service-time differences (the thing hedging attacks) dominate
// commit latency instead of being absorbed by dirty-lag slack.
func degradedClusterConfig(nodes int) pfs.Config {
	cfg := pfs.VikingConfig(nodes)
	cfg.NumOSTs = 10
	cfg.MaxDirtyLag = 4 * time.Millisecond
	return cfg
}

// runDegradedMode runs one regime at one node count and returns the
// end-to-end completion time and the p99 per-step commit stall across
// all ranks. In dead mode it also validates the recovery story:
// RestoreLatest on every rank's store (degraded reads), a scrub that
// rebuilds the lost stripes onto spares, and a clean re-read after.
func runDegradedMode(nodes int, scale Scale, m degradedMode) (time.Duration, time.Duration, obs.Snapshot, error) {
	s := newSimRun(degradedClusterConfig(nodes))
	defer s.close()
	cluster := s.cluster
	cluster.EnableResilience(pfs.Resilience{
		Hedge:  m.hedge,
		Parity: true,
		// The slow regimes compare hedging against no mitigation at all,
		// so the breaker's slow-trip (which would re-stripe around the
		// straggler in both runs) is disabled; error tripping stays.
		Tracker: resil.Options{SlowStrikes: 1 << 30},
	})
	if m.slow {
		cluster.SetOSTHealth(degradedVictim, pfs.OSTDegraded, degradedSlowdown)
	}

	mgrs := make([]*core.Manager, nodes)
	stores := make([]*ckpt.Store, nodes)
	var commits []time.Duration
	var total time.Duration
	s.ranks("deg-rank", nodes, func(p *sim.Proc, r int) error {
		mgr, err := manager(fmt.Sprintf("deg/rank%03d", r), cluster.ResilientClient(r), s.rtm, scale.BufferSize, nil, nil)
		if err != nil {
			return err
		}
		mgrs[r] = mgr
		stores[r] = ckpt.New(mgr, ckpt.Options{})
		for step := int64(1); step <= degradedSteps; step++ {
			start := p.Now()
			if err := writeStep(stores[r], step, degradedVars, scale.PerRankBytes); err != nil {
				return fmt.Errorf("rank %d step %d: %w", r, step, err)
			}
			commits = append(commits, p.Now().Sub(start))
			if m.dead && r == 0 && step == degradedSteps/2 {
				cluster.SetOSTHealth(degradedVictim, pfs.OSTDead, 0)
			}
		}
		if end := p.Now().Duration(); end > total {
			total = end
		}
		return nil
	})
	if err := s.run(); err != nil {
		return 0, 0, obs.Snapshot{}, err
	}
	// Snapshot the measured window before validation/teardown I/O runs.
	snap := cluster.Obs().Snapshot()

	// Validation and teardown run in a second simulation pass so they
	// never pollute the measured window.
	s.spawn("deg-validate", func(p *sim.Proc) error {
		if m.dead {
			if err := validateDegradedRecovery(cluster, stores, scale); err != nil {
				return err
			}
		}
		return closeAll(mgrs)
	})
	if err := s.run(); err != nil {
		return 0, 0, obs.Snapshot{}, err
	}
	return total, p99(commits), snap, nil
}

// validateDegradedRecovery proves the dead-OST run is not just fast but
// correct: every rank restores its last step through degraded reads, a
// scrub rebuilds all lost stripes onto spares with nothing
// unrecoverable, and the rebuilt files read back clean.
func validateDegradedRecovery(cluster *pfs.Cluster, stores []*ckpt.Store, scale Scale) error {
	for r, store := range stores {
		if err := checkDegradedRestore(store, r, scale); err != nil {
			return err
		}
	}
	rep, err := cluster.ResilientClient(0).Scrub("deg")
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if rep.Unrecoverable != 0 {
		return fmt.Errorf("scrub left %d units unrecoverable (report %+v)", rep.Unrecoverable, rep)
	}
	if rep.Repaired == 0 {
		return fmt.Errorf("dead OST left nothing to rebuild — victim held no data (report %+v)", rep)
	}
	// After the rebuild the stores must still restore, now off spares.
	return checkDegradedRestore(stores[0], 0, scale)
}

func checkDegradedRestore(store *ckpt.Store, rank int, scale Scale) error {
	step, state, err := store.RestoreLatest()
	if err != nil {
		return fmt.Errorf("rank %d restore: %w", rank, err)
	}
	return checkStep(rank, step, degradedSteps, state, degradedVars, scale.PerRankBytes)
}
