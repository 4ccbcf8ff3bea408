package bench

import (
	"fmt"
	"time"

	"lsmio/ckpt"
	"lsmio/internal/core"
	"lsmio/internal/obs"
	"lsmio/internal/pfs"
	"lsmio/internal/sim"
)

// The ext-restore experiment measures the READ side of checkpointing:
// every rank restores its newest step through the self-healing restore
// pipeline, and the figure plots effective restore bandwidth vs nodes
// under four regimes:
//
//	serial     healthy PFS, one reader per rank (the pre-pipeline path)
//	parallel-4 healthy PFS, four shard-parallel readers per rank
//	dead-1     one OST fail-stopped before the restore; parity
//	           reconstruction serves degraded reads, four readers
//	delta-4    four readers with half of each rank's variables already
//	           present in a local snapshot (incremental restore)
//
// Each rank's manager records into the cluster's shared obs registry,
// so the per-regime metrics snapshots embed the ckpt restore latency
// histogram (p50/p99) next to the pfs counters.
const (
	restoreSteps  = 2 // committed steps per rank; restore reads the newest
	restoreVars   = 8 // variables per step (the unit of read parallelism)
	restoreVictim = 0 // the OST that dies in dead-1
)

// ExtRestore is the parallel verified-restore extension experiment.
func ExtRestore() Figure {
	f := Figure{
		ID:        "ext-restore",
		Title:     "EXTENSION: restore bandwidth, healthy vs one OST dead (parallel verified reads)",
		Transfers: []int64{kb64},
		Phase:     PhaseRead,
		Series: []Series{
			{Name: "serial"},
			{Name: "parallel-4"},
			{Name: "dead-1"},
			{Name: "delta-4"},
		},
		Checks: []Check{
			{
				// Measured at the smallest node count: with many ranks
				// restoring at once, cross-rank concurrency already
				// saturates the OSTs and per-rank reader parallelism is
				// (correctly) marginal; uncontended is where the worker
				// pool itself is visible.
				Desc: "parallel restore beats serial at 4 readers (min nodes)",
				Ratio: func(fr *FigureResult) (float64, error) {
					n := fr.Points[0].Nodes
					num, err := fr.BW("parallel-4", kb64, 4, n)
					if err != nil {
						return 0, err
					}
					den, err := fr.BW("serial", kb64, 4, n)
					if err != nil {
						return 0, err
					}
					if den == 0 {
						return 0, fmt.Errorf("bench: zero serial restore bandwidth")
					}
					return num / den, nil
				},
				Min: 1.3, Paper: 0,
			},
			{
				Desc:  "parity keeps restores flowing with one OST dead: dead-1 over parallel-4 at max nodes",
				Ratio: ratioAtMaxNodes("dead-1", kb64, "parallel-4", kb64, 4),
				Min:   0.4, Paper: 0,
			},
			{
				Desc:  "delta restore at least matches a full parallel restore (max nodes)",
				Ratio: ratioAtMaxNodes("delta-4", kb64, "parallel-4", kb64, 4),
				Min:   1.0, Paper: 0,
			},
		},
	}
	f.Custom = runRestoreFigure
	return f
}

// restoreMode is one regime of the sweep.
type restoreMode struct {
	name     string
	parallel int
	dead     bool // fail-stop the victim between write and restore
	delta    bool // prime half the variables in a local snapshot
}

func runRestoreFigure(f Figure, scale Scale, progress func(string)) (*FigureResult, error) {
	e := newEmitter(f, progress)
	modes := []restoreMode{
		{name: "serial", parallel: 1},
		{name: "parallel-4", parallel: 4},
		{name: "dead-1", parallel: 4, dead: true},
		{name: "delta-4", parallel: 4, delta: true},
	}
	for _, nodes := range scale.Nodes {
		for _, m := range modes {
			elapsed, snap, err := runRestoreMode(nodes, scale, m)
			if err != nil {
				return nil, fmt.Errorf("ext-restore %s n=%d: %w", m.name, nodes, err)
			}
			e.fr.addMetrics(m.name, snap)
			if elapsed <= 0 {
				return nil, fmt.Errorf("ext-restore %s n=%d: zero restore time", m.name, nodes)
			}
			bytes := float64(int64(nodes) * scale.PerRankBytes)
			e.point(m.name, nodes, bytes/elapsed.Seconds(), "%-11s n=%-2d  %10v  (%9.1f MB/s effective)",
				m.name, nodes, elapsed.Round(time.Microsecond), bytes/elapsed.Seconds()/1e6)
		}
	}
	return e.fr, nil
}

// runRestoreMode writes restoreSteps checkpoints per rank, optionally
// kills an OST, then restores every rank's newest step through the
// pipeline and returns the restore phase's virtual elapsed time plus a
// metrics snapshot (pfs + ckpt restore latency quantiles).
func runRestoreMode(nodes int, scale Scale, m restoreMode) (time.Duration, obs.Snapshot, error) {
	s := newSimRun(degradedClusterConfig(nodes))
	cluster := s.cluster
	cluster.EnableResilience(pfs.Resilience{Hedge: true, Parity: true})

	mgrs := make([]*core.Manager, nodes)
	stores := make([]*ckpt.Store, nodes)
	s.ranks("res-write", nodes, func(p *sim.Proc, r int) error {
		mgr, err := manager(fmt.Sprintf("res/rank%03d", r), cluster.ResilientClient(r), s.rtm, scale.BufferSize, cluster.Obs(), nil)
		if err != nil {
			return err
		}
		mgrs[r] = mgr
		stores[r] = ckpt.New(mgr, ckpt.Options{})
		for step := int64(1); step <= restoreSteps; step++ {
			if err := writeStep(stores[r], step, restoreVars, scale.PerRankBytes); err != nil {
				return err
			}
		}
		return nil
	})
	if err := s.run(); err != nil {
		return 0, obs.Snapshot{}, err
	}

	if m.dead {
		cluster.SetOSTHealth(restoreVictim, pfs.OSTDead, 0)
	}

	// Restore phase: measured from here to the last rank's completion.
	base := s.k.Now().Duration()
	var latest time.Duration
	s.ranks("res-restore", nodes, func(p *sim.Proc, r int) error {
		opts := ckpt.RestoreOptions{Parallel: m.parallel}
		if m.delta {
			opts.Local = make(map[string][]byte, restoreVars/2)
			for v := 0; v < restoreVars/2; v++ {
				opts.Local[fmt.Sprintf("var%02d", v)] =
					stepPayload(restoreSteps, v, scale.PerRankBytes/restoreVars)
			}
		}
		step, state, rep, err := stores[r].Restore(opts)
		if err != nil {
			return fmt.Errorf("rank %d restore: %w", r, err)
		}
		if err := checkStep(r, step, restoreSteps, state, restoreVars, scale.PerRankBytes); err != nil {
			return err
		}
		if m.delta && rep.DeltaVars != restoreVars/2 {
			return fmt.Errorf("rank %d delta reuse: %d vars, want %d", r, rep.DeltaVars, restoreVars/2)
		}
		if end := p.Now().Duration(); end > latest {
			latest = end
		}
		return nil
	})
	if err := s.run(); err != nil {
		return 0, obs.Snapshot{}, err
	}
	snap := cluster.Obs().Snapshot()

	s.spawn("res-close", func(p *sim.Proc) error { return closeAll(mgrs) })
	if err := s.run(); err != nil {
		return 0, obs.Snapshot{}, err
	}
	return latest - base, snap, nil
}
