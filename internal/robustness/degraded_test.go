package robustness

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"lsmio/ckpt"
	"lsmio/internal/burst"
	"lsmio/internal/core"
	"lsmio/internal/faultfs"
	"lsmio/internal/obs"
	"lsmio/internal/obs/obstest"
	"lsmio/internal/pfs"
	"lsmio/internal/resil"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

// degraded_test.go proves the degraded-mode striping story end-to-end
// through the real checkpoint stack (ckpt → LSM → resilient PFS
// client): commits keep succeeding with an OST fail-stopped mid-run,
// restores verify through parity reconstruction, the scrubber rebuilds
// everything the dead OST held, hedged writes bound the tail with a
// straggler OST, and the burst drain classifies its failures.

const (
	degRanks   = 4
	degSteps   = 4
	degVars    = 4
	degPerRank = 1 << 20
	degVictim  = 0
)

// degClusterConfig mirrors the ext-degraded bench cluster: small enough
// that one OST matters, write-back window tight enough that service
// time (what hedging attacks) dominates commit latency.
func degClusterConfig() pfs.Config {
	cfg := pfs.VikingConfig(degRanks)
	cfg.NumOSTs = 10
	cfg.MaxDirtyLag = 4 * time.Millisecond
	return cfg
}

func degPayload(step int64, v int, n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int64(i) + step*31 + int64(v)*7)
	}
	return b
}

// degRun holds one simulated multi-rank checkpoint run's outcome.
type degRun struct {
	cluster *pfs.Cluster
	kernel  *sim.Kernel
	mgrs    []*core.Manager
	stores  []*ckpt.Store
	commits []time.Duration
}

// runDegradedCheckpoints drives degRanks ranks through degSteps
// parity-striped checkpoint steps each. slowFactor > 1 degrades the
// victim OST before the run; killMidRun fail-stops it after rank 0's
// mid-run commit. Managers are left open for validation; close with
// r.shutdown.
func runDegradedCheckpoints(t *testing.T, hedge bool, slowFactor float64, killMidRun bool) *degRun {
	t.Helper()
	k := sim.NewKernel()
	rtm := rt.Sim(k)
	cluster := pfs.NewCluster(k, degClusterConfig())
	dumpTraceOnFailure(t, "", cluster.Obs())
	cluster.EnableResilience(pfs.Resilience{
		Hedge:  hedge,
		Parity: true,
		// Isolate hedging from the breaker's slow-trip mitigation.
		Tracker: resil.Options{SlowStrikes: 1 << 30},
	})
	if slowFactor > 1 {
		cluster.SetOSTHealth(degVictim, pfs.OSTDegraded, slowFactor)
	}
	r := &degRun{
		cluster: cluster,
		kernel:  k,
		mgrs:    make([]*core.Manager, degRanks),
		stores:  make([]*ckpt.Store, degRanks),
	}
	errs := make([]error, degRanks)
	for rank := 0; rank < degRanks; rank++ {
		rank := rank
		k.Spawn(fmt.Sprintf("deg-rank%02d", rank), func(p *sim.Proc) {
			errs[rank] = func() error {
				mgr, err := core.NewManager(fmt.Sprintf("deg/rank%03d", rank), core.ManagerOptions{
					Store: core.StoreOptions{
						FS:              cluster.ResilientClient(rank),
						Async:           true,
						WriteBufferSize: 256 << 10,
					},
					Runtime: rtm,
				})
				if err != nil {
					return err
				}
				r.mgrs[rank] = mgr
				r.stores[rank] = ckpt.New(mgr, ckpt.Options{})
				tp := ckpt.Direct{Store: r.stores[rank]}
				for step := int64(1); step <= degSteps; step++ {
					start := p.Now()
					w, err := tp.Begin(step)
					if err != nil {
						return fmt.Errorf("rank %d begin %d: %w", rank, step, err)
					}
					for v := 0; v < degVars; v++ {
						if err := w.Write(fmt.Sprintf("var%02d", v), degPayload(step, v, degPerRank/degVars)); err != nil {
							return fmt.Errorf("rank %d write %d: %w", rank, step, err)
						}
					}
					if err := w.Commit(); err != nil {
						return fmt.Errorf("rank %d commit %d: %w", rank, step, err)
					}
					r.commits = append(r.commits, p.Now().Sub(start))
					if killMidRun && rank == 0 && step == degSteps/2 {
						cluster.SetOSTHealth(degVictim, pfs.OSTDead, 0)
					}
				}
				return nil
			}()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return r
}

// inSim runs fn inside a fresh simulation pass on the run's kernel (the
// cluster charges I/O to the calling process, so validation needs one).
func (r *degRun) inSim(t *testing.T, name string, fn func() error) {
	t.Helper()
	var err error
	r.kernel.Spawn(name, func(*sim.Proc) { err = fn() })
	if rerr := r.kernel.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func (r *degRun) shutdown(t *testing.T) {
	t.Helper()
	r.inSim(t, "deg-close", func() error {
		for _, mgr := range r.mgrs {
			if mgr == nil {
				continue
			}
			if err := mgr.Close(); err != nil {
				return err
			}
		}
		return nil
	})
}

func checkRestored(step int64, state map[string][]byte) error {
	if step != degSteps {
		return fmt.Errorf("restored step %d, want %d", step, degSteps)
	}
	for v := 0; v < degVars; v++ {
		name := fmt.Sprintf("var%02d", v)
		if !bytes.Equal(state[name], degPayload(step, v, degPerRank/degVars)) {
			return fmt.Errorf("step %d %s corrupted", step, name)
		}
	}
	return nil
}

func p99(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(0.99*float64(len(s)-1)+0.5)]
}

// TestDegradedDeadOSTMidRun fail-stops an OST in the middle of a
// multi-rank checkpoint run: every later commit must succeed (parity
// absorbs the dead member), every rank must restore its final step
// complete and verified through degraded reads, and one scrub pass must
// rebuild everything the dead OST held onto spares — after which
// restores no longer need reconstruction.
func TestDegradedDeadOSTMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank degradation simulation skipped in -short mode")
	}
	r := runDegradedCheckpoints(t, true, 0, true)

	// Complete, verified restore on every rank while the OST is dead —
	// and every earlier step (whose SSTs predate the kill and so live on
	// layouts including the dead member) still reads back verified
	// through parity reconstruction.
	r.inSim(t, "deg-restore", func() error {
		for rank, store := range r.stores {
			step, state, err := store.RestoreLatest()
			if err != nil {
				return fmt.Errorf("rank %d restore with dead OST: %w", rank, err)
			}
			if err := checkRestored(step, state); err != nil {
				return fmt.Errorf("rank %d: %w", rank, err)
			}
			for s := int64(1); s < degSteps; s++ {
				if err := store.Verify(s); err != nil {
					return fmt.Errorf("rank %d step %d unverifiable with dead OST: %w", rank, s, err)
				}
			}
		}
		return nil
	})
	if obstest.Counter(t, r.cluster.Obs(), "pfs.parity.lost_stripe_writes") == 0 {
		t.Fatal("no writes were absorbed by parity — the dead OST was never hit")
	}
	if obstest.Counter(t, r.cluster.Obs(), "pfs.degraded.reads") == 0 {
		t.Fatal("restore never used parity reconstruction")
	}

	// The scrubber rebuilds every lost stripe; nothing is unrecoverable.
	var rep pfs.ScrubReport
	r.inSim(t, "deg-scrub", func() error {
		var err error
		rep, err = r.cluster.ResilientClient(0).Scrub("deg")
		return err
	})
	if rep.Unrecoverable != 0 {
		t.Fatalf("scrub left %d units unrecoverable: %+v", rep.Unrecoverable, rep)
	}
	if rep.Repaired == 0 {
		t.Fatalf("scrub rebuilt nothing despite a dead member: %+v", rep)
	}

	// Post-rebuild restore reads clean data off the spares.
	before := obstest.Counter(t, r.cluster.Obs(), "pfs.degraded.reads")
	r.inSim(t, "deg-restore-rebuilt", func() error {
		step, state, err := r.stores[0].RestoreLatest()
		if err != nil {
			return err
		}
		return checkRestored(step, state)
	})
	if after := obstest.Counter(t, r.cluster.Obs(), "pfs.degraded.reads"); after != before {
		t.Fatalf("restore still degraded after rebuild (%d new reconstructions)", after-before)
	}
	r.shutdown(t)
}

// TestDegradedSlowOSTHedgedTail runs the same checkpoint workload
// healthy and with one OST serving 10x slow: hedged writes must keep
// the p99 commit stall within 2x of the healthy run.
func TestDegradedSlowOSTHedgedTail(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank degradation simulation skipped in -short mode")
	}
	healthy := runDegradedCheckpoints(t, true, 0, false)
	healthy.shutdown(t)
	slow := runDegradedCheckpoints(t, true, 10, false)
	slow.shutdown(t)

	hedges, wins := obstest.Counter(t, slow.cluster.Obs(), "pfs.hedge.issued"), obstest.Counter(t, slow.cluster.Obs(), "pfs.hedge.wins")
	if hedges == 0 || wins == 0 {
		t.Fatalf("straggler OST triggered no hedges (hedges=%d wins=%d)", hedges, wins)
	}
	hp, sp := p99(healthy.commits), p99(slow.commits)
	if sp > 2*hp {
		t.Fatalf("hedged p99 commit %v exceeds 2x healthy %v", sp, hp)
	}
}

// burstOverCluster stages into a MemFS-backed store and drains into a
// cluster-backed durable store, inline (no worker) for determinism.
func burstOverCluster(k *sim.Kernel, durableFS vfs.FS, reg *obs.Registry) (*burst.Tier, *core.Manager, *core.Manager, error) {
	rtm := rt.Sim(k)
	smgr, err := core.NewManager("stage", core.ManagerOptions{
		Store:   core.StoreOptions{FS: vfs.NewMemFS(), WriteBufferSize: 64 << 10},
		Runtime: rtm,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	dmgr, err := core.NewManager("app", core.ManagerOptions{
		Store:   core.StoreOptions{FS: durableFS, WriteBufferSize: 64 << 10},
		Runtime: rtm,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	tier := burst.New(ckpt.New(smgr, ckpt.Options{}), ckpt.New(dmgr, ckpt.Options{}), burst.Options{Runtime: rtm, Obs: reg})
	return tier, smgr, dmgr, nil
}

func stageOneStep(tier *burst.Tier) error {
	c, err := tier.Begin(1)
	if err != nil {
		return err
	}
	if err := c.Write("state", bytes.Repeat([]byte{0xAB}, 64<<10)); err != nil {
		return err
	}
	return c.Commit()
}

// TestBurstDrainFailureClassification checks that the drain's error
// accounting tells a dead durable target (re-stripe) from an exhausted
// transient-retry budget (wait and retry) — and that with parity
// striping the dead-OST case doesn't fail at all.
func TestBurstDrainFailureClassification(t *testing.T) {
	cfg := pfs.Config{
		ComputeNodes:       1,
		NumOSTs:            4,
		NumOSSs:            1,
		DefaultStripeCount: 2,
		DefaultStripeSize:  16 << 10,
		RetryMax:           2,
		RetryBaseDelay:     time.Millisecond,
		RetryMaxDelay:      4 * time.Millisecond,
	}

	t.Run("target-down", func(t *testing.T) {
		k := sim.NewKernel()
		cluster := pfs.NewCluster(k, cfg)
		dumpTraceOnFailure(t, "", cluster.Obs())
		reg := obs.NewRegistry()
		k.Spawn("main", func(*sim.Proc) {
			tier, _, _, err := burstOverCluster(k, cluster.Client(0), reg)
			if err != nil {
				t.Error(err)
				return
			}
			if err := stageOneStep(tier); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < cfg.NumOSTs; i++ {
				cluster.SetOSTHealth(i, pfs.OSTDead, 0)
			}
			if err := tier.Sync(); err == nil {
				t.Error("drain into a dead cluster reported success")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if down, transient := obstest.Counter(t, reg, "burst.drain.target_down"), obstest.Counter(t, reg, "burst.drain.transient"); down == 0 || transient != 0 {
			t.Fatalf("%d target-down and %d transient drain failures, want the failure classified target-down", down, transient)
		}
	})

	t.Run("transient-exhausted", func(t *testing.T) {
		k := sim.NewKernel()
		cluster := pfs.NewCluster(k, cfg)
		dumpTraceOnFailure(t, "", cluster.Obs())
		reg := obs.NewRegistry()
		k.Spawn("main", func(*sim.Proc) {
			tier, _, _, err := burstOverCluster(k, cluster.Client(0), reg)
			if err != nil {
				t.Error(err)
				return
			}
			if err := stageOneStep(tier); err != nil {
				t.Error(err)
				return
			}
			cluster.InjectFaults(func(write bool, ostIdx, attempt int) error {
				return &faultfs.InjectedError{Op: faultfs.OpWrite, Transient: true}
			})
			if err := tier.Sync(); err == nil {
				t.Error("drain with exhausted retries reported success")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if down, transient := obstest.Counter(t, reg, "burst.drain.target_down"), obstest.Counter(t, reg, "burst.drain.transient"); transient == 0 || down != 0 {
			t.Fatalf("%d target-down and %d transient drain failures, want the failure classified transient", down, transient)
		}
	})

	t.Run("parity-absorbs-dead-target", func(t *testing.T) {
		k := sim.NewKernel()
		cluster := pfs.NewCluster(k, cfg)
		dumpTraceOnFailure(t, "", cluster.Obs())
		cluster.EnableResilience(pfs.Resilience{Parity: true})
		reg := obs.NewRegistry()
		k.Spawn("main", func(*sim.Proc) {
			tier, _, dmgr, err := burstOverCluster(k, cluster.ResilientClient(0), reg)
			if err != nil {
				t.Error(err)
				return
			}
			if err := stageOneStep(tier); err != nil {
				t.Error(err)
				return
			}
			cluster.SetOSTHealth(degVictim, pfs.OSTDead, 0)
			if err := tier.Sync(); err != nil {
				t.Errorf("parity-striped drain failed with one dead OST: %v", err)
				return
			}
			step, state, err := ckpt.New(dmgr, ckpt.Options{}).RestoreLatest()
			if err != nil || step != 1 {
				t.Errorf("durable restore = step %d, %v", step, err)
				return
			}
			if !bytes.Equal(state["state"], bytes.Repeat([]byte{0xAB}, 64<<10)) {
				t.Error("durable payload corrupted")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if errs, drained := obstest.Counter(t, reg, "burst.drain.errors"), obstest.Counter(t, reg, "burst.drained.steps"); errs != 0 || drained != 1 {
			t.Fatalf("%d drain errors, %d steps drained, want one clean drain", errs, drained)
		}
	})
}
