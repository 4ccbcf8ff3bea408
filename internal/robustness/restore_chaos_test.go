package robustness

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"lsmio/ckpt"
	"lsmio/internal/core"
	"lsmio/internal/pfs"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
)

// restore_chaos_test.go is the combined-fault chaos sweep for the
// self-healing restore pipeline: ONE run carries a dead OST (degraded
// parity reads), a corrupt newest step (payload overwritten after
// commit), and a crash mid-restore (hook abort at an enumerated event),
// followed by a journal-backed resume. The sweep enumerates every crash
// point; the invariants at every point are
//
//  1. the restore that finally completes returns a step whose state is
//     byte-exact some fully-committed step — never a partial or mixed
//     image;
//  2. exactly the deliberately-damaged step ends (and stays)
//     quarantined;
//  3. at least one crash point actually exercises a journal resume.

const (
	chaosSteps   = 4
	chaosVars    = 4
	chaosPerVar  = 64 << 10
	chaosVictim  = 0 // the OST that fail-stops before the restore
	chaosCorrupt = chaosSteps
	chaosWant    = chaosSteps - 1 // newest intact step
)

var errChaosCrash = errors.New("chaos: injected crash")

func chaosClusterConfig() pfs.Config {
	cfg := pfs.VikingConfig(1)
	cfg.NumOSTs = 6
	return cfg
}

// chaosOutcome reports what one crash-point scenario did.
type chaosOutcome struct {
	completed bool // the first restore finished before the crash point
	resumed   bool // the second restore resumed the crashed journal
}

// runRestoreChaos runs the combined-fault scenario with a crash
// injected at the crashAt-th restore event and verifies the invariants
// after recovery. completed=true means crashAt exceeded the total event
// count (the sweep is exhausted).
func runRestoreChaos(t *testing.T, crashAt int) chaosOutcome {
	t.Helper()
	k := sim.NewKernel()
	rtm := rt.Sim(k)
	cluster := pfs.NewCluster(k, chaosClusterConfig())
	dumpTraceOnFailure(t, fmt.Sprintf("crash%02d", crashAt), cluster.Obs())
	cluster.EnableResilience(pfs.Resilience{Hedge: true, Parity: true})

	var out chaosOutcome
	var runErr error
	k.Spawn("chaos", func(p *sim.Proc) {
		runErr = func() error {
			mgr, err := core.NewManager("chaos/rank000", core.ManagerOptions{
				Store: core.StoreOptions{
					FS:              cluster.ResilientClient(0),
					Async:           true,
					WriteBufferSize: 256 << 10,
				},
				Runtime: rtm,
				Obs:     cluster.Obs(),
			})
			if err != nil {
				return err
			}
			defer mgr.Close()
			store := ckpt.New(mgr, ckpt.Options{})
			for step := int64(1); step <= chaosSteps; step++ {
				w, err := store.Begin(step)
				if err != nil {
					return fmt.Errorf("begin %d: %w", step, err)
				}
				for v := 0; v < chaosVars; v++ {
					if err := w.Write(fmt.Sprintf("var%02d", v), degPayload(step, v, chaosPerVar)); err != nil {
						return fmt.Errorf("write %d: %w", step, err)
					}
				}
				if err := w.Commit(); err != nil {
					return fmt.Errorf("commit %d: %w", step, err)
				}
			}

			// Fault 1: an OST fail-stops; parity reconstruction now
			// serves every read that striped across it.
			cluster.SetOSTHealth(chaosVictim, pfs.OSTDead, 0)
			// Fault 2: the newest step's payload is overwritten after
			// commit (CRC now disagrees with the manifest).
			if err := mgr.Put(fmt.Sprintf("ckpt/data/%016d/var01", int64(chaosCorrupt)), []byte("chaos garbage")); err != nil {
				return err
			}

			// Fault 3: crash at the crashAt-th restore event.
			var events atomic.Int64
			opts := ckpt.RestoreOptions{
				Parallel: 2,
				Journal:  true,
				Hook: func(phase string, step int64, name string) error {
					if events.Add(1) == int64(crashAt) {
						return errChaosCrash
					}
					return nil
				},
			}
			step, state, rep, err := store.Restore(opts)
			switch {
			case err == nil:
				out.completed = true
			case errors.Is(err, errChaosCrash):
				// Crashed as injected; resume from the journal.
				opts.Hook = nil
				step, state, rep, err = store.Restore(opts)
				if err != nil {
					return fmt.Errorf("resumed restore: %w", err)
				}
				out.resumed = rep.Resumed
			default:
				return fmt.Errorf("restore failed outside the injected crash: %w", err)
			}

			// Invariant 1: the restored image is byte-exact the newest
			// intact fully-committed step.
			if step != chaosWant {
				return fmt.Errorf("restored step %d, want %d", step, chaosWant)
			}
			if len(state) != chaosVars {
				return fmt.Errorf("restored %d vars, want %d", len(state), chaosVars)
			}
			for v := 0; v < chaosVars; v++ {
				name := fmt.Sprintf("var%02d", v)
				if !bytes.Equal(state[name], degPayload(step, v, chaosPerVar)) {
					return fmt.Errorf("restored %s is not step %d's committed payload", name, step)
				}
			}
			// Invariant 2: exactly the damaged step is quarantined.
			q, err := store.Quarantined()
			if err != nil {
				return err
			}
			if len(q) != 1 || q[chaosCorrupt] == "" {
				return fmt.Errorf("quarantined = %v, want exactly step %d", q, chaosCorrupt)
			}
			// The journal must be gone after a completed restore.
			if _, err := mgr.Get("ckpt/restore/journal"); !errors.Is(err, core.ErrNotFound) {
				return fmt.Errorf("restore journal left behind: %v", err)
			}
			return nil
		}()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("crash point %d: kernel: %v", crashAt, err)
	}
	if runErr != nil {
		t.Fatalf("crash point %d: %v", crashAt, runErr)
	}
	return out
}

// TestRestoreChaosCombinedFaults enumerates every crash point of the
// combined-fault scenario (dead OST + corrupt step + crash mid-restore)
// until one scenario completes without reaching the injected crash.
func TestRestoreChaosCombinedFaults(t *testing.T) {
	resumes := 0
	crashes := 0
	for crashAt := 1; ; crashAt++ {
		if crashAt > 100 {
			t.Fatal("crash-point sweep did not terminate")
		}
		out := runRestoreChaos(t, crashAt)
		if out.completed {
			crashes = crashAt - 1
			break
		}
		if out.resumed {
			resumes++
		}
	}
	if crashes == 0 {
		t.Fatal("sweep injected no crashes at all")
	}
	// Invariant 3: the journal resume path was actually exercised.
	if resumes == 0 {
		t.Fatal("no crash point exercised a journal resume")
	}
	t.Logf("chaos sweep: %d crash points, %d journal resumes", crashes, resumes)
}
