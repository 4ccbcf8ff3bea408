package robustness

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lsmio/internal/faultfs"
	"lsmio/internal/lsm"
	"lsmio/internal/obs/obstest"
	"lsmio/internal/vfs"
)

// TestGroupCommitCrashSweep extends the crash sweep to the coalesced WAL
// append: several concurrent writers commit multi-key batches through
// the group-commit writer queue (one WAL record and one fsync can cover
// many batches), and a crash at every recorded durability boundary must
// uphold two invariants:
//
//  1. Acked implies durable — a batch whose Apply returned before the
//     boundary is fully visible after recovery, even though its bytes
//     and fsync were shared with cohort peers.
//  2. Batch atomicity — each batch's three keys recover together or not
//     at all; a coalesced record is replayed whole or (torn tail)
//     dropped whole, never split.
//
// A batch that is durable but whose ack the recording missed (its
// covering sync boundary lands just before the ack is noted) may
// legitimately surface after recovery — newer generations than promised
// are fine, older ones are silent loss.
func TestGroupCommitCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-point enumeration sweep skipped in -short mode")
	}
	// A hundred and sixty generations: even if every cohort held all four
	// writers there would be one log append and one log sync per
	// generation, so the workload always crosses at least the six Open
	// boundaries plus 160 log syncs. How many more it crosses depends on
	// how cohorts form, so only the subtests past boundary 166 vary from
	// run to run.
	const writers, gens = 4, 160

	ffs := faultfs.New(vfs.NewMemFS())
	if err := ffs.StartRecording(); err != nil {
		t.Fatal(err)
	}
	// Stretch each log fsync so the concurrent writers actually pile up
	// behind a leader and cohorts form.
	ffs.AddRule(&faultfs.Rule{
		Op: faultfs.OpSync, Path: ".log",
		Nth: 1, Times: -1,
		Delay: time.Millisecond, DelayOnly: true,
	})

	opts := lsm.DefaultOptions(ffs)
	opts.Sync = true
	opts.DisableCompaction = true
	opts.BitsPerKey = 0
	db, err := lsm.Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}

	// ackedAt[w][g] is a boundary count recorded after writer w's
	// generation-g batch was acknowledged; the batch's covering sync
	// necessarily happened at or before it.
	ackedAt := make([][]int, writers)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		ackedAt[w] = make([]int, gens+1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for g := 1; g <= gens; g++ {
				b := lsm.NewBatch()
				for k := 0; k < 3; k++ {
					b.Put(
						[]byte(fmt.Sprintf("w%dk%d", w, k)),
						[]byte(fmt.Sprintf("w%d-gen%03d-%s", w, g, pad(120))),
					)
				}
				if err := db.Apply(b); err != nil {
					t.Errorf("writer %d gen %d: %v", w, g, err)
					return
				}
				mu.Lock()
				ackedAt[w][g] = ffs.Boundaries()
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	groupCommits := obstest.Counter(t, db.Obs(), "lsm.wal.group_commits")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ffs.StopRecording()
	ffs.ClearRules()

	if groupCommits >= int64(writers*gens) {
		t.Fatalf("no coalescing happened (%d leader rounds for %d batches); the sweep would not cover shared records",
			groupCommits, writers*gens)
	}

	pts := ffs.CrashPoints()
	if len(pts) < 20 {
		t.Fatalf("workload crossed only %d boundaries; sweep too weak", len(pts))
	}

	for _, pt := range pts {
		pt := pt
		t.Run(fmt.Sprintf("boundary%03d_%s", pt.Boundary, pt.Op), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic recovering at boundary %d (%s %s): %v",
						pt.Boundary, pt.Op, pt.Path, r)
				}
			}()
			state, err := ffs.StateAfter(pt.Boundary)
			if err != nil {
				t.Fatalf("StateAfter: %v", err)
			}
			o := opts
			o.FS = state
			o.Runtime = nil
			anythingPromised := false
			for w := 0; w < writers; w++ {
				if a := ackedAt[w][1]; a != 0 && a <= pt.Boundary {
					anythingPromised = true
				}
			}
			db2, err := lsm.Open("db", o)
			if err != nil {
				// Boundaries inside the initial Open (manifest written,
				// CURRENT not yet) predate any promise; Repair must still
				// produce a working DB.
				if anythingPromised {
					t.Fatalf("reopen failed with acked batches at boundary %d: %v", pt.Boundary, err)
				}
				if _, rerr := lsm.Repair("db", o); rerr != nil {
					t.Fatalf("repair after early-crash open error (%v): %v", err, rerr)
				}
				db2, err = lsm.Open("db", o)
				if err != nil {
					t.Fatalf("open after repair: %v", err)
				}
			}
			defer db2.Close()

			for w := 0; w < writers; w++ {
				// Highest generation this writer had acked by the boundary.
				promised := 0
				for g := 1; g <= gens; g++ {
					if a := ackedAt[w][g]; a != 0 && a <= pt.Boundary {
						promised = g
					}
				}
				// Recover the visible generation of each of the batch's
				// three keys; -1 marks an absent key.
				seen := [3]int{}
				for k := 0; k < 3; k++ {
					v, err := db2.Get([]byte(fmt.Sprintf("w%dk%d", w, k)))
					switch {
					case err == lsm.ErrNotFound:
						seen[k] = -1
					case err != nil:
						t.Fatalf("writer %d key %d: %v", w, k, err)
					default:
						g, perr := parseGen(string(v))
						if perr != nil {
							t.Fatalf("writer %d key %d has corrupt value %q: %v", w, k, v, perr)
						}
						seen[k] = g
					}
				}
				// Atomicity: the three keys were only ever written together.
				if seen[0] != seen[1] || seen[1] != seen[2] {
					t.Fatalf("writer %d batch split by crash: key generations %v", w, seen)
				}
				visible := seen[0]
				if visible == -1 {
					visible = 0
				}
				if visible < promised {
					t.Fatalf("writer %d: acked generation %d rolled back to %d", w, promised, visible)
				}
				if visible > gens {
					t.Fatalf("writer %d: impossible generation %d", w, visible)
				}
			}
		})
	}
}

// parseGen extracts the generation from a "w<N>-gen<GGG>-..." value.
func parseGen(v string) (int, error) {
	i := strings.Index(v, "-gen")
	if i < 0 || len(v) < i+7 {
		return 0, fmt.Errorf("no generation marker")
	}
	return strconv.Atoi(v[i+4 : i+7])
}
