package robustness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsmio/internal/faultfs"
	"lsmio/internal/lsm"
	"lsmio/internal/vfs"
)

// TestCompactionCrashSweep is the multi-job variant of TestLSMCrashSweep:
// leveled compaction stays ENABLED with a two-worker background pool, so
// the recorded boundary stream includes table merges and manifest rewrites. A crash at
// every one of those boundaries must still recover every acknowledged
// write — compaction rearranges files, never logical content, so no
// version/manifest state it leaves behind may lose data.
//
// This variant pins the order of the concurrent file operations with the
// background merge landing early, between two flushes, so the boundary
// numbering (and so the subtest names) is the same on every run.
func TestCompactionCrashSweep(t *testing.T) { compactionCrashSweep(t, mergeEarly) }

// TestCompactionCrashSweepRacing pins the background merge late: it
// starts writing only after the third flush, and one foreground write's
// log sync lands between its output create and its input removes, so a
// crash catches a merge in flight beside a newer L0 table and a newer log.
// Its subtest names repeat too.
func TestCompactionCrashSweepRacing(t *testing.T) { compactionCrashSweep(t, mergeLate) }

// TestCompactionCrashSweepFree runs the same workload with nothing held:
// the background merge races the foreground writes, so it enumerates
// crash states the pinned orders never produce. Its boundary numbering
// varies from run to run, so it checks every crash point in one test
// rather than one subtest per boundary.
func TestCompactionCrashSweepFree(t *testing.T) { compactionCrashSweep(t, free) }

// sweepOrder says how compactionCrashSweep orders the concurrent file
// operations of its workload.
type sweepOrder int

const (
	free       sweepOrder = iota // nothing held
	mergeEarly                   // background merge before the third flush
	mergeLate                    // background merge after the third flush
)

// compactionCrashSweep records the workload's boundaries and crashes at
// each. In the pinned orders, holds fix the order of the concurrent file
// operations. The background merge the second flush schedules is held at
// its output create: until thirteen more writes are acknowledged and then
// drained before the next one (mergeEarly), or until the write that
// rotates the memtable a third time is acknowledged, then held again at
// its output sync until exactly one more write's log sync has landed
// (mergeLate). Left free, the merge lands anywhere in that window.
func compactionCrashSweep(t *testing.T, order sweepOrder) {
	if testing.Short() {
		t.Skip("crash-point enumeration sweep skipped in -short mode")
	}
	ffs := faultfs.New(vfs.NewMemFS())
	if err := ffs.StartRecording(); err != nil {
		t.Fatal(err)
	}
	// Tables are created in this order: two flushes, the first merge's
	// output, two more flushes, then the manual merge's output (mergeLate
	// creates the third flush's table before the merge's output,
	// but the merge's create call is made, and held, first). Each hold is a
	// delay rule whose length names it to the sleeper.
	const holdMerge, holdMergeSync = time.Nanosecond, 2 * time.Nanosecond
	held, gate := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	// waitFor polls until the recording has crossed n boundaries.
	waitFor := func(n int64, what string) bool {
		deadline := time.Now().Add(10 * time.Second)
		for int64(ffs.Boundaries()) < n {
			if time.Now().After(deadline) {
				t.Errorf("%s: %d boundaries, want %d", what, ffs.Boundaries(), n)
				return false
			}
			time.Sleep(20 * time.Microsecond)
		}
		return true
	}
	var mergeSyncAfter atomic.Int64 // boundary count the late merge's sync waits for
	wantHolds := 0
	if order != free {
		ffs.SetSleeper(func(d time.Duration) {
			switch d {
			case holdMerge:
				close(held)
				<-gate
			case holdMergeSync:
				waitFor(mergeSyncAfter.Load(), "no write landed inside the merge")
			}
		})
		ffs.AddRule(&faultfs.Rule{
			Op: faultfs.OpCreate, Path: ".sst",
			Nth:   3,
			Delay: holdMerge, DelayOnly: true,
		})
		wantHolds = 1
	}
	if order == mergeLate {
		// Table syncs: the two flushes, the third flush, then the merge.
		ffs.AddRule(&faultfs.Rule{
			Op: faultfs.OpSync, Path: ".sst",
			Nth:   4,
			Delay: holdMergeSync, DelayOnly: true,
		})
		wantHolds = 2
	}

	opts := lsm.DefaultOptions(ffs)
	opts.Sync = true        // every acked write is WAL-synced
	opts.AsyncFlush = false // flushes stay on the writer thread
	opts.MaxBackgroundJobs = 2
	opts.WriteBufferSize = 4 << 10
	opts.L0CompactionTrigger = 2
	opts.BaseLevelSize = 8 << 10
	opts.LevelSizeMultiplier = 2
	opts.BitsPerKey = 0
	opts.DisableCompression = true

	db, err := lsm.Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	dumpTraceOnFailure(t, "", db.Obs())

	var ops []lsmOp
	put := func(key, value string) {
		if err := db.Put([]byte(key), []byte(value)); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		ops = append(ops, lsmOp{after: ffs.Boundaries(), key: key, value: value})
	}
	del := func(key string) {
		if err := db.Delete([]byte(key)); err != nil {
			t.Fatalf("delete %s: %v", key, err)
		}
		ops = append(ops, lsmOp{after: ffs.Boundaries(), key: key, del: true})
	}

	// Phase 1: enough churn to roll several memtables and let the
	// background pool start merging L0 while writes continue.
	for i := 0; i < 48; i++ {
		put(fmt.Sprintf("c%03d", i%24), fmt.Sprintf("gen1-%02d-%s", i, pad(180)))
		if order == mergeEarly && i == 46 {
			release()
			if err := db.WaitBackground(); err != nil {
				t.Fatal(err)
			}
		}
	}
	del("c005")
	del("c017")
	if order == mergeLate {
		// The create held must be the merge's, not the next flush's.
		select {
		case <-held:
		case <-time.After(10 * time.Second):
			t.Fatal("background merge never reached its output create")
		}
	}
	// Phase 2: overwrite a band, then force a wide merge. The
	// fourth write rotates the memtable, flushing it.
	for i := 0; i < 12; i++ {
		if order == mergeLate && i == 4 {
			// Let the merge create its output, then write once: the merge
			// syncs that output only after this write's log sync.
			created := int64(ffs.Boundaries()) + 1
			mergeSyncAfter.Store(created + 1)
			release()
			if !waitFor(created, "merge never created its output") {
				return
			}
		}
		put(fmt.Sprintf("c%03d", i), fmt.Sprintf("gen2-%02d-%s", i, pad(180)))
		if order == mergeLate && i == 4 {
			if err := db.WaitBackground(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	put("tail0", "post-compact-"+pad(80))
	put("tail1", "post-compact-"+pad(80))
	if err := db.WaitBackground(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ffs.StopRecording()
	if t.Failed() {
		return
	}
	if got := ffs.Delayed(); got != wantHolds {
		t.Fatalf("%d holds fired, want %d: the table creates and syncs no longer run in the expected order", got, wantHolds)
	}

	pts := ffs.CrashPoints()
	if len(pts) < 30 {
		t.Fatalf("workload crossed only %d boundaries; sweep too weak", len(pts))
	}
	var sawRename bool
	for _, pt := range pts {
		sawRename = sawRename || pt.Op == faultfs.OpRename
	}
	if !sawRename {
		t.Fatal("sweep never crossed a manifest/rename boundary")
	}

	recoverAt := func(t *testing.T, pt faultfs.CrashPoint) {
		defer func() {
			if t.Failed() {
				t.Logf("crash at boundary %d (%s %s) did not recover", pt.Boundary, pt.Op, pt.Path)
			}
		}()
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
		acked := 0
		for acked < len(ops) && ops[acked].after <= pt.Boundary {
			acked++
		}
		o := opts
		o.FS = state
		o.Runtime = nil
		db2, err := lsm.Open("db", o)
		if err != nil {
			if acked > 0 {
				t.Fatalf("reopen failed with %d acked writes: %v", acked, err)
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
		checkLSMModel(t, db2, ops, acked)
		if err := db2.VerifyChecksums(); err != nil {
			t.Errorf("checksum verification after crash at boundary %d: %v", pt.Boundary, err)
		}
	}
	for _, pt := range pts {
		pt := pt
		if order == free {
			// The numbering varies from run to run: no subtest per boundary.
			if recoverAt(t, pt); t.Failed() {
				return
			}
			continue
		}
		t.Run(fmt.Sprintf("boundary%03d_%s", pt.Boundary, pt.Op), func(t *testing.T) { recoverAt(t, pt) })
	}
}
