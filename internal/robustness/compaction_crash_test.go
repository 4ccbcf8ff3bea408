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
// leveled compaction stays ENABLED with a two-worker background pool (and
// subcompaction sharding on the wide manual merge), so the recorded
// boundary stream includes table merges and manifest rewrites. A crash at
// every one of those boundaries must still recover every acknowledged
// write — compaction rearranges files, never logical content, so no
// version/manifest state it leaves behind may lose data.
//
// This variant pins the order of the concurrent file operations, so the
// boundary numbering (and so the subtest names) is the same on every run;
// TestCompactionCrashSweepRacing runs the same workload free.
func TestCompactionCrashSweep(t *testing.T) { compactionCrashSweep(t, true) }

// TestCompactionCrashSweepRacing runs the sweep with nothing held: the
// background merge races the foreground writes and the manual merge's two
// shards interleave their creates and syncs, so it enumerates crash states
// the pinned order never produces. Its boundary numbering, and so its
// subtest names, vary from run to run.
func TestCompactionCrashSweepRacing(t *testing.T) { compactionCrashSweep(t, false) }

// compactionCrashSweep records the workload's boundaries and crashes at
// each. With pinned set, two holds fix the order of the concurrent file
// operations. The background merge the second flush schedules is held at
// its output create until thirteen more writes are acknowledged, then
// drained before the next one; left free, it lands anywhere in that
// window. The manual merge's second shard is held at its output create
// until the first shard's output is synced; left free, the two shards'
// creates and syncs interleave.
func compactionCrashSweep(t *testing.T, pinned bool) {
	if testing.Short() {
		t.Skip("crash-point enumeration sweep skipped in -short mode")
	}
	ffs := faultfs.New(vfs.NewMemFS())
	if err := ffs.StartRecording(); err != nil {
		t.Fatal(err)
	}
	// Tables are created in this order: two flushes, the first merge's
	// output, two more flushes, then the manual merge's two shard outputs.
	// Each hold is a delay rule whose length names it to the sleeper.
	const holdMerge, holdShard = time.Nanosecond, 2 * time.Nanosecond
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	var shardAfter atomic.Int64 // boundary count the second shard waits for
	if pinned {
		ffs.SetSleeper(func(d time.Duration) {
			switch d {
			case holdMerge:
				<-gate
			case holdShard:
				deadline := time.Now().Add(10 * time.Second)
				for int64(ffs.Boundaries()) < shardAfter.Load() {
					if time.Now().After(deadline) {
						t.Errorf("first shard never synced: %d boundaries, want %d", ffs.Boundaries(), shardAfter.Load())
						return
					}
					time.Sleep(20 * time.Microsecond)
				}
			}
		})
		ffs.AddRule(&faultfs.Rule{
			Op: faultfs.OpCreate, Path: ".sst",
			Nth:   3,
			Delay: holdMerge, DelayOnly: true,
		})
		ffs.AddRule(&faultfs.Rule{
			Op: faultfs.OpCreate, Path: ".sst",
			Nth:   7,
			Delay: holdShard, DelayOnly: true,
		})
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
		if pinned && i == 46 {
			release()
			if err := db.WaitBackground(); err != nil {
				t.Fatal(err)
			}
		}
	}
	del("c005")
	del("c017")
	// Phase 2: overwrite a band, then force a wide sharded merge.
	for i := 0; i < 12; i++ {
		put(fmt.Sprintf("c%03d", i), fmt.Sprintf("gen2-%02d-%s", i, pad(180)))
	}
	// CompactAll's flush crosses five boundaries (table create, log create,
	// two syncs, log remove); the first shard's create and sync follow.
	// Unpinned, nothing reads it.
	shardAfter.Store(int64(ffs.Boundaries()) + 7)
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
	if got := ffs.Delayed(); pinned && got != 2 {
		t.Fatalf("%d holds fired, want 2: the table creates no longer run in the expected order", got)
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

	reopenOpts := opts
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
			acked := 0
			for acked < len(ops) && ops[acked].after <= pt.Boundary {
				acked++
			}
			o := reopenOpts
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
		})
	}
}
