package robustness

import (
	"fmt"
	"testing"

	"lsmio/internal/faultfs"
	"lsmio/internal/lsm"
	"lsmio/internal/vfs"
)

// TestCompactionCrashSweep is the multi-job variant of TestLSMCrashSweep:
// leveled compaction stays ENABLED with a two-worker background pool (and
// subcompaction sharding on the wide manual merge), so the recorded
// boundary stream includes table merges and manifest rewrites racing the
// foreground. A crash at every one of those boundaries must still recover
// every acknowledged write — compaction rearranges files, never logical
// content, so no version/manifest state it leaves behind may lose data.
func TestCompactionCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-point enumeration sweep skipped in -short mode")
	}
	ffs := faultfs.New(vfs.NewMemFS())
	if err := ffs.StartRecording(); err != nil {
		t.Fatal(err)
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
	}
	del("c005")
	del("c017")
	// Phase 2: overwrite a band, then force a wide sharded merge.
	for i := 0; i < 12; i++ {
		put(fmt.Sprintf("c%03d", i), fmt.Sprintf("gen2-%02d-%s", i, pad(180)))
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
