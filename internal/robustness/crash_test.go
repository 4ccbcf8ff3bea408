// Package robustness sweeps the repository's crash-recovery guarantees
// end-to-end: a workload runs on a recording faultfs wrapper, and for
// every durability boundary the workload crossed, the durable state a
// crash there would leave is materialized and reopened. Recovery must
// never panic and never silently lose an acknowledged-durable write.
package robustness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"lsmio/ckpt"
	"lsmio/internal/core"
	"lsmio/internal/faultfs"
	"lsmio/internal/lsm"
	"lsmio/internal/vfs"
)

// lsmOp is one acknowledged mutation of the LSM workload: after boundary
// `after`, key either maps to value (del=false) or is deleted.
type lsmOp struct {
	after int
	key   string
	value string
	del   bool
}

// TestLSMCrashSweep drives a put/overwrite/delete/flush/compact workload
// on a synced WAL and proves that a crash at EVERY durability boundary
// recovers all acknowledged writes — zero panics, zero silent loss.
func TestLSMCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-point enumeration sweep skipped in -short mode")
	}
	ffs := faultfs.New(vfs.NewMemFS())
	if err := ffs.StartRecording(); err != nil {
		t.Fatal(err)
	}

	opts := lsm.DefaultOptions(ffs)
	opts.Sync = true              // every acked write is WAL-synced
	opts.AsyncFlush = false       // deterministic boundary order
	opts.DisableCompaction = true // compaction driven explicitly below
	opts.WriteBufferSize = 4 << 10
	opts.BitsPerKey = 0

	db, err := lsm.Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	dumpTraceOnFailure(t, "", db.Obs())

	var ops []lsmOp
	ack := func(key, value string, del bool) {
		ops = append(ops, lsmOp{after: ffs.Boundaries(), key: key, value: value, del: del})
	}
	put := func(key, value string) {
		if err := db.Put([]byte(key), []byte(value)); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		ack(key, value, false)
	}
	del := func(key string) {
		if err := db.Delete([]byte(key)); err != nil {
			t.Fatalf("delete %s: %v", key, err)
		}
		ack(key, "", true)
	}

	// Phase 1: enough puts to roll the memtable (inline flush).
	for i := 0; i < 12; i++ {
		put(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d-gen1-%s", i, pad(200)))
	}
	// Phase 2: overwrites and deletes.
	for i := 0; i < 6; i++ {
		put(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d-gen2-%s", i, pad(200)))
	}
	del("k07")
	del("k08")
	// Phase 3: explicit flush, more writes, then full compaction.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	put("late0", "after-flush-"+pad(100))
	put("late1", "after-flush-"+pad(100))
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	put("final", "post-compact")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Phase 4: reopen. Open writes a fresh manifest, switches CURRENT to
	// it and sweeps the superseded one; a crash at any boundary in there
	// must leave a store that opens with everything acknowledged above.
	reopenAt := ffs.Boundaries()
	if db, err = lsm.Open("db", opts); err != nil {
		t.Fatal(err)
	}
	put("reopened", "post-reopen")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ffs.StopRecording()

	pts := ffs.CrashPoints()
	if len(pts) < 20 {
		t.Fatalf("workload crossed only %d boundaries; sweep too weak", len(pts))
	}
	var sawSync, sawRename, sawManifestSweep bool
	for _, pt := range pts {
		sawSync = sawSync || pt.Op == faultfs.OpSync
		sawRename = sawRename || pt.Op == faultfs.OpRename
		sawManifestSweep = sawManifestSweep || (pt.Boundary > reopenAt &&
			pt.Op == faultfs.OpRemove && strings.Contains(pt.Path, "MANIFEST-"))
	}
	if !sawSync || !sawRename || !sawManifestSweep {
		t.Fatalf("sweep misses op classes: sync=%v rename=%v manifest-sweep-on-reopen=%v",
			sawSync, sawRename, sawManifestSweep)
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
			// Count ops acknowledged by this boundary; the first op beyond
			// it may be partially applied (its effects are allowed but not
			// required to survive).
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
					t.Fatalf("clean-open failed with %d acked writes: %v", acked, err)
				}
				// Nothing acknowledged yet: a clean error is acceptable,
				// but Repair must still yield a working (empty-ish) DB.
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
		})
	}
}

// checkLSMModel folds ops[:acked] into the expected map and verifies db
// against it, tolerating exactly the one possibly-in-flight next op.
func checkLSMModel(t *testing.T, db *lsm.DB, ops []lsmOp, acked int) {
	t.Helper()
	expect := map[string]string{}
	dead := map[string]bool{}
	for _, op := range ops[:acked] {
		if op.del {
			delete(expect, op.key)
			dead[op.key] = true
		} else {
			expect[op.key] = op.value
			delete(dead, op.key)
		}
	}
	var next *lsmOp
	if acked < len(ops) {
		next = &ops[acked]
	}
	inFlight := func(key string) bool { return next != nil && next.key == key }

	for key, want := range expect {
		v, err := db.Get([]byte(key))
		if err == nil && string(v) == want {
			continue
		}
		if inFlight(key) {
			if next.del && err == lsm.ErrNotFound {
				continue // the in-flight delete landed
			}
			if !next.del && err == nil && string(v) == next.value {
				continue // the in-flight overwrite landed
			}
		}
		t.Errorf("acked key %s = %q, %v; want %q", key, v, err, want)
	}
	for key := range dead {
		if _, tracked := expect[key]; tracked {
			continue
		}
		v, err := db.Get([]byte(key))
		if err == lsm.ErrNotFound {
			continue
		}
		if inFlight(key) && next != nil && !next.del && err == nil && string(v) == next.value {
			continue
		}
		t.Errorf("acked-deleted key %s resurrected: %q, %v", key, v, err)
	}
}

// ckptStep records one committed checkpoint: its contents and the
// boundary counter at commit acknowledgment.
type ckptStep struct {
	step  int64
	after int
	vars  map[string][]byte
}

// TestCkptCrashSweep drives multiple Begin/Write/Commit checkpoint steps
// through the manager's barrier-then-manifest protocol and proves that a
// crash at EVERY durability boundary restores the newest fully-committed
// step (or a legitimately-durable newer one) with verified contents.
func TestCkptCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-point enumeration sweep skipped in -short mode")
	}
	ffs := faultfs.New(vfs.NewMemFS())
	if err := ffs.StartRecording(); err != nil {
		t.Fatal(err)
	}

	storeOpts := core.StoreOptions{FS: ffs, WriteBufferSize: 8 << 10}
	mgr, err := core.NewManager("app", core.ManagerOptions{Store: storeOpts})
	if err != nil {
		t.Fatal(err)
	}
	store := ckpt.New(mgr, ckpt.Options{}) // Keep: everything

	var committed []ckptStep
	allSteps := map[int64]map[string][]byte{}
	for step := int64(1); step <= 4; step++ {
		vars := map[string][]byte{
			"temperature": bytes.Repeat([]byte{byte(step)}, 600),
			"pressure":    []byte(fmt.Sprintf("p-step-%d-%s", step, pad(300))),
		}
		allSteps[step] = vars
		c, err := store.Begin(step)
		if err != nil {
			t.Fatalf("begin %d: %v", step, err)
		}
		for name, data := range vars {
			if err := c.Write(name, data); err != nil {
				t.Fatalf("write %d/%s: %v", step, name, err)
			}
		}
		if err := c.Commit(); err != nil {
			t.Fatalf("commit %d: %v", step, err)
		}
		committed = append(committed, ckptStep{step: step, after: ffs.Boundaries(), vars: vars})
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	ffs.StopRecording()

	pts := ffs.CrashPoints()
	if len(pts) < 8 {
		t.Fatalf("workload crossed only %d boundaries; sweep too weak", len(pts))
	}

	for _, pt := range pts {
		pt := pt
		t.Run(fmt.Sprintf("boundary%03d_%s", pt.Boundary, pt.Op), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic restoring at boundary %d (%s %s): %v",
						pt.Boundary, pt.Op, pt.Path, r)
				}
			}()
			state, err := ffs.StateAfter(pt.Boundary)
			if err != nil {
				t.Fatalf("StateAfter: %v", err)
			}
			// Newest step whose Commit was acknowledged by this boundary.
			var wantStep int64
			for _, cs := range committed {
				if cs.after <= pt.Boundary {
					wantStep = cs.step
				}
			}
			o := storeOpts
			o.FS = state
			mgr2, err := core.NewManager("app", core.ManagerOptions{Store: o})
			if err != nil {
				if wantStep != 0 {
					t.Fatalf("manager reopen failed with step %d committed: %v", wantStep, err)
				}
				return // nothing promised yet; clean error is fine
			}
			defer mgr2.Close()
			store2 := ckpt.New(mgr2, ckpt.Options{})
			step, restored, err := store2.RestoreLatest()
			if err != nil {
				if wantStep == 0 && err == ckpt.ErrNoCheckpoint {
					return
				}
				t.Fatalf("RestoreLatest with step %d committed: %v", wantStep, err)
			}
			// A newer, not-yet-acked step may legitimately be durable if
			// the crash fell between its manifest barrier and Commit's
			// return — but never an older one than promised.
			if step < wantStep {
				t.Fatalf("restored step %d, want >= %d (silent rollback)", step, wantStep)
			}
			want, known := allSteps[step]
			if !known {
				t.Fatalf("restored unknown step %d", step)
			}
			if len(restored) != len(want) {
				t.Fatalf("step %d restored %d vars, want %d", step, len(restored), len(want))
			}
			for name, data := range want {
				if !bytes.Equal(restored[name], data) {
					t.Errorf("step %d variable %q corrupted after restore", step, name)
				}
			}
		})
	}
}

// pad returns a deterministic filler string of length n.
func pad(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return string(b)
}
