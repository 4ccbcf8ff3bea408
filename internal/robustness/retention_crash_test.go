package robustness

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lsmio/ckpt"
	"lsmio/internal/core"
	"lsmio/internal/faultfs"
	"lsmio/internal/vfs"
)

// retentionVars is step's payload: three variables, about two memtables'
// worth, filled with a pattern no other step's bytes contain.
func retentionVars(step int64) map[string][]byte {
	mark := []byte(fmt.Sprintf("<step-%02d-payload>", step))
	return map[string][]byte{
		"temperature": bytes.Repeat(mark, 3000/len(mark)),
		"pressure":    bytes.Repeat(mark, 5000/len(mark)),
		"velocity":    bytes.Repeat(mark, 4000/len(mark)),
	}
}

// TestCkptRetentionCrashSweep runs seven commits under Keep: 2, so every
// commit from the third on drops the step two behind it, and crashes at
// every durability boundary. At each one every committed step is either
// wholly there (ReadAll verifies it) or wholly gone (no manifest, no key
// under its data prefix); a step whose Drop had returned is gone; and
// RestoreLatest restores at least the newest acknowledged step. While
// the workload runs, no table file holds a byte of a step once its Drop
// has returned: the drop freed its tables instead of shadowing them.
func TestCkptRetentionCrashSweep(t *testing.T) {
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
	dumpTraceOnFailure(t, "", mgr.Obs())
	store := ckpt.New(mgr, ckpt.Options{Keep: 2})

	const steps = 7
	committed := map[int64]int{} // step -> boundary its Commit returned at
	dropped := map[int64]int{}   // step -> boundary its Drop returned at
	for step := int64(1); step <= steps; step++ {
		c, err := store.Begin(step)
		if err != nil {
			t.Fatalf("begin %d: %v", step, err)
		}
		for _, name := range []string{"pressure", "temperature", "velocity"} {
			if err := c.Write(name, retentionVars(step)[name]); err != nil {
				t.Fatalf("write %d/%s: %v", step, name, err)
			}
		}
		if err := c.Commit(); err != nil {
			t.Fatalf("commit %d: %v", step, err)
		}
		committed[step] = ffs.Boundaries()
		if old := step - 2; old >= 1 {
			dropped[old] = ffs.Boundaries()
			if holder := tableHolding(t, ffs.Inner(), "app", old); holder != "" {
				t.Errorf("after step %d's Drop returned, %s still holds its bytes", old, holder)
			}
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	ffs.StopRecording()

	pts := ffs.CrashPoints()
	if len(pts) < 30 {
		t.Fatalf("workload crossed only %d boundaries; sweep too weak", len(pts))
	}
	for _, pt := range pts {
		pt := pt
		t.Run(fmt.Sprintf("boundary%03d_%s", pt.Boundary, pt.Op), func(t *testing.T) {
			state, err := ffs.StateAfter(pt.Boundary)
			if err != nil {
				t.Fatalf("StateAfter: %v", err)
			}
			var wantLatest int64
			for step, after := range committed {
				if after <= pt.Boundary && step > wantLatest {
					wantLatest = step
				}
			}
			o := storeOpts
			o.FS = state
			mgr2, err := core.NewManager("app", core.ManagerOptions{Store: o})
			if err != nil {
				if wantLatest != 0 {
					t.Fatalf("reopen failed with step %d committed: %v", wantLatest, err)
				}
				return
			}
			defer mgr2.Close()
			store2 := ckpt.New(mgr2, ckpt.Options{})
			// A step whose Commit had returned is wholly there or wholly
			// gone: gone only once retention could have dropped it (the
			// commit after next drops it), and gone for good once its Drop
			// had returned. A step still committing may be torn.
			for step, after := range committed {
				if after > pt.Boundary {
					continue
				}
				there := wholeOrGone(t, store2, mgr2, step)
				if d, ok := dropped[step]; ok && d <= pt.Boundary && there {
					t.Errorf("step %d is restorable after its Drop returned", step)
				}
				if next, ok := committed[step+1]; !there && (!ok || next > pt.Boundary) {
					t.Errorf("step %d is gone before retention could drop it", step)
				}
			}
			step, restored, err := store2.RestoreLatest()
			if err != nil {
				if wantLatest == 0 && errors.Is(err, ckpt.ErrNoCheckpoint) {
					return
				}
				t.Fatalf("RestoreLatest with step %d committed: %v", wantLatest, err)
			}
			if step < wantLatest {
				t.Fatalf("restored step %d, want >= %d (silent rollback)", step, wantLatest)
			}
			for name, data := range retentionVars(step) {
				if !bytes.Equal(restored[name], data) {
					t.Errorf("step %d variable %q differs after restore", step, name)
				}
			}
		})
	}
}

// wholeOrGone reports whether step is wholly there, and fails the test
// when it is neither wholly there nor wholly gone.
func wholeOrGone(t *testing.T, store *ckpt.Store, mgr *core.Manager, step int64) bool {
	t.Helper()
	state, err := store.ReadAll(step)
	if err == nil {
		for name, data := range retentionVars(step) {
			if !bytes.Equal(state[name], data) {
				t.Errorf("step %d variable %q differs", step, name)
			}
		}
		return true
	}
	if !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Errorf("step %d is neither whole nor gone: %v", step, err)
		return false
	}
	keys, err := mgr.ReadBatchAll(fmt.Sprintf("ckpt/data/%016d/", step))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Errorf("step %d has no manifest but %d data keys", step, len(keys))
	}
	return false
}

// tableHolding returns the name of a table file under dir that contains
// bytes of step's payload, or "".
func tableHolding(t *testing.T, fs vfs.FS, dir string, step int64) string {
	t.Helper()
	names, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	mark := []byte(fmt.Sprintf("<step-%02d-payload>", step))
	for _, name := range names {
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		f, err := fs.Open(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := vfs.ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, mark) {
			return name
		}
	}
	return ""
}
