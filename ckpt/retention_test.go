package ckpt

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"lsmio/internal/core"
	"lsmio/internal/vfs"
)

// retentionOptions are the paper's engine settings — WAL, compression,
// cache and compaction off, asynchronous flushes — at a small scale.
func retentionOptions(fs vfs.FS) core.ManagerOptions {
	return core.ManagerOptions{
		Store: core.StoreOptions{FS: fs, Async: true, WriteBufferSize: 256 << 10, BlockSize: 16 << 10},
	}
}

// retentionRun commits 8 steps of 8 variables (1 MiB a step, four
// memtables' worth), closes the store and returns its filesystem. Keep
// 0 retires steps beyond the newest two the way Drop did before it freed
// tables: one point delete per key.
func retentionRun(t *testing.T, keep int) vfs.FS {
	t.Helper()
	fs := vfs.NewMemFS()
	mgr, err := core.NewManager("app", retentionOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	s := New(mgr, Options{Keep: keep})
	for step := int64(1); step <= 8; step++ {
		c, err := s.Begin(step)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 8; v++ {
			if err := c.Write(fmt.Sprintf("v%d", v), bytes.Repeat([]byte{byte(step), byte(v)}, 64<<10)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
		if old := step - 2; keep == 0 && old >= 1 {
			m, err := s.loadManifest(old)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{s.manifestKey(old), s.digestKey(old)} {
				if err := mgr.Del(key); err != nil {
					t.Fatal(err)
				}
			}
			for _, v := range m.Vars {
				if err := mgr.Del(s.dataKey(old, v.Name)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return fs
}

// reopen opens the store a retentionRun left, as a restart would.
func reopen(t *testing.T, fs vfs.FS) *Store {
	t.Helper()
	mgr, err := core.NewManager("app", retentionOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	return New(mgr, Options{Keep: 2})
}

// tableBytes sums the sizes of the store's .sst files.
func tableBytes(t *testing.T, fs vfs.FS, dir string) int64 {
	t.Helper()
	names, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, name := range names {
		if strings.HasSuffix(name, ".sst") {
			n, err := fs.Stat(dir + "/" + name)
			if err != nil {
				t.Fatal(err)
			}
			total += n
		}
	}
	return total
}

// TestRetentionFreesDroppedSteps: with compaction off, the tables of the
// steps retention drops leave the store, so it holds little more than the
// two kept steps (stored_B_per_live_B of the ckpt-llm benchmark, at a
// smaller scale). After a restart a Get of the newest step probes fewer
// tables than after point deletes: their tombstones, flushed at close,
// fill the newest table, whose key range runs from the dropped step's
// data to its manifest key and so covers every later step's data.
func TestRetentionFreesDroppedSteps(t *testing.T) {
	fs := retentionRun(t, 2)
	const live = 2 * 8 * 128 << 10
	stored := tableBytes(t, fs, "app")
	if float64(stored) > 1.05*live {
		t.Fatalf("tables hold %d bytes for %d live bytes (%.3f), want <= 1.05", stored, live, float64(stored)/live)
	}
	s := reopen(t, fs)
	steps, err := s.Steps()
	if err != nil || fmt.Sprint(steps) != "[7 8]" {
		t.Fatalf("steps after retention: %v, %v", steps, err)
	}
	for _, step := range steps {
		if _, err := s.ReadAll(step); err != nil {
			t.Fatalf("kept step %d: %v", step, err)
		}
	}

	probes := func(s *Store) int64 {
		h := s.mgr.Obs().Histogram("lsm.get.tables")
		h.Reset()
		if _, err := s.mgr.Get(s.dataKey(8, "v0")); err != nil {
			t.Fatal(err)
		}
		return h.Snapshot().Sum
	}
	dropped, old := probes(s), probes(reopen(t, retentionRun(t, 0)))
	t.Logf("stored/live %.4f; a Get of the newest step probes %d tables after the drops, %d after point deletes",
		float64(stored)/live, dropped, old)
	if dropped >= old {
		t.Fatal("want fewer tables probed after the drops")
	}
}
