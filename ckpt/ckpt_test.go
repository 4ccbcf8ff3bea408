package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"lsmio/internal/core"
	"lsmio/internal/vfs"
)

func newStore(t *testing.T, keep int) (*Store, *core.Manager) {
	t.Helper()
	mgr, err := core.NewManager("app", core.ManagerOptions{
		Store: core.StoreOptions{FS: vfs.NewMemFS(), WriteBufferSize: 64 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(mgr, Options{Keep: keep}), mgr
}

func TestCheckpointLifecycle(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()

	if _, err := s.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store Latest: %v", err)
	}

	temp := bytes.Repeat([]byte{1, 2, 3, 4}, 10000)
	pres := bytes.Repeat([]byte{9}, 5000)
	c, err := s.Begin(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write("temperature", temp); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("pressure", pres); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	step, err := s.Latest()
	if err != nil || step != 100 {
		t.Fatalf("latest = %d, %v", step, err)
	}
	names, err := s.Manifest(100)
	if err != nil || len(names) != 2 {
		t.Fatalf("manifest: %v %v", names, err)
	}
	got, err := s.Read(100, "temperature")
	if err != nil || !bytes.Equal(got, temp) {
		t.Fatalf("read temperature: %v", err)
	}
	all, err := s.ReadAll(100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all["temperature"], temp) || !bytes.Equal(all["pressure"], pres) {
		t.Fatal("ReadAll contents wrong")
	}
}

func TestDuplicateStepRejected(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	c, _ := s.Begin(5)
	c.Write("v", []byte("x"))
	c.Commit()
	if _, err := s.Begin(5); err == nil {
		t.Fatal("re-beginning a committed step should fail")
	}
}

// TestRewrittenVariableLastWriteWins: writing one variable twice in a
// step keeps the second value, as the store does, and every read path
// agrees on it. The step is healthy: nothing reads it as corrupt, and a
// restore returns it rather than an older step.
func TestRewrittenVariableLastWriteWins(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	commitStep(t, s, 1, []byte("older step"))
	c, err := s.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"first", "second!"} {
		if err := c.Write("state", []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if names, err := s.Manifest(2); err != nil || fmt.Sprint(names) != "[state]" {
		t.Fatalf("manifest = %v, %v; want [state]", names, err)
	}
	if got, err := s.Read(2, "state"); err != nil || string(got) != "second!" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if all, err := s.ReadAll(2); err != nil || string(all["state"]) != "second!" {
		t.Fatalf("ReadAll = %q, %v", all["state"], err)
	}
	step, state, err := s.RestoreLatest()
	if err != nil || step != 2 || string(state["state"]) != "second!" {
		t.Fatalf("RestoreLatest = step %d %q, %v; want step 2 %q", step, state["state"], err, "second!")
	}
	if q, err := s.Quarantined(); err != nil || len(q) != 0 {
		t.Fatalf("quarantined %v, %v", q, err)
	}
}

func TestCommitDisciplines(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	c, _ := s.Begin(1)
	c.Write("v", []byte("x"))
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err == nil {
		t.Fatal("double commit should fail")
	}
	if err := c.Write("w", []byte("y")); err == nil {
		t.Fatal("write after commit should fail")
	}
	if err := c.Abort(); err == nil {
		t.Fatal("abort after commit should fail")
	}
	// Bad variable names are rejected.
	c2, _ := s.Begin(2)
	if err := c2.Write("a/b", []byte("x")); err == nil {
		t.Fatal("slash in name should be rejected")
	}
}

func TestUncommittedCheckpointInvisible(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	good, _ := s.Begin(10)
	good.Write("v", []byte("committed"))
	good.Commit()

	// "Crash" mid-checkpoint: data written, no commit.
	partial, _ := s.Begin(11)
	partial.Write("v", []byte("partial"))

	steps, err := s.Steps()
	if err != nil || len(steps) != 1 || steps[0] != 10 {
		t.Fatalf("steps = %v, %v", steps, err)
	}
	if step, _ := s.Latest(); step != 10 {
		t.Fatalf("latest = %d, partial checkpoint leaked", step)
	}
	if _, err := s.ReadAll(11); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("reading uncommitted step: %v", err)
	}
}

func TestAbortRemovesData(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	c, _ := s.Begin(7)
	c.Write("v", []byte("doomed"))
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Get(s.dataKey(7, "v")); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("aborted data still present: %v", err)
	}
}

func TestRetentionPrunesOldCheckpoints(t *testing.T) {
	s, mgr := newStore(t, 3)
	defer mgr.Close()
	for step := int64(1); step <= 6; step++ {
		c, err := s.Begin(step)
		if err != nil {
			t.Fatal(err)
		}
		c.Write("state", bytes.Repeat([]byte{byte(step)}, 1000))
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	steps, _ := s.Steps()
	if fmt.Sprint(steps) != "[4 5 6]" {
		t.Fatalf("retained steps = %v", steps)
	}
	// Pruned data keys are gone, retained ones readable.
	if _, err := mgr.Get(s.dataKey(1, "state")); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("pruned data survived: %v", err)
	}
	if v, err := s.Read(6, "state"); err != nil || v[0] != 6 {
		t.Fatalf("retained checkpoint unreadable: %v", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	c, _ := s.Begin(1)
	c.Write("v", []byte("pristine"))
	c.Commit()
	// Corrupt the stored value behind the checkpoint layer's back.
	mgr.Put(s.dataKey(1, "v"), []byte("tampered"))
	if _, err := s.Read(1, "v"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of tampered data: %v", err)
	}
	if _, err := s.ReadAll(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadAll of tampered data: %v", err)
	}
}

func TestDropCheckpoint(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	for step := int64(1); step <= 3; step++ {
		c, _ := s.Begin(step)
		c.Write("v", []byte("x"))
		c.Commit()
	}
	if err := s.Drop(2); err != nil {
		t.Fatal(err)
	}
	steps, _ := s.Steps()
	if fmt.Sprint(steps) != "[1 3]" {
		t.Fatalf("steps after drop = %v", steps)
	}
	if err := s.Drop(2); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("double drop: %v", err)
	}
}

func TestRestartAcrossReopen(t *testing.T) {
	fs := vfs.NewMemFS()
	open := func() (*Store, *core.Manager) {
		mgr, err := core.NewManager("app", core.ManagerOptions{
			Store: core.StoreOptions{FS: fs, WriteBufferSize: 64 << 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		return New(mgr, Options{}), mgr
	}
	s, mgr := open()
	c, _ := s.Begin(42)
	payload := bytes.Repeat([]byte("state"), 20000)
	c.Write("field", payload)
	c.Commit()
	mgr.Close()

	// Simulated restart: fresh manager over the same filesystem.
	s2, mgr2 := open()
	defer mgr2.Close()
	step, err := s2.Latest()
	if err != nil || step != 42 {
		t.Fatalf("latest after reopen: %d %v", step, err)
	}
	all, err := s2.ReadAll(42)
	if err != nil || !bytes.Equal(all["field"], payload) {
		t.Fatalf("restore after reopen: %v", err)
	}
}

func TestCustomPrefixIsolation(t *testing.T) {
	_, mgr := newStore(t, 0)
	defer mgr.Close()
	a := New(mgr, Options{Prefix: "appA"})
	b := New(mgr, Options{Prefix: "appB"})
	ca, _ := a.Begin(1)
	ca.Write("v", []byte("A"))
	ca.Commit()
	if _, err := b.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("prefix isolation broken: %v", err)
	}
}
