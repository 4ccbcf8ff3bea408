package faultfs

import (
	"errors"
	"testing"

	"lsmio/internal/resil"
	"lsmio/internal/vfs"
)

func writeFile(t *testing.T, fs vfs.FS, name string, data []byte, sync bool) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			t.Fatalf("sync %s: %v", name, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close %s: %v", name, err)
	}
}

func readFile(t *testing.T, fs vfs.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer f.Close()
	data, err := vfs.ReadAll(f)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return data
}

func TestRuleNthAndTimes(t *testing.T) {
	fs := New(vfs.NewMemFS())
	fs.AddRule(&Rule{Op: OpWrite, Path: "a/*.log", Nth: 2, Times: 2})

	f, err := fs.Create("a/x.log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("one")); err != nil {
		t.Fatalf("1st write should pass: %v", err)
	}
	if _, err := f.Write([]byte("two")); !errors.Is(err, ErrInjected) {
		t.Fatalf("2nd write: want ErrInjected, got %v", err)
	}
	if _, err := f.Write([]byte("three")); !errors.Is(err, ErrInjected) {
		t.Fatalf("3rd write: want ErrInjected, got %v", err)
	}
	if _, err := f.Write([]byte("four")); err != nil {
		t.Fatalf("4th write should pass: %v", err)
	}
	if got := fs.Injected(); got != 2 {
		t.Fatalf("Injected = %d, want 2", got)
	}

	// Non-matching path is untouched.
	g, err := fs.Create("b/other.dat")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("ok")); err != nil {
		t.Fatalf("non-matching write: %v", err)
	}
}

func TestTransientClassification(t *testing.T) {
	fs := New(vfs.NewMemFS())
	fs.AddRule(&Rule{Op: OpSync, Transient: true, Times: 1})
	f, _ := fs.Create("f")
	err := f.Sync()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if resil.Classify(err) != resil.ClassTransient {
		t.Fatalf("want transient, got %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("second sync should pass: %v", err)
	}
	// Permanent errors are not transient.
	fs.AddRule(&Rule{Op: OpSync, Times: 1})
	if err := f.Sync(); resil.Classify(err) == resil.ClassTransient || !errors.Is(err, ErrInjected) {
		t.Fatalf("want permanent injected error, got %v", err)
	}
}

func TestTornWrite(t *testing.T) {
	fs := New(vfs.NewMemFS())
	fs.AddRule(&Rule{Op: OpWrite, Path: "torn", KeepPrefix: 4, Times: 1})
	f, _ := fs.Create("torn")
	n, err := f.Write([]byte("abcdefgh"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if n != 4 {
		t.Fatalf("n = %d, want 4 (torn prefix)", n)
	}
	f.Close()
	if got := readFile(t, fs, "torn"); string(got) != "abcd" {
		t.Fatalf("persisted %q, want %q", got, "abcd")
	}
}

func TestCrashDiscardsUnsynced(t *testing.T) {
	fs := New(vfs.NewMemFS())
	writeFile(t, fs, "synced", []byte("durable"), true)
	writeFile(t, fs, "unsynced", []byte("volatile"), false)

	// Partially synced: sync, then write more without sync.
	f, _ := fs.Create("partial")
	f.Write([]byte("keep-"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("lose"))

	if err := fs.Crash(); err != nil {
		t.Fatal(err)
	}

	// Old handle is dead.
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("stale handle write: want ErrCrashed, got %v", err)
	}

	if got := readFile(t, fs, "synced"); string(got) != "durable" {
		t.Fatalf("synced = %q", got)
	}
	if got := readFile(t, fs, "unsynced"); len(got) != 0 {
		t.Fatalf("unsynced survived crash: %q", got)
	}
	if got := readFile(t, fs, "partial"); string(got) != "keep-" {
		t.Fatalf("partial = %q, want %q", got, "keep-")
	}
}

func TestRenameMovesDurableImage(t *testing.T) {
	fs := New(vfs.NewMemFS())
	writeFile(t, fs, "tmp", []byte("payload"), true)
	if err := fs.Rename("tmp", "final"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Crash(); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("tmp") {
		t.Fatal("tmp survived rename+crash")
	}
	if got := readFile(t, fs, "final"); string(got) != "payload" {
		t.Fatalf("final = %q", got)
	}
}

func TestBarrierMakesAllDurable(t *testing.T) {
	fs := New(vfs.NewMemFS())
	writeFile(t, fs, "a", []byte("aa"), false)
	writeFile(t, fs, "b", []byte("bb"), false)
	if err := fs.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs, "a"); string(got) != "aa" {
		t.Fatalf("a = %q", got)
	}
	if got := readFile(t, fs, "b"); string(got) != "bb" {
		t.Fatalf("b = %q", got)
	}
}

func TestPreexistingFilesAreDurable(t *testing.T) {
	inner := vfs.NewMemFS()
	h, _ := inner.Create("seed")
	h.Write([]byte("old"))
	h.Close()

	fs := New(inner)
	f, err := fs.Open("seed")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs, "seed"); string(got) != "old" {
		t.Fatalf("seed = %q, want %q", got, "old")
	}
}

func TestCrashPointEnumeration(t *testing.T) {
	fs := New(vfs.NewMemFS())
	if err := fs.StartRecording(); err != nil {
		t.Fatal(err)
	}

	// Boundary 1: create a. Boundary 2: sync a ("v1").
	// Boundary 3: create a.tmp. Boundary 4: sync a.tmp ("v2").
	// Boundary 5: rename a.tmp -> a.
	a, _ := fs.Create("a")
	a.Write([]byte("v1"))
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	tmp, _ := fs.Create("a.tmp")
	tmp.Write([]byte("v2"))
	if err := tmp.Sync(); err != nil {
		t.Fatal(err)
	}
	tmp.Close()
	if err := fs.Rename("a.tmp", "a"); err != nil {
		t.Fatal(err)
	}
	fs.StopRecording()

	pts := fs.CrashPoints()
	if len(pts) != 5 {
		t.Fatalf("crash points = %d, want 5: %+v", len(pts), pts)
	}
	wantOps := []Op{OpCreate, OpSync, OpCreate, OpSync, OpRename}
	for i, p := range pts {
		if p.Op != wantOps[i] {
			t.Fatalf("point %d op = %v, want %v", i, p.Op, wantOps[i])
		}
	}

	read := func(m *vfs.MemFS, name string) (string, bool) {
		if !m.Exists(name) {
			return "", false
		}
		f, err := m.Open(name)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		defer f.Close()
		d, err := vfs.ReadAll(f)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		return string(d), true
	}

	type want struct {
		a, tmp string
		hasA   bool
		hasTmp bool
	}
	wants := []want{
		0: {},                                             // before anything
		1: {hasA: true, a: ""},                            // a created, empty durable
		2: {hasA: true, a: "v1"},                          // a synced
		3: {hasA: true, a: "v1", hasTmp: true},            // tmp created
		4: {hasA: true, a: "v1", hasTmp: true, tmp: "v2"}, // tmp synced
		5: {hasA: true, a: "v2"},                          // rename installed
	}
	for b, w := range wants {
		st, err := fs.StateAfter(b)
		if err != nil {
			t.Fatalf("StateAfter(%d): %v", b, err)
		}
		gotA, hasA := read(st, "a")
		gotTmp, hasTmp := read(st, "a.tmp")
		if hasA != w.hasA || hasTmp != w.hasTmp || gotA != w.a || gotTmp != w.tmp {
			t.Fatalf("boundary %d: a=(%q,%v) tmp=(%q,%v), want a=(%q,%v) tmp=(%q,%v)",
				b, gotA, hasA, gotTmp, hasTmp, w.a, w.hasA, w.tmp, w.hasTmp)
		}
	}
}

func TestRecordingBaseIncludesPriorState(t *testing.T) {
	inner := vfs.NewMemFS()
	inner.MkdirAll("d")
	h, _ := inner.Create("d/old")
	h.Write([]byte("base"))
	h.Close()

	fs := New(inner)
	if err := fs.StartRecording(); err != nil {
		t.Fatal(err)
	}
	writeFile(t, fs, "new", []byte("fresh"), true)
	fs.StopRecording()

	st, err := fs.StateAfter(0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := st.Open("d/old")
	if err != nil {
		t.Fatalf("base file missing from state: %v", err)
	}
	d, _ := vfs.ReadAll(f)
	f.Close()
	if string(d) != "base" {
		t.Fatalf("base content = %q", d)
	}
	if st.Exists("new") {
		t.Fatal("boundary-0 state should not contain post-recording file")
	}
}

func TestCustomRuleError(t *testing.T) {
	sentinel := errors.New("boom")
	fs := New(vfs.NewMemFS())
	fs.AddRule(&Rule{Op: OpCreate, Err: sentinel, Times: 1})
	_, err := fs.Create("x")
	if !errors.Is(err, sentinel) || !errors.Is(err, ErrInjected) {
		t.Fatalf("want wrapped sentinel + ErrInjected, got %v", err)
	}
}
