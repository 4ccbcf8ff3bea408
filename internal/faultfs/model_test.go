package faultfs

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"lsmio/internal/vfs"
)

// lastState materializes the image after the last recorded boundary.
func lastState(t *testing.T, fs *FS) *vfs.MemFS {
	t.Helper()
	st, err := fs.StateAfter(len(fs.CrashPoints()))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSyncAfterRemoveDoesNotResurrect syncs a handle whose file was
// removed: the bytes belong to a file no name reaches, so neither a crash
// nor any recorded image may bring the name back.
func TestSyncAfterRemoveDoesNotResurrect(t *testing.T) {
	fs := New(vfs.NewMemFS())
	if err := fs.StartRecording(); err != nil {
		t.Fatal(err)
	}
	h, err := fs.Create("gone")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.StopRecording()

	if lastState(t, fs).Exists("gone") {
		t.Fatal("StateAfter: a removed file came back through a sync on its old handle")
	}
	if err := fs.Crash(); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("gone") {
		t.Fatal("Crash: a removed file came back through a sync on its old handle")
	}
}

// TestSyncAfterRenameFollowsTheFile syncs a handle opened under the name
// the file had before a rename: fsync is on the file, so its bytes are
// durable under the new name and the old name stays gone.
func TestSyncAfterRenameFollowsTheFile(t *testing.T) {
	fs := New(vfs.NewMemFS())
	if err := fs.StartRecording(); err != nil {
		t.Fatal(err)
	}
	h, err := fs.Create("tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("tmp", "final"); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.StopRecording()

	check := func(who string, m vfs.FS) {
		t.Helper()
		if m.Exists("tmp") {
			t.Fatalf("%s: tmp survived its rename", who)
		}
		if got := readFile(t, m, "final"); string(got) != "v2" {
			t.Fatalf("%s: final = %q, want %q", who, got, "v2")
		}
	}
	check("StateAfter", lastState(t, fs))
	if err := fs.Crash(); err != nil {
		t.Fatal(err)
	}
	check("Crash", fs)
}

// refFile is one file of the reference model: its live and durable bytes.
type refFile struct{ cur, dur []byte }

// refHandle is an open handle of the reference model. It keeps its file
// after the name moves on, as a handle on a real file system does.
type refHandle struct {
	h   vfs.File
	f   *refFile
	pos int64
}

// refImage is what the reference model says one boundary leaves durable.
type refImage struct {
	files map[string]string
	dirs  map[string]bool
}

var (
	modelFiles = []string{"f0", "f1", "d/f2", "d/f3"}
	modelDirs  = []string{"d", "g"}
)

// runModel runs the program prog against a recording FS and against a
// reference model of per-file live and durable bytes, then checks every
// recorded image and the state after Crash against the model.
func runModel(t *testing.T, prog []byte) {
	fs := New(vfs.NewMemFS())
	if err := fs.StartRecording(); err != nil {
		t.Fatal(err)
	}
	names := map[string]*refFile{}
	dirs := map[string]bool{}
	var handles []*refHandle
	snap := func() refImage {
		im := refImage{files: map[string]string{}, dirs: map[string]bool{}}
		for n, f := range names {
			im.files[n] = string(f.dur)
		}
		for d := range dirs {
			im.dirs[d] = true
		}
		return im
	}
	images := []refImage{snap()}
	boundary := func() { images = append(images, snap()) }
	write := func(f *refFile, off int64, p []byte) {
		if len(p) == 0 {
			return
		}
		if end := off + int64(len(p)); end > int64(len(f.cur)) {
			f.cur = append(f.cur, make([]byte, end-int64(len(f.cur)))...)
		}
		copy(f.cur[off:], p)
	}

	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	handle := func() *refHandle {
		if len(handles) == 0 {
			return nil
		}
		return handles[next()%len(handles)]
	}
	seq := 0
	payload := func() []byte {
		seq++
		n := 1 + next()%12
		return bytes.Repeat([]byte{byte('a' + seq%26)}, n)
	}
	for steps := 0; len(prog) > 0 && steps < 200; steps++ {
		switch next() % 11 {
		case 0: // create
			name := modelFiles[next()%len(modelFiles)]
			h, err := fs.Create(name)
			if err != nil {
				t.Fatalf("create %s: %v", name, err)
			}
			f := &refFile{}
			names[name] = f
			handles = append(handles, &refHandle{h: h, f: f})
			boundary()
		case 1: // open
			name := modelFiles[next()%len(modelFiles)]
			f, ok := names[name]
			h, err := fs.Open(name)
			if ok != (err == nil) {
				t.Fatalf("open %s: exists in model %v, err %v", name, ok, err)
			}
			if ok {
				handles = append(handles, &refHandle{h: h, f: f})
			}
		case 2: // write at the cursor
			if rh := handle(); rh != nil {
				p := payload()
				if _, err := rh.h.Write(p); err != nil {
					t.Fatalf("write: %v", err)
				}
				write(rh.f, rh.pos, p)
				rh.pos += int64(len(p))
			}
		case 3: // writeAt
			if rh := handle(); rh != nil {
				off, p := int64(next()%40), payload()
				if _, err := rh.h.WriteAt(p, off); err != nil {
					t.Fatalf("writeAt: %v", err)
				}
				write(rh.f, off, p)
			}
		case 4: // truncate
			if rh := handle(); rh != nil {
				size := int64(next() % 40)
				if err := rh.h.Truncate(size); err != nil {
					t.Fatalf("truncate: %v", err)
				}
				if size <= int64(len(rh.f.cur)) {
					rh.f.cur = rh.f.cur[:size]
				} else {
					rh.f.cur = append(rh.f.cur, make([]byte, size-int64(len(rh.f.cur)))...)
				}
			}
		case 5: // sync, also on handles whose file was renamed, replaced or removed
			if rh := handle(); rh != nil {
				if err := rh.h.Sync(); err != nil {
					t.Fatalf("sync: %v", err)
				}
				rh.f.dur = append([]byte(nil), rh.f.cur...)
				boundary()
			}
		case 6: // barrier
			if err := fs.Barrier(); err != nil {
				t.Fatalf("barrier: %v", err)
			}
			for _, f := range names {
				f.dur = append([]byte(nil), f.cur...)
			}
			boundary()
		case 7: // rename
			from, to := modelFiles[next()%len(modelFiles)], modelFiles[next()%len(modelFiles)]
			f, ok := names[from]
			if err := fs.Rename(from, to); ok != (err == nil) {
				t.Fatalf("rename %s %s: exists in model %v, err %v", from, to, ok, err)
			}
			if ok {
				delete(names, from)
				names[to] = f
				boundary()
			}
		case 8: // remove
			name := modelFiles[next()%len(modelFiles)]
			_, ok := names[name]
			if err := fs.Remove(name); ok != (err == nil) {
				t.Fatalf("remove %s: exists in model %v, err %v", name, ok, err)
			}
			if ok {
				delete(names, name)
				boundary()
			}
		case 9: // mkdir: durable at once, so part of the latest boundary's image
			d := modelDirs[next()%len(modelDirs)]
			if err := fs.MkdirAll(d); err != nil {
				t.Fatalf("mkdir %s: %v", d, err)
			}
			dirs[d] = true
			images[len(images)-1].dirs[d] = true
		case 10: // torn write: only a prefix reaches the file
			if rh := handle(); rh != nil {
				p := payload()
				keep := next() % (len(p) + 1)
				fs.AddRule(&Rule{Op: OpWrite, Path: rh.h.Name(), KeepPrefix: int64(keep)})
				n, err := rh.h.Write(p)
				if err == nil || n != keep {
					t.Fatalf("torn write: n = %d, err %v; want %d and an injected error", n, err, keep)
				}
				write(rh.f, rh.pos, p[:n])
				rh.pos += int64(n)
			}
		}
	}
	fs.StopRecording()

	if got, want := len(fs.CrashPoints()), len(images)-1; got != want {
		t.Fatalf("%d crash points, model crossed %d boundaries", got, want)
	}
	for b, want := range images {
		st, err := fs.StateAfter(b)
		if err != nil {
			t.Fatal(err)
		}
		if diff := compareImage(st, want); diff != "" {
			t.Fatalf("StateAfter(%d): %s", b, diff)
		}
	}
	if err := fs.Crash(); err != nil {
		t.Fatal(err)
	}
	final := snap()
	final.dirs = nil // Crash leaves directories alone
	if diff := compareImage(fs.Inner(), final); diff != "" {
		t.Fatalf("after Crash: %s", diff)
	}
}

// compareImage describes how m differs from want, or returns "". A nil
// want.dirs skips the directory check. A directory exists in m when it was
// made or when a file lives in it.
func compareImage(m vfs.FS, want refImage) string {
	var diffs []string
	for _, name := range modelFiles {
		w, ok := want.files[name]
		if ok != m.Exists(name) {
			diffs = append(diffs, fmt.Sprintf("%s exists %v, want %v", name, !ok, ok))
			continue
		}
		if !ok {
			continue
		}
		h, err := m.Open(name)
		if err != nil {
			return err.Error()
		}
		got, err := vfs.ReadAll(h)
		h.Close()
		if err != nil {
			return err.Error()
		}
		if string(got) != w {
			diffs = append(diffs, fmt.Sprintf("%s = %q, want %q", name, got, w))
		}
	}
	if want.dirs != nil {
		for _, d := range modelDirs {
			w := want.dirs[d]
			for name := range want.files {
				w = w || strings.HasPrefix(name, d+"/")
			}
			if m.Exists(d) != w {
				diffs = append(diffs, fmt.Sprintf("directory %s exists %v, want %v", d, !w, w))
			}
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}

// FuzzFaultFSModel runs programs of create/open/write/writeAt/truncate/
// sync/barrier/rename/remove/mkdir and torn writes, with syncs through
// stale handles, and checks every boundary's StateAfter image and the
// state after Crash against a reference model that keeps live and durable
// bytes per file.
func FuzzFaultFSModel(f *testing.F) {
	// create f0, write, sync, rename f0→f1, sync the old handle.
	f.Add([]byte{0, 0, 2, 0, 5, 5, 0, 7, 0, 1, 5, 0})
	// create d/f2, write, remove it, sync the old handle, barrier.
	f.Add([]byte{9, 0, 0, 2, 2, 0, 7, 8, 2, 5, 0, 6})
	// create f0, torn write, writeAt past the end, truncate, barrier, create f0 again.
	f.Add([]byte{0, 0, 10, 0, 9, 4, 3, 0, 30, 2, 4, 0, 10, 6, 0, 0, 2, 1, 3})
	f.Fuzz(func(t *testing.T, prog []byte) { runModel(t, prog) })
}
