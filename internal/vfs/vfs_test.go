package vfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"testing/quick"
)

// fsUnderTest runs the same behavioural suite over every FS implementation.
func fsUnderTest(t *testing.T) map[string]FS {
	osfs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]FS{
		"mem": NewMemFS(),
		"os":  osfs,
	}
}

func TestCreateWriteRead(t *testing.T) {
	for name, fsys := range fsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fsys.Create("dir/sub/file.dat")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("hello ")); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("world")); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			g, err := fsys.Open("dir/sub/file.dat")
			if err != nil {
				t.Fatal(err)
			}
			data, err := ReadAll(g)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != "hello world" {
				t.Fatalf("got %q", data)
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReadAtWriteAt(t *testing.T) {
	for name, fsys := range fsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fsys.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte("abcdef"), 0); err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte("XY"), 2); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 6)
			if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if string(buf) != "abXYef" {
				t.Fatalf("got %q", buf)
			}
			// Sparse extension.
			if _, err := f.WriteAt([]byte("Z"), 10); err != nil {
				t.Fatal(err)
			}
			if size, _ := f.Size(); size != 11 {
				t.Fatalf("size = %d, want 11", size)
			}
		})
	}
}

func TestSeek(t *testing.T) {
	for name, fsys := range fsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			f, _ := fsys.Create("f")
			defer f.Close()
			f.Write([]byte("0123456789"))
			if pos, err := f.Seek(2, io.SeekStart); err != nil || pos != 2 {
				t.Fatalf("seek: %v %v", pos, err)
			}
			b := make([]byte, 3)
			f.Read(b)
			if string(b) != "234" {
				t.Fatalf("got %q", b)
			}
			if pos, _ := f.Seek(-2, io.SeekEnd); pos != 8 {
				t.Fatalf("seek end: %d", pos)
			}
			if pos, _ := f.Seek(1, io.SeekCurrent); pos != 9 {
				t.Fatalf("seek current: %d", pos)
			}
		})
	}
}

func TestOpenMissing(t *testing.T) {
	for name, fsys := range fsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := fsys.Open("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("err = %v, want ErrNotExist", err)
			}
			if _, err := fsys.Stat("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("stat err = %v", err)
			}
			if err := fsys.Remove("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("remove err = %v", err)
			}
		})
	}
}

func TestRename(t *testing.T) {
	for name, fsys := range fsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			f, _ := fsys.Create("a")
			f.Write([]byte("payload"))
			f.Close()
			if err := fsys.Rename("a", "b/c"); err != nil {
				t.Fatal(err)
			}
			if fsys.Exists("a") {
				t.Fatal("old name still exists")
			}
			g, err := fsys.Open("b/c")
			if err != nil {
				t.Fatal(err)
			}
			data, _ := ReadAll(g)
			g.Close()
			if string(data) != "payload" {
				t.Fatalf("got %q", data)
			}
		})
	}
}

func TestList(t *testing.T) {
	for name, fsys := range fsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			for _, p := range []string{"d/b", "d/a", "d/sub/x", "top"} {
				f, err := fsys.Create(p)
				if err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			names, err := fsys.List("d")
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"a", "b", "sub"}
			if len(names) != len(want) {
				t.Fatalf("names = %v, want %v", names, want)
			}
			for i := range want {
				if names[i] != want[i] {
					t.Fatalf("names = %v, want %v", names, want)
				}
			}
		})
	}
}

func TestTruncate(t *testing.T) {
	for name, fsys := range fsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			f, _ := fsys.Create("f")
			defer f.Close()
			f.Write([]byte("0123456789"))
			if err := f.Truncate(4); err != nil {
				t.Fatal(err)
			}
			if size, _ := f.Size(); size != 4 {
				t.Fatalf("size = %d", size)
			}
			if err := f.Truncate(8); err != nil {
				t.Fatal(err)
			}
			data, _ := ReadAll(f)
			if !bytes.Equal(data, []byte{'0', '1', '2', '3', 0, 0, 0, 0}) {
				t.Fatalf("data = %q", data)
			}
		})
	}
}

func TestClosedFileRejectsIO(t *testing.T) {
	fsys := NewMemFS()
	f, _ := fsys.Create("f")
	f.Close()
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write err = %v", err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read err = %v", err)
	}
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close err = %v", err)
	}
}

// A shrinking Truncate discards the bytes it cuts off: a later write past
// the new end leaves a hole that reads as zeros, as POSIX requires.
func TestShrinkThenWriteLeavesZeroHole(t *testing.T) {
	for name, fsys := range fsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fsys.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt(bytes.Repeat([]byte{0xAA}, 4096), 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Truncate(100); err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte{1}, 2000); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 2001)
			if n, err := f.ReadAt(buf, 0); n != len(buf) || (err != nil && err != io.EOF) {
				t.Fatalf("ReadAt = %d, %v", n, err)
			}
			want := append(append(bytes.Repeat([]byte{0xAA}, 100), make([]byte, 1900)...), 1)
			if i := firstDiff(buf, want); i >= 0 {
				t.Fatalf("byte %d = %#x, want %#x", i, buf[i], want[i])
			}
		})
	}
}

// A closed MemFS hands its full pages on to the next one with their old
// bytes in them. None of those bytes may show: every hole reads as
// zeros, whether it lies inside a page, at a page's start, or behind a
// growing Truncate.
func TestReusedPageShowsNoOldBytes(t *testing.T) {
	old := NewMemFS()
	for i := range 8 {
		f, err := old.Create(fmt.Sprintf("f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(bytes.Repeat([]byte{0xA5}, 2*memPageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	fsys := NewMemFS()
	defer fsys.Close()
	for _, tc := range []struct {
		name  string
		ops   func(f File) error
		wrote func(want []byte) // sets the bytes ops wrote in a zero buffer
	}{
		{"inside a page", func(f File) error {
			if _, err := f.WriteAt(bytes.Repeat([]byte{1}, 100), 0); err != nil {
				return err
			}
			_, err := f.WriteAt([]byte{2}, 600_000)
			return err
		}, func(want []byte) {
			copy(want, bytes.Repeat([]byte{1}, 100))
			want[600_000] = 2
		}},
		{"at a page's start", func(f File) error {
			_, err := f.WriteAt([]byte{3}, memPageSize+700_000)
			return err
		}, func(want []byte) { want[memPageSize+700_000] = 3 }},
		{"after a growing Truncate", func(f File) error {
			if _, err := f.WriteAt(bytes.Repeat([]byte{4}, 600_000), 0); err != nil {
				return err
			}
			if err := f.Truncate(100); err != nil {
				return err
			}
			if err := f.Truncate(900_000); err != nil {
				return err
			}
			_, err := f.WriteAt([]byte{5}, 800_000)
			return err
		}, func(want []byte) {
			copy(want, bytes.Repeat([]byte{4}, 100))
			want[800_000] = 5
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := fsys.Create(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.ops(f); err != nil {
				t.Fatal(err)
			}
			got, err := ReadAll(f)
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range got {
				if b == 0xA5 {
					t.Fatalf("byte %d of %d reads 0xa5, a byte of the closed filesystem", i, len(got))
				}
			}
			want := make([]byte, len(got))
			tc.wrote(want)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("byte %d = %#x, want %#x", i, got[i], want[i])
			}
		})
	}
}

// Close may race with calls on open files: each call either completes
// on the file's own bytes or returns ErrClosed, and once one has
// returned ErrClosed every later one does.
func TestCloseWhileFilesAreInUse(t *testing.T) {
	fsys := NewMemFS()
	var wg sync.WaitGroup
	started := make(chan struct{}, 4)
	for g := range 4 {
		f, err := fsys.Create(fmt.Sprintf("f%d", g))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(g + 1)}, 256<<10)
			buf := make([]byte, len(data))
			closed := false
			for i := 0; i < 200; i++ {
				if i == 1 {
					started <- struct{}{}
				}
				off := int64(i%8) * int64(len(data))
				_, werr := f.WriteAt(data, off)
				n, rerr := f.ReadAt(buf, off)
				for _, err := range []error{werr, rerr} {
					switch {
					case errors.Is(err, ErrClosed):
						closed = true
					case err != nil && err != io.EOF:
						t.Errorf("file %d op %d: %v", g, i, err)
						return
					case closed:
						t.Errorf("file %d op %d succeeded after an ErrClosed", g, i)
						return
					}
				}
				if rerr == nil && !bytes.Equal(buf[:n], data) {
					t.Errorf("file %d op %d read bytes it did not write", g, i)
					return
				}
			}
		}()
	}
	for range 4 {
		<-started
	}
	if err := fsys.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// memOp is one step of a MemFS model program: a WriteAt, a Truncate or a
// ReadAt (Kind%3), at an offset below three pages, or, for one Kind in
// 16, a release: the filesystem is closed, handing its pages back, and
// the program goes on with an empty file on a fresh MemFS, whose pages
// may be the released ones. Half the ops are centred on a page boundary.
type memOp struct {
	Kind uint8
	Off  uint32
	Len  uint16
	Fill byte
}

func (op memOp) offset() int64 {
	off := int64(op.Off>>2) % (3 * memPageSize)
	if op.Off&1 == 0 {
		off = max(0, (off/memPageSize+1)*memPageSize-int64(op.Len/2))
	}
	return off
}

// decodeMemOps reads a program from fuzz bytes, eight bytes per op.
func decodeMemOps(b []byte) []memOp {
	var ops []memOp
	for ; len(b) >= 8; b = b[8:] {
		ops = append(ops, memOp{
			Kind: b[0],
			Off:  binary.LittleEndian.Uint32(b[1:]),
			Len:  binary.LittleEndian.Uint16(b[5:]),
			Fill: b[7],
		})
	}
	return ops
}

// checkMemFSOps runs ops on a MemFS file and on a flat-slice model, and
// reports the first difference: in size, in a read's bytes, n or io.EOF,
// or in the final contents.
func checkMemFSOps(ops []memOp) error {
	fsys := NewMemFS()
	defer func() { fsys.Close() }()
	f, err := fsys.Create("f")
	if err != nil {
		return err
	}
	var model []byte
	for i, op := range ops {
		off := op.offset()
		if op.Kind%16 == 15 {
			if err := fsys.Close(); err != nil {
				return fmt.Errorf("op %d: Close: %v", i, err)
			}
			fsys = NewMemFS()
			if f, err = fsys.Create("f"); err != nil {
				return err
			}
			model = nil
			continue
		}
		switch op.Kind % 3 {
		case 0:
			data := make([]byte, op.Len)
			for j := range data {
				data[j] = op.Fill + byte(j)
			}
			if end := off + int64(len(data)); end > int64(len(model)) {
				model = append(model, make([]byte, end-int64(len(model)))...)
			}
			copy(model[off:], data)
			if n, err := f.WriteAt(data, off); n != len(data) || err != nil {
				return fmt.Errorf("op %d: WriteAt(%d B, %d) = %d, %v", i, len(data), off, n, err)
			}
		case 1:
			if off < int64(len(model)) {
				model = model[:off]
			} else {
				model = append(model, make([]byte, off-int64(len(model)))...)
			}
			if err := f.Truncate(off); err != nil {
				return fmt.Errorf("op %d: Truncate(%d): %v", i, off, err)
			}
		case 2:
			buf := make([]byte, op.Len)
			n, err := f.ReadAt(buf, off)
			var want []byte
			if off < int64(len(model)) {
				want = model[off:min(int64(len(model)), off+int64(len(buf)))]
			}
			wantEOF := off >= int64(len(model)) || len(want) < len(buf)
			if n != len(want) || (err == io.EOF) != wantEOF || (err != nil && err != io.EOF) {
				return fmt.Errorf("op %d: ReadAt(%d B, %d) of %d B = %d, %v; want %d, EOF %v",
					i, len(buf), off, len(model), n, err, len(want), wantEOF)
			}
			if j := firstDiff(buf[:n], want); j >= 0 {
				return fmt.Errorf("op %d: ReadAt(%d B, %d): byte %d differs", i, len(buf), off, j)
			}
		}
		if size, _ := f.Size(); size != int64(len(model)) {
			return fmt.Errorf("op %d: size %d, model %d", i, size, len(model))
		}
	}
	got, err := ReadAll(f)
	if err != nil {
		return err
	}
	if j := firstDiff(got, model); j >= 0 {
		return fmt.Errorf("final contents differ at byte %d", j)
	}
	return nil
}

// Property: for any program of writes, truncations and reads, MemFS
// matches a flat-slice reference model.
func TestQuickWriteAtMatchesModel(t *testing.T) {
	fn := func(ops []memOp) bool {
		if err := checkMemFSOps(ops); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func FuzzMemFSOps(f *testing.F) {
	op := func(kind uint8, off uint32, n uint16, fill byte) []byte {
		b := []byte{kind, 0, 0, 0, 0, 0, 0, fill}
		binary.LittleEndian.PutUint32(b[1:], off)
		binary.LittleEndian.PutUint16(b[5:], n)
		return b
	}
	// The hole sequence of TestShrinkThenWriteLeavesZeroHole, then a
	// write across a page boundary and a read across one and past EOF.
	f.Add(bytes.Join([][]byte{
		op(0, 0<<2|1, 4096, 0xAA),
		op(1, 100<<2|1, 0, 0),
		op(0, 2000<<2|1, 1, 1),
		op(2, 0<<2|1, 4096, 0),
		op(0, (2*memPageSize-7)<<2|1, 60000, 3),
		op(2, (3*memPageSize-5)<<2|1, 65535, 0),
	}, nil))
	// A full page written and released, then, on the fresh MemFS, a
	// write far into a page, a read of the hole before it, a shrink, a
	// growing Truncate, a write past the cut and a read of it all.
	f.Add(bytes.Join([][]byte{
		op(0, 0<<2|1, 65535, 0x55),
		op(0, (memPageSize-65535)<<2|1, 65535, 0x66),
		op(15, 0, 0, 0),
		op(0, 700000<<2|1, 100, 7),
		op(2, 0<<2|1, 65535, 0),
		op(1, 700010<<2|1, 0, 0),
		op(1, 900000<<2|1, 0, 0),
		op(0, 800000<<2|1, 1, 9),
		op(2, 699990<<2|1, 65535, 0),
	}, nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := checkMemFSOps(decodeMemOps(b)); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMemFSTotalBytes(t *testing.T) {
	fsys := NewMemFS()
	f, _ := fsys.Create("a")
	f.Write(make([]byte, 100))
	f.Close()
	g, _ := fsys.Create("b")
	g.Write(make([]byte, 50))
	g.Close()
	if got := fsys.TotalBytes(); got != 150 {
		t.Fatalf("TotalBytes = %d", got)
	}
}

// shortReadFile claims a larger size than ReadAt delivers, modeling a
// file truncated between Stat and read (or a lying transport).
type shortReadFile struct {
	File
	claim int64
}

func (s *shortReadFile) Size() (int64, error) { return s.claim, nil }

func (s *shortReadFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := s.File.ReadAt(p, off)
	if err == io.EOF {
		err = nil
	}
	return n, err
}

func TestReadAllShortReadIsError(t *testing.T) {
	fsys := NewMemFS()
	f, _ := fsys.Create("f")
	f.Write([]byte("only-8b!"))
	got, err := ReadAll(&shortReadFile{File: f, claim: 64})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want io.ErrUnexpectedEOF, got %v", err)
	}
	if string(got) != "only-8b!" {
		t.Fatalf("partial buffer = %q", got)
	}
	f.Close()
}
