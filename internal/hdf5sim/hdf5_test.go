package hdf5sim

import (
	"bytes"
	"fmt"
	"testing"

	"lsmio/internal/vfs"
)

func spec(total, chunk int64) DatasetSpec {
	return DatasetSpec{Name: "data", TotalLen: total, ChunkLen: chunk, ElemSize: 1}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := vfs.NewMemFS()
	h, err := Create(fs, "f.h5", spec(1<<20, 64<<10))
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MB
	if err := h.WriteHyperslab(0, payload, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := Open(fs, "f.h5")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := g.ReadHyperslab(0, got, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted through HDF5-like file")
	}
	if g.spec.ChunkLen != 64<<10 || g.spec.TotalLen != 1<<20 {
		t.Fatalf("spec lost on reopen: %+v", g.spec)
	}
	g.Close()
}

func TestPartialAndStridedWrites(t *testing.T) {
	fs := vfs.NewMemFS()
	s := spec(8*64<<10, 64<<10)
	h, _ := Create(fs, "f.h5", s)
	// Write chunks 3 and 5 only (a rank's hyperslab in a shared file).
	c3 := bytes.Repeat([]byte{3}, 64<<10)
	c5 := bytes.Repeat([]byte{5}, 64<<10)
	if err := h.WriteHyperslab(3*64<<10, c3, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteHyperslab(5*64<<10, c5, nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64<<10)
	if err := h.ReadHyperslab(5*64<<10, got, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, c5) {
		t.Fatal("chunk 5 mismatch")
	}
	// An unwritten chunk is reported missing, not silently zero.
	if err := h.ReadHyperslab(4*64<<10, got, nil); err == nil {
		t.Fatal("reading an unwritten chunk should error")
	}
	h.Close()
}

func TestUnalignedAccessRejected(t *testing.T) {
	fs := vfs.NewMemFS()
	h, _ := Create(fs, "f.h5", spec(1<<20, 64<<10))
	defer h.Close()
	if err := h.WriteHyperslab(100, make([]byte, 64<<10), nil); err == nil {
		t.Fatal("unaligned write should error")
	}
	if err := h.ReadHyperslab(100, make([]byte, 64<<10), nil); err == nil {
		t.Fatal("unaligned read should error")
	}
}

func TestBadSignatureRejected(t *testing.T) {
	fs := vfs.NewMemFS()
	f, _ := fs.Create("junk.h5")
	f.Write(bytes.Repeat([]byte("x"), 200))
	f.Close()
	if _, err := Open(fs, "junk.h5"); err == nil {
		t.Fatal("junk file should be rejected")
	}
	if _, err := Create(fs, "bad", DatasetSpec{}); err == nil {
		t.Fatal("empty spec should be rejected")
	}
}

func TestDeterministicLayoutIsDisjoint(t *testing.T) {
	s := spec(256*64<<10, 64<<10)
	seen := map[int64]bool{}
	for i := int64(0); i < s.numChunks(); i++ {
		off, length := s.chunkExtent(i)
		if off < s.dataStart() {
			t.Fatalf("chunk %d extent overlaps metadata region", i)
		}
		if length != 64<<10 {
			t.Fatalf("chunk %d length %d", i, length)
		}
		if seen[off] {
			t.Fatalf("chunk %d offset collides", i)
		}
		seen[off] = true
	}
	// B-tree nodes stay inside the metadata region.
	for i := int64(0); i < s.numChunks(); i++ {
		if o := s.btreeNodeOffset(i); o < btreeOff || o >= s.dataStart() {
			t.Fatalf("btree node for chunk %d at %d escapes metadata region", i, o)
		}
	}
}

type recordingSink struct {
	writes []string
	inner  DataSink
}

func (r *recordingSink) WriteAt(data []byte, off int64) error {
	r.writes = append(r.writes, fmt.Sprintf("%d+%d", off, len(data)))
	return r.inner.WriteAt(data, off)
}

func TestCustomSinkReceivesOnlyChunkData(t *testing.T) {
	fs := vfs.NewMemFS()
	h, _ := Create(fs, "f.h5", spec(4*64<<10, 64<<10))
	defer h.Close()
	f2, _ := fs.Open("f.h5")
	rec := &recordingSink{inner: fileSink{f2}}
	if err := h.WriteHyperslab(0, make([]byte, 2*64<<10), rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) != 2 {
		t.Fatalf("sink saw %v", rec.writes)
	}
}

func TestSharedFileTwoWriters(t *testing.T) {
	fs := vfs.NewMemFS()
	s := spec(4*64<<10, 64<<10)
	h, _ := Create(fs, "shared.h5", s)
	h.Close()
	// Two "ranks" open and write disjoint chunks.
	r0, _ := OpenShared(fs, "shared.h5")
	r1, _ := OpenShared(fs, "shared.h5")
	r0.WriteHyperslab(0, bytes.Repeat([]byte{1}, 2*64<<10), nil)
	r1.WriteHyperslab(2*64<<10, bytes.Repeat([]byte{2}, 2*64<<10), nil)
	r0.Close()
	r1.Close()

	g, _ := Open(fs, "shared.h5")
	defer g.Close()
	all := make([]byte, 4*64<<10)
	if err := g.ReadHyperslab(0, all, nil); err != nil {
		t.Fatal(err)
	}
	if all[0] != 1 || all[3*64<<10] != 2 {
		t.Fatal("shared writes lost")
	}
}

type countingPolicy struct{ calls int }

func (p *countingPolicy) Do(write func() error) error {
	p.calls++
	return write()
}

func TestMetadataPolicyHook(t *testing.T) {
	fs := vfs.NewMemFS()
	h, _ := Create(fs, "p.h5", spec(32*64<<10, 64<<10))
	defer h.Close()
	pol := &countingPolicy{}
	h.SetMetadataPolicy(pol)
	// 32 chunks: 32 B-tree updates + header stamps on a btreeFanout
	// schedule (write-through once per 16 chunks).
	if err := h.WriteHyperslab(0, make([]byte, 32*64<<10), nil); err != nil {
		t.Fatal(err)
	}
	want := 32 + 2 // btree per chunk + 2 header write-throughs
	if pol.calls != want {
		t.Fatalf("policy calls = %d, want %d", pol.calls, want)
	}
	// Nil restores the direct default without panicking.
	h.SetMetadataPolicy(nil)
	if err := h.WriteHyperslab(0, make([]byte, 64<<10), nil); err != nil {
		t.Fatal(err)
	}
}
