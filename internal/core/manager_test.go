package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"lsmio/internal/obs/obstest"
	"lsmio/internal/vfs"
)

func newTestManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager("mgr", ManagerOptions{
		Store: StoreOptions{FS: vfs.NewMemFS(), WriteBufferSize: 64 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManagerKVRoundTrip(t *testing.T) {
	m := newTestManager(t)
	defer m.Close()
	if err := m.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := m.Get("k")
	if err != nil || string(v) != "v" {
		t.Fatalf("get: %q %v", v, err)
	}
	if err := m.Append("k", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Get("k"); string(v) != "v2" {
		t.Fatalf("append: %q", v)
	}
	if err := m.Del("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("del: %v", err)
	}
}

func TestManagerTypedPuts(t *testing.T) {
	m := newTestManager(t)
	defer m.Close()
	m.PutString("s", "hello")
	m.PutInt64("i", -42)
	m.PutFloat64("f", 3.25)
	if v, _ := m.Get("s"); string(v) != "hello" {
		t.Fatalf("string: %q", v)
	}
	if v, err := m.GetInt64("i"); err != nil || v != -42 {
		t.Fatalf("int64: %d %v", v, err)
	}
	if v, err := m.GetFloat64("f"); err != nil || v != 3.25 {
		t.Fatalf("float64: %v %v", v, err)
	}
	// Type confusion surfaces as an error, not garbage.
	if _, err := m.GetInt64("s"); err == nil {
		t.Fatal("GetInt64 on a string should error")
	}
}

func TestManagerCounters(t *testing.T) {
	m := newTestManager(t)
	defer m.Close()
	m.Put("a", bytes.Repeat([]byte("x"), 100))
	m.Put("b", bytes.Repeat([]byte("x"), 50))
	m.Get("a")
	m.Append("a", []byte("y"))
	m.Del("b")
	m.WriteBarrier()
	for name, want := range map[string]int64{
		"core.puts": 2, "core.gets": 1, "core.appends": 1, "core.dels": 1, "core.barriers": 1,
		"core.bytes_put": 151, "core.bytes_got": 100,
	} {
		if got := obstest.Counter(t, m.Obs(), name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestManagerFactory(t *testing.T) {
	opts := ManagerOptions{Store: StoreOptions{FS: vfs.NewMemFS()}}
	m1, err := GetManager("factory-dir", opts)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := GetManager("factory-dir", opts)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("factory returned different instances for one dir")
	}
	if err := ReleaseManager("factory-dir"); err != nil {
		t.Fatal(err)
	}
	if err := ReleaseManager("factory-dir"); err != nil {
		t.Fatal("double release should be a no-op")
	}
}

func TestFStreamWriteReadSeek(t *testing.T) {
	m := newTestManager(t)
	defer m.Close()
	sys := NewFStreamSystem(m)

	f, err := sys.Open("checkpoint.dat", ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("0123456789"), 500_000) // 5 MB: multiple chunks
	if _, err := f.Write(payload); err != nil {
		t.Fatal(err)
	}
	if f.TellP() != int64(len(payload)) {
		t.Fatalf("tellp = %d", f.TellP())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteBarrier(); err != nil {
		t.Fatal(err)
	}

	g, err := sys.Open("checkpoint.dat", ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != int64(len(payload)) {
		t.Fatalf("size = %d", g.Size())
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(g, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted through FStream")
	}
	// Seek into the middle.
	g.SeekP(1_000_003, io.SeekStart)
	small := make([]byte, 10)
	if _, err := g.Read(small); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(small, payload[1_000_003:1_000_013]) {
		t.Fatalf("seek read mismatch: %q", small)
	}
	if !g.Good() || g.Fail() {
		t.Fatal("stream state should be good")
	}
	g.Close()
}

func TestFStreamSeekEndAndOverwrite(t *testing.T) {
	m := newTestManager(t)
	defer m.Close()
	sys := NewFStreamSystem(m)
	f, _ := sys.Open("x", ModeWrite)
	f.Write([]byte("hello world"))
	f.SeekP(-5, io.SeekEnd)
	f.Write([]byte("WORLD"))
	f.SeekP(0, io.SeekStart)
	buf := make([]byte, 11)
	io.ReadFull(f, buf)
	if string(buf) != "hello WORLD" {
		t.Fatalf("got %q", buf)
	}
	f.Close()
}

func TestFStreamSparseHoleReadsZero(t *testing.T) {
	m := newTestManager(t)
	defer m.Close()
	sys := NewFStreamSystem(m)
	f, _ := sys.Open("sparse", ModeWrite)
	f.SeekP(3<<20, io.SeekStart) // skip 3 MB
	f.Write([]byte("tail"))
	f.Close()

	g, _ := sys.Open("sparse", ModeRead)
	g.SeekP(1<<20, io.SeekStart)
	buf := make([]byte, 16)
	if _, err := io.ReadFull(g, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatalf("hole not zero: %v", buf)
		}
	}
	g.SeekP(3<<20, io.SeekStart)
	io.ReadFull(g, buf[:4])
	if string(buf[:4]) != "tail" {
		t.Fatalf("tail = %q", buf[:4])
	}
	g.Close()
}

func TestFStreamOpenMissingForRead(t *testing.T) {
	m := newTestManager(t)
	defer m.Close()
	sys := NewFStreamSystem(m)
	if _, err := sys.Open("absent", ModeRead); err == nil {
		t.Fatal("opening a missing stream for read should fail")
	}
	if sys.Exists("absent") {
		t.Fatal("absent stream should not exist")
	}
}

func TestFStreamTruncateOnWriteMode(t *testing.T) {
	m := newTestManager(t)
	defer m.Close()
	sys := NewFStreamSystem(m)
	f, _ := sys.Open("t", ModeWrite)
	f.Write([]byte("long original content"))
	f.Close()
	g, _ := sys.Open("t", ModeWrite) // truncates
	g.Write([]byte("new"))
	g.Close()
	h, _ := sys.Open("t", ModeRead)
	if h.Size() != 3 {
		t.Fatalf("size after truncate = %d", h.Size())
	}
	h.Close()
}

// TestFStreamTruncate: after a ModeWrite reopen shrinks a stream, a hole
// in the new contents reads zeros, not the bytes the stream held before.
func TestFStreamTruncate(t *testing.T) {
	m := newTestManager(t)
	defer m.Close()
	sys := NewFStreamSystem(m)
	f, _ := sys.Open("t", ModeWrite)
	f.Write(bytes.Repeat([]byte("x"), 3<<20)) // spans multiple chunks
	f.Close()
	g, _ := sys.Open("t", ModeWrite) // truncates
	g.Write([]byte("new"))
	g.Close()

	g, _ = sys.Open("t", ModeReadWrite)
	g.SeekP(2<<20, io.SeekStart)
	g.Write([]byte("end"))
	g.Close()
	h, _ := sys.Open("t", ModeRead)
	defer h.Close()
	got := make([]byte, h.Size())
	if _, err := io.ReadFull(h, got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 2<<20+3)
	copy(want, "new")
	copy(want[2<<20:], "end")
	if !bytes.Equal(got, want) {
		t.Fatalf("regrown stream: %d bytes, old byte at %d", len(got), bytes.IndexByte(got, 'x'))
	}
}

func TestFStreamFailBit(t *testing.T) {
	m := newTestManager(t)
	defer m.Close()
	sys := NewFStreamSystem(m)
	f, _ := sys.Open("fb", ModeWrite)
	f.SeekP(-10, io.SeekStart) // invalid
	if !f.Fail() || f.Good() {
		t.Fatal("invalid seek should set the fail bit")
	}
	f.ClearError()
	if f.Fail() || !f.Good() {
		t.Fatal("ClearError should reset state")
	}
	f.Close()
}

func TestInitializeCleanupFStreams(t *testing.T) {
	sys, err := InitializeFStreams("fsys", ManagerOptions{
		Store: StoreOptions{FS: vfs.NewMemFS()},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := sys.Open("a", ModeWrite)
	f.Write([]byte("data"))
	f.Close()
	if err := sys.Cleanup(); err != nil {
		t.Fatal(err)
	}
}

// TestFStreamSurvivesReopen: bytes written through FStream and made
// durable by the write barrier read back, whole, from a new system over
// the same directory.
func TestFStreamSurvivesReopen(t *testing.T) {
	opts := ManagerOptions{Store: StoreOptions{FS: vfs.NewMemFS(), WriteBufferSize: 64 << 10}}
	sys, err := InitializeFStreams("fsys", opts)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("across reopen "), 200_000) // 2.8 MB: a partial last chunk
	f, _ := sys.Open("a", ModeWrite)
	if _, err := f.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteBarrier(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Cleanup(); err != nil {
		t.Fatal(err)
	}

	sys, err = InitializeFStreams("fsys", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Cleanup()
	if !sys.Exists("a") {
		t.Fatal("stream missing after reopen")
	}
	g, err := sys.Open("a", ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	got := make([]byte, g.Size())
	if _, err := io.ReadFull(g, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %d bytes, not the %d written", len(got), len(payload))
	}
}

func TestManagerManyKeysThroughBarriers(t *testing.T) {
	m := newTestManager(t)
	defer m.Close()
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("r%d/k%04d", round, i)
			if err := m.Put(key, bytes.Repeat([]byte{byte(round)}, 512)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.WriteBarrier(); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			v, err := m.Get(fmt.Sprintf("r%d/k%04d", round, i))
			if err != nil || len(v) != 512 || v[0] != byte(round) {
				t.Fatalf("round %d key %d: %v", round, i, err)
			}
		}
	}
}

func TestManagerReadBatch(t *testing.T) {
	m := newTestManager(t)
	defer m.Close()
	for i := 0; i < 50; i++ {
		m.Put(fmt.Sprintf("batch/%04d", i), bytes.Repeat([]byte{byte(i)}, 64))
	}
	m.WriteBarrier()
	all, err := m.ReadBatchAll("batch/")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 50 {
		t.Fatalf("ReadBatchAll returned %d entries", len(all))
	}
	for i := 0; i < 50; i++ {
		v := all[fmt.Sprintf("batch/%04d", i)]
		if len(v) != 64 || v[0] != byte(i) {
			t.Fatalf("entry %d wrong", i)
		}
	}
	// Counters account the batch as gets.
	if n := obstest.Counter(t, m.Obs(), "core.gets"); n < 50 {
		t.Fatalf("gets = %d", n)
	}
}

// TestManagerOverRemoteStoreLeavesItOpen: a store handed in as
// ManagerOptions.Remote belongs to the caller. The manager runs over it,
// counts its puts as remote_ops, and leaves it open on Close, so the
// caller can keep reading it and closes it itself.
func TestManagerOverRemoteStoreLeavesItOpen(t *testing.T) {
	st, err := OpenStore("store", StoreOptions{FS: vfs.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager("", ManagerOptions{Remote: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBarrier(); err != nil {
		t.Fatal(err)
	}
	if puts, remote := obstest.Counter(t, m.Obs(), "core.puts"), obstest.Counter(t, m.Obs(), "core.remote_ops"); puts != 1 || remote != 1 {
		t.Fatalf("puts %d, remote ops %d, want one put, made remotely", puts, remote)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if v, err := st.Get("k"); err != nil || string(v) != "v" {
		t.Fatalf("store after Manager.Close: %q, %v", v, err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("the caller's own Close: %v", err)
	}
}
