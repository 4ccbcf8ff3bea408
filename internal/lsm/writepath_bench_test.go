package lsm

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"lsmio/internal/vfs"
)

// Wall-clock benchmarks and an allocation ratchet for the write path: a
// value is copied once on the way in (caller to batch buffer) and not at
// all on the way out (memtable to file), and this file is what notices
// when a copy creeps back.

// discardFS is a MemFS whose table files drop what is written to them, so
// that what is measured is the engine and not the growth of an in-memory
// file. Tables written to it cannot be read back.
type discardFS struct{ vfs.FS }

type discardFile struct{ vfs.File }

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }

func (fs discardFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if err == nil && strings.HasSuffix(name, ".sst") {
		f = discardFile{f}
	}
	return f, err
}

// writePathDB opens the paper's configuration on a discarding filesystem,
// with a memtable big enough that nothing is flushed before Flush.
func writePathDB(tb testing.TB, payload int) *DB {
	tb.Helper()
	opts := CheckpointOptions(discardFS{vfs.NewMemFS()})
	opts.WriteBufferSize = 2 * payload
	db, err := Open("db", opts)
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// fillDB puts count values of size bytes each under fresh keys.
func fillDB(tb testing.TB, db *DB, round, count int, value []byte) {
	tb.Helper()
	key := make([]byte, 0, 32)
	for i := 0; i < count; i++ {
		key = fmt.Appendf(key[:0], "ckpt/%06d/var%05d", round, i)
		if err := db.Put(key, value); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestWritePathAllocationRatchet bounds the bytes allocated per payload
// byte by Put + Flush. The floor is 1: the batch buffer that becomes the
// memtable's. The parent of this test's commit measured 3.8 for the large
// values (a second copy into the memtable, a third into the block
// builder, a fourth into the encoded block).
func TestWritePathAllocationRatchet(t *testing.T) {
	for _, c := range []struct {
		count, size int
		limit       float64
	}{
		{64, 1 << 20, 1.25},
		{4096, 4 << 10, 2.0},
	} {
		payload := c.count * c.size
		db := writePathDB(t, payload)
		value := make([]byte, c.size)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fillDB(t, db, 0, c.count, value)
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(payload)
		t.Logf("%d x %d B: %.3f bytes allocated per payload byte", c.count, c.size, perByte)
		if perByte > c.limit {
			t.Errorf("%d x %d B: %.3f bytes allocated per payload byte, limit %.2f: a copy is back on the write path",
				c.count, c.size, perByte, c.limit)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func benchmarkPut(b *testing.B, count, size int) {
	value := make([]byte, size)
	b.SetBytes(int64(count * size))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := writePathDB(b, count*size)
		b.StartTimer()
		fillDB(b, db, i, count, value)
		b.StopTimer()
		db.Close() // unflushed: the WAL is off, the memtable is dropped
		b.StartTimer()
	}
}

// BenchmarkPutLarge: 32 x 1 MiB into the memtable, the shape of an LLM
// checkpoint's tensors.
func BenchmarkPutLarge(b *testing.B) { benchmarkPut(b, 32, 1<<20) }

// BenchmarkPutSmall: 8192 x 4 KiB, where the skiplist and the per-entry
// bookkeeping weigh as much as the bytes.
func BenchmarkPutSmall(b *testing.B) { benchmarkPut(b, 8192, 4<<10) }

// BenchmarkFlushLarge: the table build of those 32 x 1 MiB alone.
func BenchmarkFlushLarge(b *testing.B) {
	const count, size = 32, 1 << 20
	value := make([]byte, size)
	b.SetBytes(count * size)
	b.ReportAllocs()
	db := writePathDB(b, count*size)
	defer db.Close()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillDB(b, db, i, count, value)
		b.StartTimer()
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}
