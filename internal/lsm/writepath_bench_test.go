package lsm

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"lsmio/internal/vfs"
)

// Wall-clock benchmarks and an allocation ratchet for the write path: a
// value put with PutCRC on a store without a WAL is not copied at all (the
// memtable keeps the caller's slice, the flush writes from it), any other
// put copies it once on the way in (caller to batch buffer), and none is
// copied on the way out (memtable to file). This file is what notices
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

// fillDB puts count values of size bytes each under fresh keys; with
// withCRC through PutCRC, as a checkpoint's Write puts.
func fillDB(tb testing.TB, db *DB, round, count int, value []byte, withCRC bool) {
	tb.Helper()
	var crc uint32
	if withCRC {
		crc = crc32.Checksum(value, crcTable)
	}
	key := make([]byte, 0, 32)
	for i := 0; i < count; i++ {
		key = fmt.Appendf(key[:0], "ckpt/%06d/var%05d", round, i)
		var err error
		if withCRC {
			err = db.PutCRC(key, value, crc)
		} else {
			err = db.Put(key, value)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// TestWritePathAllocationRatchet bounds the bytes allocated per payload
// byte by Put + Flush. For Put the floor is 1: the batch buffer that
// becomes the memtable's. The parent of this test's first commit
// measured 3.8 for the large values (a second copy into the memtable, a
// third into the block builder, a fourth into the encoded block). PutCRC
// on this WAL-off store allocates no buffer for the value: 0.001 per
// payload byte on amd64 (batch headers, skiplist slabs, the table's
// index), where the batch copy it no longer makes read 1.008.
func TestWritePathAllocationRatchet(t *testing.T) {
	for _, c := range []struct {
		name        string
		withCRC     bool
		count, size int
		limit       float64
	}{
		{"Put", false, 64, 1 << 20, 1.25},
		{"Put", false, 4096, 4 << 10, 2.0},
		{"PutCRC", true, 64, 1 << 20, 0.1},
	} {
		payload := c.count * c.size
		db := writePathDB(t, payload)
		value := make([]byte, c.size)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fillDB(t, db, 0, c.count, value, c.withCRC)
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(payload)
		t.Logf("%s %d x %d B: %.3f bytes allocated per payload byte", c.name, c.count, c.size, perByte)
		if perByte > c.limit {
			t.Errorf("%s %d x %d B: %.3f bytes allocated per payload byte, limit %.2f: a copy is back on the write path",
				c.name, c.count, c.size, perByte, c.limit)
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
		fillDB(b, db, i, count, value, false)
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
		fillDB(b, db, i, count, value, false)
		b.StartTimer()
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// TestCompactionAllocationRatchet bounds the bytes a merge of snappy
// tables allocates per value byte it merges. Each merge input reads every
// block into one buffer and decodes it into another, and hands the pair
// on to the next merge input when it is closed; the output keeps its
// block buffers the same way. What is left is bookkeeping: the output's
// index and filter, keys, iterators. Measured on amd64: 0.075 bytes per
// merged byte, 0.089 on a process's first merge, whose inputs find no
// buffers to reuse, and about the same under the race detector. The
// limit is 0.12, so that a merge allocating twice as much fails it, and
// a buffer per block read or written (1 or more) fails it many times
// over. Values grow in key order, the order a merge reads them in, so a
// read buffer that only ever grew to fit would be outgrown by every
// block.
func TestCompactionAllocationRatchet(t *testing.T) {
	const tables, count, limit = 4, 256, 0.12
	opts := DefaultOptions(vfs.NewMemFS())
	opts.Compression = CompressionSnappy
	opts.DisableCompaction = true // nothing merges before CompactAll
	opts.WriteBufferSize = 64 << 20
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	merged := 0
	for r := 0; r < tables; r++ {
		for i := 0; i < count; i++ {
			v := make([]byte, 4<<10+i*128)
			for j := range v {
				v[j] = byte((j%128%64)*(r+i+7) + j/128)
			}
			merged += len(v)
			if err := db.Put(fmt.Appendf(nil, "k%05d", i), v); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	got := allocated(func() {
		if err := db.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}) / float64(merged)
	t.Logf("%d tables x %d values: the merge allocated %.3f bytes per value byte merged", tables, count, got)
	if got > limit {
		t.Errorf("the merge allocated %.3f bytes per value byte merged, limit %.2f: a buffer is back", got, limit)
	}
}

// mergeFS is a MemFS whose table files drop what is written to them once
// discard is set: the inputs of a merge are kept, its outputs are not, so
// that what is measured is the merge and not the growth of an in-memory
// file.
type mergeFS struct {
	vfs.FS
	discard bool
}

func (fs *mergeFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if err == nil && fs.discard && strings.HasSuffix(name, ".sst") {
		f = discardFile{f}
	}
	return f, err
}

// BenchmarkCompactionMerge times one merge of four L0 tables, each the
// flush of a 4 MiB memtable, into L1, on the ckpt-smallobj configuration:
// snappy, 4 KiB blocks, the block cache on, compressible objects of 4 to
// 64 KiB (every 64 random bytes followed by their copy). The tables are
// read from MemFS, their keys interleave, and the output is discarded
// (mergeFS). MB/s is of value bytes merged.
func BenchmarkCompactionMerge(b *testing.B) {
	const tables, tableBytes = 4, 4 << 20
	rng := rand.New(rand.NewSource(18))
	var values [][]byte
	var total int64
	for total < tableBytes {
		v := make([]byte, 4<<10+rng.Intn(60<<10))
		for off := 0; off < len(v); off += 128 {
			rng.Read(v[off:min(off+64, len(v))])
			copy(v[min(off+64, len(v)):], v[off:min(off+64, len(v))])
		}
		values = append(values, v)
		total += int64(len(v))
	}
	b.SetBytes(tables * total)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fs := &mergeFS{FS: vfs.NewMemFS()}
		db := openTestDB(b, fs, func(o *Options) {
			o.DisableCompaction = true // nothing merges before CompactAll
			o.WriteBufferSize = 2 * tableBytes
		})
		for r := 0; r < tables; r++ {
			for k, v := range values {
				if err := db.Put(fmt.Appendf(nil, "obj/%05d/%d", k, r), v); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		fs.discard = true
		b.StartTimer()
		if err := db.CompactAll(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
