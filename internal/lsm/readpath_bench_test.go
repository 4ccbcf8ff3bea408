package lsm

import (
	"fmt"
	"runtime"
	"testing"

	"lsmio/internal/vfs"
)

// Wall-clock benchmarks and an allocation ratchet for the read path, the
// twin of the write path's: a value read from a table with the block
// cache off is the block its read brought in, handed over without a
// copy, so restoring a checkpoint allocates what it reads and no more.

// readPathDB opens the paper's configuration (no cache, no codec, 64 KiB
// blocks) on a MemFS and writes count values of size bytes into one
// table.
func readPathDB(tb testing.TB, count, size int) *DB {
	tb.Helper()
	opts := CheckpointOptions(vfs.NewMemFS())
	opts.WriteBufferSize = 2 * count * size
	db, err := Open("db", opts)
	if err != nil {
		tb.Fatal(err)
	}
	fillDB(tb, db, 0, count, make([]byte, size), false)
	if err := db.Flush(); err != nil {
		tb.Fatal(err)
	}
	return db
}

// getAll reads back every value fillDB put in round 0.
func getAll(tb testing.TB, db *DB, count, size int) {
	tb.Helper()
	key := make([]byte, 0, 32)
	for i := 0; i < count; i++ {
		key = fmt.Appendf(key[:0], "ckpt/%06d/var%05d", 0, i)
		v, err := db.Get(key)
		if err != nil || len(v) != size {
			tb.Fatalf("get %s: %d bytes, %v", key, len(v), err)
		}
	}
}

// scanned keeps the last value a scan took, so the compiler cannot drop
// the call that took it.
var scanned []byte

// scanAll scans the whole DB, taking each value as its own (the way
// core's Scan hands values to its callback) or only looking at it.
func scanAll(tb testing.TB, db *DB, count int, own bool) {
	tb.Helper()
	it, err := db.NewIterator()
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if own {
			scanned = it.OwnValue()
		} else {
			scanned = it.Value()
		}
		n++
	}
	if err := it.Close(); err != nil {
		tb.Fatal(err)
	}
	if n != count {
		tb.Fatalf("scan saw %d entries, want %d", n, count)
	}
}

// TestReadPathAllocationRatchet bounds the bytes allocated per payload
// byte by reading a table back. The floor is 1: the buffer each block is
// read into, which becomes the value (or, in a scan, the values) handed
// out; small values read 1.13, Go rounding each ~66 KB block up to whole
// pages. The parent of this test's commit measured 2.01 for a Get (the
// block, then a copy of the value out of it) and 2.04 and 2.14 for the
// scans (a copy into the iterator, then one for the caller).
func TestReadPathAllocationRatchet(t *testing.T) {
	for _, c := range []struct {
		name        string
		count, size int
		read        func(*DB, int, int)
	}{
		{"get", 32, 1 << 20, func(db *DB, count, size int) { getAll(t, db, count, size) }},
		{"scan", 32, 1 << 20, func(db *DB, count, _ int) { scanAll(t, db, count, true) }},
		{"scan", 4096, 4 << 10, func(db *DB, count, _ int) { scanAll(t, db, count, true) }},
	} {
		const limit = 1.25
		payload := c.count * c.size
		db := readPathDB(t, c.count, c.size)
		perByte := allocated(func() { c.read(db, c.count, c.size) }) / float64(payload)
		t.Logf("%s %d x %d B: %.3f bytes allocated per payload byte", c.name, c.count, c.size, perByte)
		if perByte > limit {
			t.Errorf("%s %d x %d B: %.3f bytes allocated per payload byte, limit %.2f: a copy is back on the read path",
				c.name, c.count, c.size, perByte, limit)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanAllocatesPerBlockNotPerEntry bounds the allocations a scan
// makes that only looks at its values: the block it reads and what
// parses it, a handful per block and none per entry. Moving to the next
// key used to copy the previous one (one allocation per entry).
func TestScanAllocatesPerBlockNotPerEntry(t *testing.T) {
	const count, size, limit = 4096, 1 << 10, 0.25 // 64 entries a block
	db := readPathDB(t, count, size)
	defer db.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	scanAll(t, db, count, false)
	runtime.ReadMemStats(&after)
	perEntry := float64(after.Mallocs-before.Mallocs) / count
	t.Logf("%d x %d B: %.3f allocations per entry", count, size, perEntry)
	if perEntry > limit {
		t.Errorf("%.3f allocations per entry, limit %.2f: the scan allocates per entry again", perEntry, limit)
	}
}

func benchmarkGet(b *testing.B, count, size int) {
	db := readPathDB(b, count, size)
	defer db.Close()
	b.SetBytes(int64(count * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		getAll(b, db, count, size)
	}
}

func benchmarkScan(b *testing.B, count, size int) {
	db := readPathDB(b, count, size)
	defer db.Close()
	b.SetBytes(int64(count * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAll(b, db, count, true)
	}
}

// BenchmarkGetLarge: 32 x 1 MiB read back by key, an LLM checkpoint's
// restore.
func BenchmarkGetLarge(b *testing.B) { benchmarkGet(b, 32, 1<<20) }

// BenchmarkScanLarge: the same values in one scan, each taken as the
// caller's.
func BenchmarkScanLarge(b *testing.B) { benchmarkScan(b, 32, 1<<20) }

// BenchmarkScanSmall: 8192 x 4 KiB, sixteen entries to a block.
func BenchmarkScanSmall(b *testing.B) { benchmarkScan(b, 8192, 4<<10) }
