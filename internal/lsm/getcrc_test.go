package lsm

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"lsmio/internal/vfs"
)

// checkGetCRC checks one GetCRC of key: the value is want, ok is wantOK,
// and a CRC that comes with it is want's CRC-32C.
func checkGetCRC(t *testing.T, db *DB, key string, want []byte, wantOK bool) {
	t.Helper()
	v, crc, ok, err := db.GetCRC([]byte(key))
	if err != nil || !bytes.Equal(v, want) {
		t.Fatalf("GetCRC(%s) = %d bytes, %v; want %d bytes", key, len(v), err, len(want))
	}
	if ok != wantOK {
		t.Fatalf("GetCRC(%s): ok = %v, want %v", key, ok, wantOK)
	}
	if sum := crc32.Checksum(want, crcTable); ok && crc != sum {
		t.Fatalf("GetCRC(%s) = crc %#08x, want %#08x", key, crc, sum)
	}
}

// TestGetCRC: GetCRC hands out a value's CRC-32C only where the block
// check of the read that just brought the value in gives it: a value
// stored raw that ends its block's entries and is most of them, in a
// block of its own or after smaller entries. A value in the middle of a
// block, a small last one, a value in the memtable or an immutable one
// (whatever CRC its writer gave), in a compressed block or served from
// the block cache has none. With the cache on, a value read from the
// file that is most of its block carries its sum and leaves the cache
// alone, until it is read again soon enough that the cache takes its
// block.
func TestGetCRC(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := func(n int) []byte {
		v := make([]byte, n)
		rng.Read(v)
		return v
	}
	raw := func(o *Options) { o.DisableCompression, o.DisableCache = true, true }

	t.Run("raw", func(t *testing.T) {
		db := openTestDB(t, vfs.NewMemFS(), raw)
		defer db.Close()
		bs := db.opts.BlockSize
		vals := map[string][]byte{
			"a0": random(10), "a1": random(3 * bs),
			"b0": random(bs / 4), "b1": random(bs / 2),
			"c0": random(bs / 2), "c1": random(10),
		}
		// One table, one block, per pair: a1's value, larger than a
		// block, ends a block a0 shares; b1 ends a block where it is
		// most of the bytes; c0 is most of its block but not at its end,
		// and c1 is at the end but small.
		for _, pair := range [][2]string{{"a0", "a1"}, {"b0", "b1"}, {"c0", "c1"}} {
			for _, k := range pair {
				if err := db.PutCRC([]byte(k), vals[k], crc32.Checksum(vals[k], crcTable)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		for k, ok := range map[string]bool{"a0": false, "a1": true, "b0": false, "b1": true, "c0": false, "c1": false} {
			checkGetCRC(t, db, k, vals[k], ok)
		}
		// Get shares GetCRC's body and reads the same bytes.
		if v, err := db.Get([]byte("a1")); err != nil || !bytes.Equal(v, vals["a1"]) {
			t.Fatalf("Get(a1) = %d bytes, %v", len(v), err)
		}
	})

	t.Run("memtable", func(t *testing.T) {
		db := openTestDB(t, vfs.NewMemFS(), raw)
		defer db.Close()
		v := random(3 * db.opts.BlockSize)
		// A wrong CRC: echoed back, it would come out as the value's.
		if err := db.PutCRC([]byte("m"), v, crc32.Checksum(v, crcTable)^1); err != nil {
			t.Fatal(err)
		}
		checkGetCRC(t, db, "m", v, false)
		db.mu.Lock()
		db.flushing = true // holds the flusher off: the memtable stays immutable
		err := db.rotateMemtable()
		imms := len(db.imm)
		db.mu.Unlock()
		if err != nil || imms != 1 {
			t.Fatalf("rotateMemtable: %v, %d immutable memtables", err, imms)
		}
		checkGetCRC(t, db, "m", v, false)
		db.mu.Lock()
		db.flushing = false
		db.maybeScheduleFlush()
		db.mu.Unlock()
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := db.GetCRC([]byte("m")); !errors.Is(err, ErrCorruption) {
			t.Fatalf("GetCRC(m) after the flush = %v, want ErrCorruption", err)
		}
	})

	t.Run("snappy", func(t *testing.T) {
		db := openTestDB(t, vfs.NewMemFS(), func(o *Options) { o.DisableCache = true })
		defer db.Close()
		v := bytes.Repeat([]byte("compressible "), db.opts.BlockSize)
		if err := db.PutCRC([]byte("s"), v, crc32.Checksum(v, crcTable)); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		checkGetCRC(t, db, "s", v, false)
	})

	t.Run("cache", func(t *testing.T) {
		db := openTestDB(t, vfs.NewMemFS(), func(o *Options) { o.DisableCompression = true })
		defer db.Close()
		bs := db.opts.BlockSize
		vals := map[string][]byte{"k": random(3 * bs), "s0": random(bs / 8), "s1": random(bs / 8)}
		for k, v := range vals {
			if err := db.PutCRC([]byte(k), v, crc32.Checksum(v, crcTable)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		// k is a block of its own: the first read takes it from the
		// file, with its sum, and leaves the cache without it. The
		// second reads the file again, well within the cache's reach of
		// the first, so the cache takes the block and the read has no
		// sum; the third is served from the cache.
		for round, want := range []struct{ hit, sum bool }{{false, true}, {false, false}, {true, false}} {
			hits := db.m.cacheHits.Load()
			checkGetCRC(t, db, "k", vals["k"], want.sum)
			if hit := db.m.cacheHits.Load() != hits; hit != want.hit {
				t.Fatalf("GetCRC(k), round %d: cache hit %v, want %v", round, hit, want.hit)
			}
		}
		// s1 ends a block it shares with s0, under half of it: the first
		// read caches the block and the second is served from there,
		// neither with a sum.
		checkGetCRC(t, db, "s1", vals["s1"], false)
		hits := db.m.cacheHits.Load()
		checkGetCRC(t, db, "s1", vals["s1"], false)
		if db.m.cacheHits.Load() != hits+1 {
			t.Fatal("GetCRC(s1), second read: not served from the cache")
		}
	})
}
