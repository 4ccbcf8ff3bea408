package lsm

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"lsmio/internal/vfs"
)

// The ownership contract of the read path, the mirror of the write
// path's: a value Get returns, and one Iterator.OwnValue returns, is the
// caller's to keep and to modify. So nothing the caller does to it may
// reach what the store returns next — from the memtable, from a table
// read with the cache off (where the value is the block the read
// brought in), or from a cached block.

// readValue is the value the tests store under key i: sizes from a few
// bytes to several blocks of the checkpoint configuration, so that both
// a handed-over block and a copied value are exercised.
func readValue(i int) []byte {
	n := []int{0, 7, 300, 4 << 10, 64 << 10, 200 << 10}[i%6]
	return bytes.Repeat([]byte{byte('a' + i%26)}, n)
}

func readKey(i int) []byte { return []byte(fmt.Sprintf("rd-%03d", i)) }

// scribble overwrites every byte of v.
func scribble(v []byte) {
	for i := range v {
		v[i] ^= 0xff
	}
}

// checkReads reads every key back through Get and a scan and compares
// it with what was put.
func checkReads(t *testing.T, db *DB, where string, keys int) {
	t.Helper()
	for i := 0; i < keys; i++ {
		got, err := db.Get(readKey(i))
		if err != nil || !bytes.Equal(got, readValue(i)) {
			t.Fatalf("%s: Get %s = %d bytes, %v; want %d bytes", where, readKey(i), len(got), err, len(readValue(i)))
		}
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), readKey(n)) || !bytes.Equal(it.Value(), readValue(n)) {
			t.Fatalf("%s: scan entry %d = %s (%d bytes), want %s (%d bytes)",
				where, n, it.Key(), len(it.Value()), readKey(n), len(readValue(n)))
		}
		n++
	}
	if n != keys {
		t.Fatalf("%s: scan saw %d keys, want %d", where, n, keys)
	}
}

func TestReadValuesAreTheCallers(t *testing.T) {
	const keys = 24
	for _, c := range []struct {
		name string
		opts func(fs vfs.FS) Options
	}{
		{"checkpoint", CheckpointOptions}, // no cache, no codec: Get hands over blocks
		{"default", DefaultOptions},       // cache and snappy: Get copies out of shared blocks
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := c.opts(vfs.NewMemFS())
			opts.WriteBufferSize = 64 << 20 // nothing flushes before Flush
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < keys; i++ {
				if err := db.Put(readKey(i), readValue(i)); err != nil {
					t.Fatal(err)
				}
			}
			for _, phase := range []string{"memtable", "table"} {
				if phase == "table" {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				// Keep every value Get returns, then scribble over all of
				// them: a value that shares memory with another, or with
				// the store, shows up here.
				var kept [][]byte
				for i := 0; i < keys; i++ {
					v, err := db.Get(readKey(i))
					if err != nil {
						t.Fatal(err)
					}
					kept = append(kept, v)
				}
				for _, v := range kept {
					scribble(v)
				}
				checkReads(t, db, phase+", Get results scribbled", keys)

				// The same for what a scan hands out.
				it, err := db.NewIterator()
				if err != nil {
					t.Fatal(err)
				}
				kept = kept[:0]
				for it.SeekToFirst(); it.Valid(); it.Next() {
					kept = append(kept, it.OwnValue())
				}
				if err := it.Close(); err != nil {
					t.Fatal(err)
				}
				for i, v := range kept {
					if !bytes.Equal(v, readValue(i)) {
						t.Fatalf("%s: kept value %d changed after the scan moved on", phase, i)
					}
					v = append(v, 'x') // may not grow into anything else either
					scribble(v)
				}
				checkReads(t, db, phase+", scanned values scribbled", keys)
			}
		})
	}
}

// TestMemtableGetOutlivesThePutBuffer: a value Get or OwnValue returned
// from the memtable stays what was put when the writer's buffer changes
// afterwards, here once the flush that wrote it has returned, which is
// when a writer of DB.PutCRC on a store without a WAL may change it.
func TestMemtableGetOutlivesThePutBuffer(t *testing.T) {
	const keys = 24
	db, err := Open("db", CheckpointOptions(vfs.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var bufs [][]byte
	for i := 0; i < keys; i++ {
		v := readValue(i)
		if err := db.PutCRC(readKey(i), v, crc32.Checksum(v, crcTable)); err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, v)
	}
	var got, scanned [][]byte
	for i := 0; i < keys; i++ {
		v, err := db.Get(readKey(i))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	for it.SeekToFirst(); it.Valid(); it.Next() {
		scanned = append(scanned, it.OwnValue())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, v := range bufs {
		scribble(v)
	}
	for i := 0; i < keys; i++ {
		if !bytes.Equal(got[i], readValue(i)) || !bytes.Equal(scanned[i], readValue(i)) {
			t.Fatalf("key %d: Get and scan results changed with the put buffer", i)
		}
	}
	checkReads(t, db, "table, put buffers scribbled", keys)
}

// TestCacheOnValuesAreTheCallers: with the block cache on, a value at
// least half its block, read from the file, and a small value served out
// of a cached block are both the caller's. Writing into what Get
// returned changes neither what the next Get returns nor the cached
// block, and the small value's second Get is still a cache hit. The big
// value's three Gets take its block from the file, copy it out of the
// block the cache takes on the second (blockCache.putIfReread) and copy
// it out of the cache. Snappy and raw blocks.
func TestCacheOnValuesAreTheCallers(t *testing.T) {
	for _, c := range []struct {
		name string
		raw  bool
	}{{"snappy", false}, {"raw", true}} {
		t.Run(c.name, func(t *testing.T) {
			db := openTestDB(t, vfs.NewMemFS(), func(o *Options) { o.DisableCompression = c.raw })
			defer db.Close()
			// "big" is a block of its own; the three small values share
			// one, each well under half of it.
			vals := map[string][]byte{"big": readValue(5), "s0": readValue(2), "s1": readValue(8), "s2": readValue(14)}
			for k, v := range vals {
				if err := db.Put([]byte(k), v); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"big", "s1"} {
				for round := 0; round < 3; round++ {
					hits := db.m.cacheHits.Load()
					v, err := db.Get([]byte(k))
					if err != nil || !bytes.Equal(v, vals[k]) {
						t.Fatalf("Get %s, round %d: %d bytes, %v; want %d bytes", k, round, len(v), err, len(vals[k]))
					}
					if hit := db.m.cacheHits.Load() > hits; k == "s1" && hit != (round > 0) {
						t.Fatalf("Get %s, round %d: cache hit %v, want %v", k, round, hit, round > 0)
					}
					scribble(v)
				}
			}
			for _, k := range []string{"s0", "s2"} {
				if v, err := db.Get([]byte(k)); err != nil || !bytes.Equal(v, vals[k]) {
					t.Fatalf("Get %s after its block's neighbour was scribbled: %d bytes, %v", k, len(v), err)
				}
			}
		})
	}
}

// TestConcurrentPointReads: Gets from several goroutines at once on the
// ckpt-smallobj configuration, each reading compressed blocks into a
// buffer kept between point reads, all return what was put.
func TestConcurrentPointReads(t *testing.T) {
	values := smallObjValues(2, 64)
	db := smallObjDB(t, values)
	defer db.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 4*len(values); n++ {
				k := (n + 16*g) % len(values)
				if v, err := db.Get(smallObjKey(nil, k)); err != nil || !bytes.Equal(v, values[k]) {
					t.Errorf("reader %d: Get %s = %d bytes, %v; want %d bytes", g, smallObjKey(nil, k), len(v), err, len(values[k]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
