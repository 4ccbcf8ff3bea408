package lsm

import (
	"bytes"
	"fmt"
	"hash/crc32"
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
