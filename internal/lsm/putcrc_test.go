package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"lsmio/internal/faultfs"
	"lsmio/internal/vfs"
)

// TestWrongCRCReadsAsCorruption: a value put with a CRC that is not its
// own gets that CRC folded into its block's checksum, so once flushed
// the block fails its check on every read path — point get, scan and
// VerifyChecksums — and never comes back as bytes. Its neighbour, put
// with its true CRC, reads back.
func TestWrongCRCReadsAsCorruption(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), func(o *Options) { o.DisableCompression = true })
	defer db.Close()
	rng := rand.New(rand.NewSource(5))
	good, bad := make([]byte, 3*db.opts.BlockSize), make([]byte, 3*db.opts.BlockSize)
	rng.Read(good)
	rng.Read(bad)
	if err := db.PutCRC([]byte("a"), good, crc32.Checksum(good, crcTable)); err != nil {
		t.Fatal(err)
	}
	if err := db.PutCRC([]byte("b"), bad, crc32.Checksum(bad, crcTable)^0x80); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, err := db.Get([]byte("a")); err != nil || !bytes.Equal(v, good) {
		t.Fatalf("Get(a) = %d bytes, %v", len(v), err)
	}
	if v, err := db.Get([]byte("b")); !errors.Is(err, ErrCorruption) {
		t.Fatalf("Get(b) = %d bytes, %v; want ErrCorruption", len(v), err)
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if string(it.Key()) == "b" {
			t.Fatalf("scan returned b's %d bytes", len(it.Value()))
		}
	}
	if err := it.Close(); !errors.Is(err, ErrCorruption) {
		t.Fatalf("scan ended with %v, want ErrCorruption", err)
	}
	if err := db.VerifyChecksums(); !errors.Is(err, ErrCorruption) {
		t.Fatalf("VerifyChecksums = %v, want ErrCorruption", err)
	}
}

// TestLoggedCRCPutsReplayToTheSameTables: the CRC a put carries stays out
// of the WAL, so replay after a crash has none and checksums each value
// itself. The tables it rebuilds are byte for byte the ones a flush of
// the same hinted puts writes.
func TestLoggedCRCPutsReplayToTheSameTables(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var keys, values [][]byte
	for i, n := range []int{10, 4 << 10, 100, 9000, 1, 300 << 10, 4<<10 - 1, 64 << 10} {
		v := make([]byte, n)
		rng.Read(v)
		keys = append(keys, []byte(fmt.Sprintf("k%02d", i)))
		values = append(values, v)
	}
	tables := func(crash bool) []byte {
		mem := vfs.NewMemFS()
		ffs := faultfs.New(mem)
		opts := func(o *Options) { o.DisableCompression, o.Sync = true, true }
		db := openTestDB(t, ffs, opts)
		for i, k := range keys {
			if err := db.PutCRC(k, values[i], crc32.Checksum(values[i], crcTable)); err != nil {
				t.Fatal(err)
			}
		}
		if crash {
			ffs.Crash()
			db = openTestDB(t, ffs, opts) // replays the log into a table
		} else if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for i, k := range keys {
			if v, err := db.Get(k); err != nil || !bytes.Equal(v, values[i]) {
				t.Fatalf("crash=%v: Get(%s) = %d bytes, %v", crash, k, len(v), err)
			}
		}
		var all []byte
		for _, name := range listTables(t, mem) {
			all = append(all, readWholeFile(t, mem, "db/"+name)...)
		}
		return all
	}
	flushed, replayed := tables(false), tables(true)
	if len(flushed) == 0 || !bytes.Equal(flushed, replayed) {
		t.Fatalf("replayed tables (%d bytes) differ from the flushed ones (%d bytes)", len(replayed), len(flushed))
	}
}
