package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lsmio/internal/obs/obstest"
	"lsmio/internal/vfs"
)

// Robustness: corrupt or adversarial on-disk bytes must surface as
// errors, never as panics or silent wrong answers.

func TestParseBlockNeverPanics(t *testing.T) {
	fn := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("parseBlock panicked on %x: %v", raw, r)
			}
		}()
		b, err := parseBlock(raw)
		if err != nil {
			return true
		}
		// A parsed block must also iterate without panicking.
		it := b.iterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
		}
		it.Seek(makeIKey([]byte("probe"), 1, kindValue))
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWALReaderNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		fs := vfs.NewMemFS()
		f, _ := fs.Create("wal")
		junk := make([]byte, rng.Intn(3*walBlockSize))
		rng.Read(junk)
		f.Write(junk)
		g, _ := fs.Open("wal")
		r, err := newWALReader(g)
		if err != nil {
			continue
		}
		for {
			_, err := r.next()
			if err != nil {
				break // io.EOF or a structured error; both fine
			}
		}
		g.Close()
	}
}

func TestBatchDecodeGarbage(t *testing.T) {
	fn := func(raw []byte) bool {
		b, err := decodeBatch(raw)
		if err != nil {
			return true
		}
		// Decoded garbage must fail structurally, not panic.
		_ = b.forEach(func(seqNum, keyKind, []byte, []byte, valueSum) error { return nil })
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsCorruptCURRENT(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, nil)
	db.Put([]byte("k"), []byte("v"))
	db.Flush()
	db.Close()

	// Point CURRENT at a manifest that does not exist.
	f, _ := fs.Create("db/CURRENT")
	f.Write([]byte("MANIFEST-999999\n"))
	f.Close()
	if _, err := Open("db", DefaultOptions(fs)); err == nil {
		t.Fatal("open with dangling CURRENT should fail")
	}

	// Empty CURRENT.
	f, _ = fs.Create("db/CURRENT")
	f.Close()
	if _, err := Open("db", DefaultOptions(fs)); err == nil {
		t.Fatal("open with empty CURRENT should fail")
	}
}

func TestOpenRejectsCorruptManifest(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, nil)
	db.Put([]byte("k"), []byte("v"))
	db.Flush()
	db.Close()

	cf, _ := fs.Open("db/CURRENT")
	nameBytes, _ := vfs.ReadAll(cf)
	cf.Close()
	manifestName := "db/" + string(bytes.TrimSpace(nameBytes))

	// Overwrite the manifest payload with a valid WAL record containing
	// JSON garbage.
	f, _ := fs.Create(manifestName)
	w := newWALWriter(f)
	w.addRecord([]byte("{not json"))
	f.Close()
	if _, err := Open("db", DefaultOptions(fs)); err == nil {
		t.Fatal("open with corrupt manifest should fail")
	}
}

// TestOpenRejectsUnknownCodec: snappy is the only block codec, so any
// other name fails Open and Repair instead of silently writing snappy.
func TestOpenRejectsUnknownCodec(t *testing.T) {
	for _, codec := range []CompressionCodec{"flate", "zstd"} {
		opts := DefaultOptions(vfs.NewMemFS())
		opts.Compression = codec
		if _, err := Open("db", opts); err == nil || !strings.Contains(err.Error(), string(codec)) {
			t.Errorf("Open with codec %q: %v, want an error naming it", codec, err)
		}
		if _, err := Repair("db", opts); err == nil || !strings.Contains(err.Error(), string(codec)) {
			t.Errorf("Repair with codec %q: %v, want an error naming it", codec, err)
		}
	}
}

// TestUnknownBlockTypeIsCorruption: a block whose type byte names no
// codec of this build reads as ErrCorruption, even under a valid
// checksum. Type 1 is the removed DEFLATE codec's, which a table written
// by an older build can still carry.
func TestUnknownBlockTypeIsCorruption(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, func(o *Options) { o.DisableCompression = true })
	db.Put([]byte("k"), []byte("v"))
	db.Flush()
	db.Close()

	names, _ := fs.List("db")
	var table string
	for _, n := range names {
		if strings.HasSuffix(n, ".sst") {
			table = "db/" + n
		}
	}
	f, err := fs.Open(table)
	if err != nil {
		t.Fatal(err)
	}
	image, err := vfs.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The index's first handle locates the first data block.
	footer := image[len(image)-footerLen:]
	indexOff, indexLen := binary.LittleEndian.Uint64(footer[16:]), binary.LittleEndian.Uint64(footer[24:])
	index, err := parseBlock(image[indexOff : indexOff+indexLen])
	if err != nil {
		t.Fatal(err)
	}
	it := index.iterator()
	it.SeekToFirst()
	h, err := decodeHandle(it.Value())
	if err != nil {
		t.Fatal(err)
	}
	// Retype the block and reseal its checksum: only the type is wrong.
	typ := h.offset + h.length
	image[typ] = 1
	binary.LittleEndian.PutUint32(image[typ+1:], crc32.Checksum(image[h.offset:typ+1], crcTable))
	f, _ = fs.Create(table)
	f.Write(image)
	f.Close()

	db = openTestDB(t, fs, nil)
	defer db.Close()
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrCorruption) {
		t.Fatalf("Get through a block of type 1: %v, want ErrCorruption", err)
	}
}

func TestGetWithMissingTableFileErrors(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, nil)
	db.Put([]byte("k"), bytes.Repeat([]byte("v"), 1000))
	db.Flush()
	db.Close()

	// Remove the table file behind the manifest's back.
	names, _ := fs.List("db")
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".sst" {
			fs.Remove("db/" + n)
		}
	}
	db2, err := Open("db", DefaultOptions(fs))
	if err != nil {
		// Also acceptable: open itself may notice. (It does not read
		// tables eagerly, so normally it succeeds.)
		return
	}
	defer db2.Close()
	if _, err := db2.Get([]byte("k")); err == nil {
		t.Fatal("get with missing table should error")
	}
}

func TestIteratorOverMixedSourcesProperty(t *testing.T) {
	// Model comparison across memtable + flushed tables + deletes, with
	// random flush points.
	rng := rand.New(rand.NewSource(31))
	db := openTestDB(t, vfs.NewMemFS(), func(o *Options) {
		o.WriteBufferSize = 4 << 10
	})
	defer db.Close()
	model := map[string]string{}
	for i := 0; i < 1200; i++ {
		k := fmt.Sprintf("pk%03d", rng.Intn(250))
		switch rng.Intn(10) {
		case 0:
			db.Delete([]byte(k))
			delete(model, k)
		case 1:
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		default:
			v := fmt.Sprintf("val-%d", i)
			db.Put([]byte(k), []byte(v))
			model[k] = v
		}
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	seen := map[string]string{}
	var prev string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		k := string(it.Key())
		if prev != "" && k <= prev {
			t.Fatalf("iterator order violated: %q after %q", k, prev)
		}
		prev = k
		seen[k] = string(it.Value())
	}
	if len(seen) != len(model) {
		t.Fatalf("iterator saw %d keys, model %d", len(seen), len(model))
	}
	for k, v := range model {
		if seen[k] != v {
			t.Fatalf("key %s: iterator %q, model %q", k, seen[k], v)
		}
	}
	// Random seeks agree with the model too.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("pk%03d", rng.Intn(250))
		it.Seek([]byte(k))
		if v, ok := model[k]; ok {
			if !it.Valid() || string(it.Key()) != k || string(it.Value()) != v {
				t.Fatalf("seek %s: got %q", k, it.Key())
			}
		} else if it.Valid() && string(it.Key()) == k {
			t.Fatalf("seek found deleted key %s", k)
		}
	}
}

func TestWriteStallEngages(t *testing.T) {
	// With a tiny buffer, a slow flush backlog must stall writers rather
	// than grow without bound.
	db := openTestDB(t, vfs.NewMemFS(), func(o *Options) {
		o.WriteBufferSize = 4 << 10
		o.AsyncFlush = true
		o.MaxImmutableMemtables = 1
	})
	defer db.Close()
	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("st%04d", i)), bytes.Repeat([]byte("x"), 512)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if obstest.Counter(t, db.Obs(), "lsm.stall.episodes") == 0 {
		t.Fatal("expected write stalls with a 1-deep immutable queue")
	}
}

func TestReadAllHelper(t *testing.T) {
	fs := vfs.NewMemFS()
	f, _ := fs.Create("x")
	f.Write([]byte("abc"))
	data, err := vfs.ReadAll(f)
	if err != nil || string(data) != "abc" {
		t.Fatalf("%q %v", data, err)
	}
	empty, _ := fs.Create("e")
	data, err = vfs.ReadAll(empty)
	if err != nil || len(data) != 0 {
		t.Fatalf("empty: %q %v", data, err)
	}
	_ = io.EOF
}
