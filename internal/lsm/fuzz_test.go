package lsm

import (
	"bytes"
	"testing"

	"lsmio/internal/snappy"
	"lsmio/internal/vfs"
)

// Native fuzz targets (run as seed-corpus unit tests under `go test`, and
// as fuzzers under `go test -fuzz`). They harden the three parsers that
// consume on-disk bytes.

func FuzzParseBlock(f *testing.F) {
	// Seed with a real block.
	b := newBlockBuilder(4)
	for i := 0; i < 10; i++ {
		b.add(makeIKey([]byte{byte('a' + i)}, seqNum(i+1), kindValue), []byte("v"))
	}
	f.Add(append([]byte(nil), b.finish()...))
	// A block as the table writer assembles it around a large value:
	// header, value and restart trailer are separate pieces on the way to
	// the file and one block to the reader.
	b.reset()
	big := bytes.Repeat([]byte("L"), 5000)
	b.addHeader(makeIKey([]byte("large"), 7, kindValue), len(big))
	split := len(b.buf)
	raw := b.finish()
	f.Add(append(append(append([]byte(nil), raw[:split]...), big...), raw[split:]...))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		blk, err := parseBlock(raw)
		if err != nil {
			return
		}
		// Walk forward, noting where each entry starts.
		it := blk.iterator()
		var keys []internalKey
		entryAt := map[int]int{}
		start := 0
		for it.SeekToFirst(); it.Valid() && len(keys) < 10000; it.Next() {
			entryAt[start] = len(keys)
			keys = append(keys, append(internalKey(nil), it.IKey()...))
			start = it.off
		}
		target := makeIKey([]byte("q"), 1, kindValue)
		if it.Seek(target); it.Valid() && compareIKeys(it.IKey(), target) < 0 {
			t.Fatalf("Seek(%s) landed before its target, on %s", target, it.IKey())
		}
		// A well-formed block (keys in order, each restart point an entry
		// with its whole key, restarts ascending) must Seek to every key
		// the walk saw.
		for i := 1; i < len(keys); i++ {
			if compareIKeys(keys[i-1], keys[i]) >= 0 {
				return
			}
		}
		for i, r := range blk.restarts {
			e, ok := entryAt[int(r)]
			k, whole := blk.keyAtRestart(int(r))
			if !ok || !whole || !bytes.Equal(k, keys[e]) || (i > 0 && r <= blk.restarts[i-1]) {
				return
			}
		}
		for _, k := range keys {
			if it.Seek(k); !it.Valid() || compareIKeys(it.IKey(), k) != 0 {
				t.Fatalf("Seek(%s) missed a key of a well-formed block", k)
			}
		}
	})
}

func FuzzWALReader(f *testing.F) {
	fs := vfs.NewMemFS()
	wf, _ := fs.Create("seed")
	w := newWALWriter(wf)
	w.addRecord([]byte("seed-record"))
	seed, _ := vfs.ReadAll(wf)
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		m := vfs.NewMemFS()
		g, _ := m.Create("w")
		g.Write(raw)
		r, err := newWALReader(g)
		if err != nil {
			return
		}
		for i := 0; i < 10000; i++ {
			if _, err := r.next(); err != nil {
				return
			}
		}
	})
}

func FuzzSnappyDecode(f *testing.F) {
	f.Add(snappy.Encode(nil, []byte("seed data seed data seed data")))
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		out, err := snappy.Decode(nil, raw)
		if err != nil {
			return
		}
		// A successful decode must re-encode and decode to the same bytes.
		redec, err := snappy.Decode(nil, snappy.Encode(nil, out))
		if err != nil || !bytes.Equal(redec, out) {
			t.Fatalf("re-round-trip failed: %v", err)
		}
	})
}

func FuzzBatchDecode(f *testing.F) {
	b := NewBatch()
	b.Put([]byte("k"), []byte("v"))
	b.setSeq(1)
	f.Add(append([]byte(nil), b.data...))
	// The batch DB.Put builds: one put, its value grown into a buffer of
	// its own size (the allocation ratchet test holds it to that).
	b = NewBatch()
	b.Put([]byte("checkpoint/000001/var"), bytes.Repeat([]byte("v"), 300))
	b.setSeq(2)
	f.Add(b.data)
	f.Fuzz(func(t *testing.T, raw []byte) {
		dec, err := decodeBatch(append([]byte(nil), raw...))
		if err != nil {
			return
		}
		_ = dec.forEach(func(seqNum, keyKind, []byte, []byte, valueSum) error { return nil })
	})
}
