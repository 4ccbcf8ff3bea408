package lsm

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"lsmio/internal/iosched"
	"lsmio/internal/obs"
	"lsmio/internal/vfs"
)

func TestInternalKeyRoundTrip(t *testing.T) {
	ik := makeIKey([]byte("user-key"), 12345, kindValue)
	if string(ik.userKey()) != "user-key" {
		t.Fatalf("userKey = %q", ik.userKey())
	}
	if ik.seq() != 12345 {
		t.Fatalf("seq = %d", ik.seq())
	}
	if ik.kind() != kindValue {
		t.Fatalf("kind = %d", ik.kind())
	}
}

func TestInternalKeyOrdering(t *testing.T) {
	// Same user key: higher seq sorts first.
	a := makeIKey([]byte("k"), 10, kindValue)
	b := makeIKey([]byte("k"), 5, kindValue)
	if compareIKeys(a, b) >= 0 {
		t.Fatal("newer seq must sort before older")
	}
	// Different user keys: bytewise order dominates.
	c := makeIKey([]byte("a"), 1, kindValue)
	d := makeIKey([]byte("b"), 100, kindValue)
	if compareIKeys(c, d) >= 0 {
		t.Fatal("user key order must dominate")
	}
}

func TestQuickIKeyOrderMatchesSpec(t *testing.T) {
	fn := func(ka, kb []byte, sa, sb uint32) bool {
		a := makeIKey(ka, seqNum(sa), kindValue)
		b := makeIKey(kb, seqNum(sb), kindValue)
		got := compareIKeys(a, b)
		want := bytes.Compare(ka, kb)
		if want == 0 {
			switch {
			case sa > sb:
				want = -1
			case sa < sb:
				want = 1
			}
		}
		return got == want
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemtableBasic(t *testing.T) {
	m := newMemtable()
	m.add(1, kindValue, []byte("a"), []byte("1"), noSum)
	m.add(2, kindValue, []byte("b"), []byte("2"), noSum)
	m.add(3, kindValue, []byte("a"), []byte("1v2"), noSum) // overwrite

	if v, found, deleted := m.get([]byte("a"), 100); !found || deleted || string(v) != "1v2" {
		t.Fatalf("get a: %q %v %v", v, found, deleted)
	}
	// Snapshot read below the overwrite sees the old value.
	if v, found, _ := m.get([]byte("a"), 1); !found || string(v) != "1" {
		t.Fatalf("snapshot get a: %q %v", v, found)
	}
	// Snapshot read below any write sees nothing.
	if _, found, _ := m.get([]byte("b"), 1); found {
		t.Fatal("b should be invisible at seq 1")
	}
	m.add(4, kindDelete, []byte("a"), nil, noSum)
	if _, found, deleted := m.get([]byte("a"), 100); !found || !deleted {
		t.Fatal("tombstone should be found+deleted")
	}
}

func TestMemtableIterationSorted(t *testing.T) {
	m := newMemtable()
	keys := []string{"mango", "apple", "zebra", "kiwi", "banana"}
	for i, k := range keys {
		m.add(seqNum(i+1), kindValue, []byte(k), []byte(k), noSum)
	}
	var got []string
	it := m.iterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		got = append(got, string(it.IKey().userKey()))
	}
	want := "[apple banana kiwi mango zebra]"
	if fmt.Sprint(got) != want {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMemtableQuickMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := newMemtable()
	model := map[string]string{}
	seq := seqNum(0)
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("key-%03d", rng.Intn(300))
		seq++
		if rng.Intn(5) == 0 {
			m.add(seq, kindDelete, []byte(key), nil, noSum)
			delete(model, key)
		} else {
			val := fmt.Sprintf("val-%d", i)
			m.add(seq, kindValue, []byte(key), []byte(val), noSum)
			model[key] = val
		}
	}
	for k, want := range model {
		v, found, deleted := m.get([]byte(k), seq)
		if !found || deleted || string(v) != want {
			t.Fatalf("key %s: got %q found=%v deleted=%v want %q", k, v, found, deleted, want)
		}
	}
}

func TestBloomFilter(t *testing.T) {
	var keys [][]byte
	for i := 0; i < 1000; i++ {
		keys = append(keys, []byte(fmt.Sprintf("bloom-key-%d", i)))
	}
	filter := buildBloom(keys, 10)
	for _, k := range keys {
		if !bloomMayContain(filter, k) {
			t.Fatalf("false negative for %s", k)
		}
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if bloomMayContain(filter, []byte(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	// 10 bits/key gives ~1% theoretical FP rate; allow slack.
	if rate := float64(fp) / probes; rate > 0.03 {
		t.Fatalf("false positive rate %.4f too high", rate)
	}
}

func TestBloomEmptyAndTiny(t *testing.T) {
	f := buildBloom(nil, 10)
	_ = bloomMayContain(f, []byte("anything")) // must not panic
	f2 := buildBloom([][]byte{[]byte("only")}, 10)
	if !bloomMayContain(f2, []byte("only")) {
		t.Fatal("single key must be found")
	}
}

func TestBlockBuilderRoundTrip(t *testing.T) {
	b := newBlockBuilder(4)
	var keys []internalKey
	for i := 0; i < 100; i++ {
		ik := makeIKey([]byte(fmt.Sprintf("key-%04d", i)), seqNum(i+1), kindValue)
		keys = append(keys, ik)
		b.add(ik, []byte(fmt.Sprintf("value-%d", i)))
	}
	blk, err := parseBlock(append([]byte(nil), b.finish()...))
	if err != nil {
		t.Fatal(err)
	}
	it := blk.iterator()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if compareIKeys(it.IKey(), keys[i]) != 0 {
			t.Fatalf("entry %d: got %s want %s", i, it.IKey(), keys[i])
		}
		if want := fmt.Sprintf("value-%d", i); string(it.Value()) != want {
			t.Fatalf("entry %d: value %q want %q", i, it.Value(), want)
		}
		i++
	}
	if i != 100 {
		t.Fatalf("iterated %d entries", i)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBlockBuilderTakeSizesNextBuffer: a block that is only the header of
// a value written from elsewhere must neither shrink the buffer of the
// ordinary block after it (which then regrew by doubling) nor cost a
// block-sized buffer of its own.
func TestBlockBuilderTakeSizesNextBuffer(t *testing.T) {
	b := newBlockBuilder(16)
	fill := func(from int) {
		for i := from; b.estimatedSize() < 64<<10; i++ {
			b.add(makeIKey([]byte(fmt.Sprintf("k%06d", i)), 1, kindValue), make([]byte, 1000))
		}
	}
	fill(0)
	full := len(b.take(true))
	b.reset()
	for i := 0; i < 3; i++ { // a run of large values
		b.addHeader(makeIKey([]byte(fmt.Sprintf("l%06d", i)), 1, kindValue), 8<<20)
		if head := b.take(false); cap(head) > 256 {
			t.Fatalf("header-only block %d got a %d-byte buffer", i, cap(head))
		}
		b.reset()
	}
	b.add(makeIKey([]byte("m"), 1, kindValue), []byte("v"))
	if cap(b.buf) < full {
		t.Fatalf("buffer after the large values holds %d bytes, the last full block was %d", cap(b.buf), full)
	}
	before := cap(b.buf)
	fill(1)
	if cap(b.buf) != before {
		t.Fatalf("an ordinary block regrew its buffer: %d -> %d", before, cap(b.buf))
	}
}

func TestBlockSeek(t *testing.T) {
	b := newBlockBuilder(3)
	for i := 0; i < 50; i += 2 { // even keys only
		ik := makeIKey([]byte(fmt.Sprintf("k%04d", i)), 1, kindValue)
		b.add(ik, []byte("v"))
	}
	blk, err := parseBlock(append([]byte(nil), b.finish()...))
	if err != nil {
		t.Fatal(err)
	}
	it := blk.iterator()
	// Seek to an absent odd key: lands on the next even key.
	it.Seek(makeIKey([]byte("k0007"), maxSeq, kindValue))
	if !it.Valid() || string(it.IKey().userKey()) != "k0008" {
		t.Fatalf("seek landed on %v", it.IKey())
	}
	// Seek before all keys.
	it.Seek(makeIKey([]byte("a"), maxSeq, kindValue))
	if !it.Valid() || string(it.IKey().userKey()) != "k0000" {
		t.Fatalf("seek-before landed on %v", it.IKey())
	}
	// Seek past all keys.
	it.Seek(makeIKey([]byte("z"), maxSeq, kindValue))
	if it.Valid() {
		t.Fatal("seek past end should be invalid")
	}
}

func TestBatchEncodeDecode(t *testing.T) {
	b := NewBatch()
	b.Put([]byte("alpha"), []byte("1"))
	b.Delete([]byte("beta"))
	b.Put([]byte("gamma"), bytes.Repeat([]byte("x"), 300))
	b.setSeq(100)
	if b.Count() != 3 {
		t.Fatalf("count = %d", b.Count())
	}
	var ops []string
	err := b.forEach(func(seq seqNum, kind keyKind, key, value []byte, _ valueSum) error {
		ops = append(ops, fmt.Sprintf("%d/%d/%s/%d", seq, kind, key, len(value)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "[100/1/alpha/1 101/0/beta/0 102/1/gamma/300]"
	if fmt.Sprint(ops) != want {
		t.Fatalf("ops = %v\nwant %v", ops, want)
	}
	// Round-trip through raw payload (the WAL path).
	b2, err := decodeBatch(b.data)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Count() != 3 || b2.seq() != 100 {
		t.Fatalf("decoded count=%d seq=%d", b2.Count(), b2.seq())
	}
}

func TestBatchReset(t *testing.T) {
	b := NewBatch()
	b.Put([]byte("k"), []byte("v"))
	b.Reset()
	if b.Count() != 0 || b.Size() != batchHeaderLen {
		t.Fatalf("after reset: count=%d size=%d", b.Count(), b.Size())
	}
}

func TestWALRoundTrip(t *testing.T) {
	fs := vfs.NewMemFS()
	f, _ := fs.Create("wal")
	w := newWALWriter(f)
	var records [][]byte
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 40; i++ {
		// Mix tiny records and ones spanning multiple 32K blocks.
		size := rng.Intn(100)
		if i%7 == 0 {
			size = walBlockSize*2 + rng.Intn(1000)
		}
		rec := make([]byte, size)
		rng.Read(rec)
		records = append(records, rec)
		if err := w.addRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	g, _ := fs.Open("wal")
	r, err := newWALReader(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range records {
		got, err := r.next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d mismatch (%d vs %d bytes)", i, len(got), len(want))
		}
	}
	if _, err := r.next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestWALTornTailStopsReplay(t *testing.T) {
	fs := vfs.NewMemFS()
	f, _ := fs.Create("wal")
	w := newWALWriter(f)
	w.addRecord([]byte("complete-record"))
	w.addRecord(bytes.Repeat([]byte("y"), 500))
	size, _ := f.Size()
	f.Truncate(size - 100) // tear the second record

	g, _ := fs.Open("wal")
	r, _ := newWALReader(g)
	got, err := r.next()
	if err != nil || string(got) != "complete-record" {
		t.Fatalf("first record: %q %v", got, err)
	}
	if _, err := r.next(); err != io.EOF {
		t.Fatalf("torn tail should read as EOF, got %v", err)
	}
}

func TestWALCorruptCRCStopsReplay(t *testing.T) {
	fs := vfs.NewMemFS()
	f, _ := fs.Create("wal")
	w := newWALWriter(f)
	w.addRecord([]byte("good"))
	w.addRecord([]byte("will-be-corrupted"))
	// Flip a byte in the second record's payload.
	f.WriteAt([]byte{0xFF}, int64(walHeaderSize+4+walHeaderSize+3))

	g, _ := fs.Open("wal")
	r, _ := newWALReader(g)
	if got, err := r.next(); err != nil || string(got) != "good" {
		t.Fatalf("first record: %q %v", got, err)
	}
	if _, err := r.next(); err != io.EOF {
		t.Fatalf("corrupt record should end replay, got %v", err)
	}
}

func TestBlockCacheLRU(t *testing.T) {
	var hits, misses obs.Counter
	// One shard: exact global LRU order, so eviction is deterministic.
	c := newBlockCacheShards(100, 1, &hits, &misses)
	b := &block{}
	c.put(1, 0, b, 40)
	c.put(1, 40, b, 40)
	if _, ok := c.get(1, 0); !ok {
		t.Fatal("entry 0 should be cached")
	}
	// Insert a third entry: evicts (1,40), the least recently used.
	c.put(1, 80, b, 40)
	if _, ok := c.get(1, 40); ok {
		t.Fatal("entry 40 should have been evicted")
	}
	if _, ok := c.get(1, 0); !ok {
		t.Fatal("recently-used entry 0 should survive")
	}
	c.evictFile(1)
	if _, ok := c.get(1, 0); ok {
		t.Fatal("evictFile should drop everything")
	}
	if hits.Load() == 0 || misses.Load() == 0 {
		t.Fatalf("stats: hits=%d misses=%d", hits.Load(), misses.Load())
	}
}

// cachedBlocks lists the blocks a cache holds.
func cachedBlocks(c *blockCache) map[cacheKey]bool {
	out := make(map[cacheKey]bool)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.items {
			out[k] = true
		}
		s.mu.Unlock()
	}
	return out
}

// TestMergeReadsBypassCache: a merge takes its inputs' blocks from the
// cache when they are there but inserts none, and what it writes does not
// depend on which of them were cached. Two stores get the same writes;
// one has every other key read into its cache before CompactAll, with an
// iterator open so the merged tables stay live and their blocks are not
// evicted. Raw and compressed tables take different read paths (only
// the latter reuses a merge's decode buffers), so both are covered.
func TestMergeReadsBypassCache(t *testing.T) {
	for _, raw := range []bool{true, false} {
		t.Run(fmt.Sprintf("raw=%v", raw), func(t *testing.T) {
			fss := [2]*vfs.MemFS{vfs.NewMemFS(), vfs.NewMemFS()}
			var dbs [2]*DB
			for i, fs := range fss {
				dbs[i] = openTestDB(t, fs, func(o *Options) {
					o.WriteBufferSize = 64 << 10
					o.L0CompactionTrigger = 100 // only CompactAll merges
					o.DisableCompression = raw
				})
				defer dbs[i].Close()
			}
			warm := dbs[1] // dbs[0] merges with a cold cache
			rng := rand.New(rand.NewSource(7))
			for round := 0; round < 4; round++ {
				for i := 0; i < 300; i++ {
					key := []byte(fmt.Sprintf("bypass%04d", rng.Intn(600)))
					value := bytes.Repeat([]byte{byte(round), byte(i)}, 40+rng.Intn(400))
					for _, db := range dbs {
						if err := db.Put(key, value); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, db := range dbs {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 600; i += 2 {
				if _, err := warm.Get([]byte(fmt.Sprintf("bypass%04d", i))); err != nil && err != ErrNotFound {
					t.Fatal(err)
				}
			}
			before := cachedBlocks(warm.cache)
			if len(before) == 0 {
				t.Fatal("reads cached no block")
			}
			it, err := warm.NewIterator()
			if err != nil {
				t.Fatal(err)
			}
			for _, db := range dbs {
				if err := db.CompactAll(); err != nil {
					t.Fatal(err)
				}
			}
			after := cachedBlocks(warm.cache)
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if len(after) != len(before) {
				t.Fatalf("CompactAll changed the cache from %d blocks to %d", len(before), len(after))
			}
			for k := range after {
				if !before[k] {
					t.Fatalf("CompactAll cached block %+v", k)
				}
			}
			names, err := fss[0].List("db")
			if err != nil {
				t.Fatal(err)
			}
			tables := 0
			for _, name := range names {
				if !strings.HasSuffix(name, ".sst") {
					continue
				}
				tables++
				if !bytes.Equal(readWholeFile(t, fss[0], "db/"+name), readWholeFile(t, fss[1], "db/"+name)) {
					t.Fatalf("%s differs between the cold and the warm merge", name)
				}
			}
			if tables == 0 {
				t.Fatal("no tables after CompactAll")
			}
		})
	}
}

// TestBlockCacheShardedConcurrent hammers the sharded cache from many
// goroutines (get/put/evictFile interleaved) and then checks the
// bookkeeping invariants shard by shard. Run under -race this is the
// lock-contention regression test for the parallel restore read path.
func TestBlockCacheShardedConcurrent(t *testing.T) {
	var hits, misses obs.Counter
	c := newBlockCache(1<<16, &hits, &misses)
	b := &block{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				fileNum := uint64(g%4 + 1)
				off := int64(i%64) * 512
				c.put(fileNum, off, b, 256)
				c.get(fileNum, off)
				c.get(uint64(g+10), int64(i)) // guaranteed miss
				if i%500 == 499 {
					c.evictFile(fileNum)
				}
			}
		}()
	}
	wg.Wait()
	for i := range c.shards {
		s := &c.shards[i]
		if s.used > s.capacity && s.order.Len() > 1 {
			t.Fatalf("shard %d over capacity: used=%d cap=%d entries=%d",
				i, s.used, s.capacity, s.order.Len())
		}
		if s.order.Len() != len(s.items) {
			t.Fatalf("shard %d list/map mismatch: %d vs %d", i, s.order.Len(), len(s.items))
		}
		var sum int64
		for el := s.order.Front(); el != nil; el = el.Next() {
			sum += el.Value.(*cacheEntry).size
		}
		if sum != s.used {
			t.Fatalf("shard %d used accounting drifted: %d vs %d", i, s.used, sum)
		}
	}
	if hits.Load() == 0 || misses.Load() == 0 {
		t.Fatalf("stats: hits=%d misses=%d", hits.Load(), misses.Load())
	}
}

func TestSSTableWriteRead(t *testing.T) {
	for _, codec := range []string{"raw", "snappy"} {
		codec := codec
		t.Run(codec, func(t *testing.T) {
			fs := vfs.NewMemFS()
			opts := DefaultOptions(fs)
			switch codec {
			case "raw":
				opts.DisableCompression = true
			case "snappy":
				opts.Compression = CompressionSnappy
			}
			w, err := newTableWriter(&opts, "t.sst", 1, nil, iosched.Flush)
			if err != nil {
				t.Fatal(err)
			}
			const n = 3000
			for i := 0; i < n; i++ {
				ik := makeIKey([]byte(fmt.Sprintf("key-%06d", i)), seqNum(i+1), kindValue)
				// Compressible values so the codec actually engages.
				w.add(ik, bytes.Repeat([]byte{byte('a' + i%26)}, 64), noSum)
			}
			meta, err := w.finish()
			if err != nil {
				t.Fatal(err)
			}
			if meta.entries != n {
				t.Fatalf("entries = %d", meta.entries)
			}
			if string(meta.smallest.userKey()) != "key-000000" ||
				string(meta.largest.userKey()) != fmt.Sprintf("key-%06d", n-1) {
				t.Fatalf("bounds: %s .. %s", meta.smallest, meta.largest)
			}

			g, _ := fs.Open("t.sst")
			r, err := openTable(g, &opts, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Point lookups.
			for _, i := range []int{0, 1, 500, 1234, n - 1} {
				v, _, _, found, deleted, err := r.get([]byte(fmt.Sprintf("key-%06d", i)), maxSeq, false)
				if err != nil || !found || deleted {
					t.Fatalf("get %d: found=%v deleted=%v err=%v", i, found, deleted, err)
				}
				if want := bytes.Repeat([]byte{byte('a' + i%26)}, 64); !bytes.Equal(v, want) {
					t.Fatalf("get %d: wrong value", i)
				}
			}
			// Absent keys.
			if _, _, _, found, _, err := r.get([]byte("zzz"), maxSeq, false); err != nil || found {
				t.Fatalf("absent key: found=%v err=%v", found, err)
			}
			if _, _, _, found, _, err := r.get([]byte("key-0000005x"), maxSeq, false); err != nil || found {
				t.Fatalf("absent key 2: found=%v err=%v", found, err)
			}
			// Full scan.
			it := r.iterator()
			count := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				count++
			}
			if count != n {
				t.Fatalf("scan count = %d", count)
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSSTableSeek(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := DefaultOptions(fs)
	w, err := newTableWriter(&opts, "t.sst", 1, nil, iosched.Flush)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i += 2 {
		w.add(makeIKey([]byte(fmt.Sprintf("k%06d", i)), 1, kindValue), []byte("v"), noSum)
	}
	if _, err := w.finish(); err != nil {
		t.Fatal(err)
	}
	g, _ := fs.Open("t.sst")
	r, err := openTable(g, &opts, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	it := r.iterator()
	it.Seek(makeIKey([]byte("k000501"), maxSeq, kindValue))
	if !it.Valid() || string(it.IKey().userKey()) != "k000502" {
		t.Fatalf("seek landed on %s", it.IKey())
	}
	it.Seek(makeIKey([]byte("zzzz"), maxSeq, kindValue))
	if it.Valid() {
		t.Fatal("seek past end should be invalid")
	}
}

func TestSSTableDetectsCorruption(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := DefaultOptions(fs)
	opts.DisableCompression = true
	w, err := newTableWriter(&opts, "t.sst", 1, nil, iosched.Flush)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		w.add(makeIKey([]byte(fmt.Sprintf("k%06d", i)), 1, kindValue), bytes.Repeat([]byte("v"), 50), noSum)
	}
	if _, err := w.finish(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte early in the first data block.
	f, err := fs.Open("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte{0xAA}, 20)
	f.Close()
	g, _ := fs.Open("t.sst")
	r, err := openTable(g, &opts, 1, nil)
	if err != nil {
		t.Fatal(err) // index block is at the end, still intact
	}
	if _, _, _, _, _, err := r.get([]byte("k000001"), maxSeq, false); err == nil {
		t.Fatal("expected checksum error reading corrupted block")
	}
}

func TestMergingIterator(t *testing.T) {
	m1, m2 := newMemtable(), newMemtable()
	m1.add(1, kindValue, []byte("a"), []byte("m1"), noSum)
	m1.add(2, kindValue, []byte("c"), []byte("m1"), noSum)
	m2.add(3, kindValue, []byte("b"), []byte("m2"), noSum)
	m2.add(4, kindValue, []byte("a"), []byte("m2-newer"), noSum)
	mi := newMergingIterator([]internalIterator{m1.iterator(), m2.iterator()})
	var got []string
	for mi.SeekToFirst(); mi.Valid(); mi.Next() {
		got = append(got, fmt.Sprintf("%s@%d", mi.IKey().userKey(), mi.IKey().seq()))
	}
	// "a" appears twice: seq 4 (newer) then seq 1.
	want := "[a@4 a@1 b@3 c@2]"
	if fmt.Sprint(got) != want {
		t.Fatalf("got %v want %v", got, want)
	}
}
