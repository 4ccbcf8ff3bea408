package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"sync"
	"testing"

	"lsmio/internal/lsm"
	"lsmio/internal/obs"
	"lsmio/internal/obs/obstest"
	"lsmio/internal/vfs"
)

func openTestStore(t *testing.T, fs vfs.FS, backend Backend) Store {
	t.Helper()
	st, _ := openTestStoreObs(t, fs, backend)
	return st
}

// openTestStoreObs is openTestStore that also returns the registry the
// engine records into.
func openTestStoreObs(t *testing.T, fs vfs.FS, backend Backend) (Store, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	st, err := OpenStore("store", StoreOptions{
		Backend:         backend,
		FS:              fs,
		WriteBufferSize: 64 << 10,
		Obs:             reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, reg
}

func backends() []Backend { return []Backend{BackendRocks, BackendLevel} }

func TestStorePutGetDel(t *testing.T) {
	for _, b := range backends() {
		t.Run(string(b), func(t *testing.T) {
			st := openTestStore(t, vfs.NewMemFS(), b)
			defer st.Close()
			if err := st.Put("alpha", []byte("1"), false); err != nil {
				t.Fatal(err)
			}
			v, err := st.Get("alpha")
			if err != nil || string(v) != "1" {
				t.Fatalf("get: %q %v", v, err)
			}
			if _, err := st.Get("missing"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing: %v", err)
			}
			if err := st.Del("alpha"); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Get("alpha"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted: %v", err)
			}
		})
	}
}

func TestStoreAppend(t *testing.T) {
	for _, b := range backends() {
		t.Run(string(b), func(t *testing.T) {
			st := openTestStore(t, vfs.NewMemFS(), b)
			defer st.Close()
			st.Append("log", []byte("one,"), false)
			st.Append("log", []byte("two,"), false)
			st.Append("log", []byte("three"), false)
			v, err := st.Get("log")
			if err != nil || string(v) != "one,two,three" {
				t.Fatalf("append result: %q %v", v, err)
			}
		})
	}
}

func TestStoreBatchReadYourWrites(t *testing.T) {
	for _, b := range backends() {
		t.Run(string(b), func(t *testing.T) {
			st := openTestStore(t, vfs.NewMemFS(), b)
			defer st.Close()
			if err := st.StartBatch(); err != nil {
				t.Fatal(err)
			}
			st.Put("k", []byte("batched"), false)
			// The write must be visible to the writer even while batched.
			v, err := st.Get("k")
			if err != nil || string(v) != "batched" {
				t.Fatalf("read-your-writes: %q %v", v, err)
			}
			st.Del("k")
			if _, err := st.Get("k"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("batched delete: %v", err)
			}
			// The store reads pending values out of the batch itself: an
			// overwrite must win, the caller's slice is its own again after
			// Put, and later puts that regrow the batch's buffer must not
			// strand the earlier value.
			mine := []byte("kept-v1")
			st.Put("k2", mine, false)
			copy(mine, "XXXXXXX")
			st.Put("k2", []byte("kept"), false)
			st.Put("filler", bytes.Repeat([]byte("f"), 1<<16), false)
			if v, err := st.Get("k2"); err != nil || string(v) != "kept" {
				t.Fatalf("pending overwrite: %q %v", v, err)
			}
			st.Append("k2", []byte("+more"), false)
			if v, err := st.Get("k2"); err != nil || string(v) != "kept+more" {
				t.Fatalf("pending append: %q %v", v, err)
			}
			if err := st.StopBatch(); err != nil {
				t.Fatal(err)
			}
			if v, err := st.Get("k2"); err != nil || string(v) != "kept+more" {
				t.Fatalf("after stopBatch: %q %v", v, err)
			}
			// The applied batch was consumed; the next window starts clean.
			st.StartBatch()
			st.Put("k3", []byte("next"), false)
			if v, err := st.Get("k3"); err != nil || string(v) != "next" {
				t.Fatalf("second window: %q %v", v, err)
			}
			if v, err := st.Get("k2"); err != nil || string(v) != "kept+more" {
				t.Fatalf("second window, applied key: %q %v", v, err)
			}
			st.StopBatch()
		})
	}
}

func TestStoreBarrierDurability(t *testing.T) {
	for _, b := range backends() {
		t.Run(string(b), func(t *testing.T) {
			fs := vfs.NewMemFS()
			st := openTestStore(t, fs, b)
			payload := bytes.Repeat([]byte("d"), 4096)
			for i := 0; i < 64; i++ {
				if err := st.Put(fmt.Sprintf("key-%03d", i), payload, false); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.WriteBarrier(true); err != nil {
				t.Fatal(err)
			}
			// Simulate a crash: reopen without Close.
			st2 := openTestStore(t, fs, b)
			defer st2.Close()
			for i := 0; i < 64; i++ {
				v, err := st2.Get(fmt.Sprintf("key-%03d", i))
				if err != nil || !bytes.Equal(v, payload) {
					t.Fatalf("key-%03d after barrier+crash: %v", i, err)
				}
			}
		})
	}
}

func TestRocksBackendWritesNoWAL(t *testing.T) {
	st, reg := openTestStoreObs(t, vfs.NewMemFS(), BackendRocks)
	defer st.Close()
	st.Put("k", bytes.Repeat([]byte("v"), 1024), false)
	st.WriteBarrier(false)
	if n := obstest.Counter(t, reg, "lsm.wal.bytes"); n != 0 {
		t.Fatalf("rocks backend wrote %d WAL bytes", n)
	}
}

func TestLevelBackendAlwaysWritesWAL(t *testing.T) {
	st, reg := openTestStoreObs(t, vfs.NewMemFS(), BackendLevel)
	defer st.Close()
	st.Put("k", bytes.Repeat([]byte("v"), 1024), false)
	st.WriteBarrier(false)
	if obstest.Counter(t, reg, "lsm.wal.bytes") == 0 {
		t.Fatal("level backend must write the WAL (LevelDB cannot disable it)")
	}
}

func TestLevelBatchingAmortizesWAL(t *testing.T) {
	// One WAL record per barrier (batched) must produce fewer WAL bytes
	// than one per put: the paper's reason for using WriteBatch.
	walBytes := func(batched bool) int64 {
		st, reg := openTestStoreObs(t, vfs.NewMemFS(), BackendLevel)
		defer st.Close()
		if batched {
			st.StartBatch()
		}
		for i := 0; i < 100; i++ {
			st.Put(fmt.Sprintf("k%03d", i), bytes.Repeat([]byte("v"), 100), false)
		}
		if batched {
			st.StopBatch()
		}
		st.WriteBarrier(false)
		return obstest.Counter(t, reg, "lsm.wal.bytes")
	}
	unbatched, batched := walBytes(false), walBytes(true)
	if batched >= unbatched {
		t.Fatalf("batched WAL bytes (%d) should be < unbatched (%d)", batched, unbatched)
	}
}

func TestSyncPutIsDurable(t *testing.T) {
	fs := vfs.NewMemFS()
	st := openTestStore(t, fs, BackendRocks)
	if err := st.Put("sync-key", []byte("durable"), true); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, fs, BackendRocks)
	defer st2.Close()
	if v, err := st2.Get("sync-key"); err != nil || string(v) != "durable" {
		t.Fatalf("sync put not durable: %q %v", v, err)
	}
}

func TestOpenStoreValidation(t *testing.T) {
	if _, err := OpenStore("x", StoreOptions{}); err == nil {
		t.Fatal("missing FS should error")
	}
	if _, err := OpenStore("x", StoreOptions{FS: vfs.NewMemFS(), Backend: "bogus"}); err == nil {
		t.Fatal("unknown backend should error")
	}
	for _, codec := range []lsm.CompressionCodec{"flate", "zstd"} {
		_, err := OpenStore("x", StoreOptions{FS: vfs.NewMemFS(), EnableCompression: true, Codec: codec})
		if err == nil || !strings.Contains(err.Error(), string(codec)) {
			t.Errorf("codec %q: %v, want an error naming it", codec, err)
		}
	}
}

func TestStoreLargeValuesAcrossBarriers(t *testing.T) {
	for _, b := range backends() {
		t.Run(string(b), func(t *testing.T) {
			st := openTestStore(t, vfs.NewMemFS(), b)
			defer st.Close()
			// Values larger than the write buffer force rotations mid-put.
			big := bytes.Repeat([]byte("B"), 256<<10)
			for i := 0; i < 8; i++ {
				if err := st.Put(fmt.Sprintf("big-%d", i), big, false); err != nil {
					t.Fatal(err)
				}
			}
			st.WriteBarrier(true)
			for i := 0; i < 8; i++ {
				v, err := st.Get(fmt.Sprintf("big-%d", i))
				if err != nil || !bytes.Equal(v, big) {
					t.Fatalf("big-%d: %v", i, err)
				}
			}
		})
	}
}

// TestStorePutCRCReachesTheBlock: on both backends the CRC a PutCRC
// carries becomes the checksum of the block that holds its value, also
// when one batch holds puts with and without a CRC. The true CRC reads
// back as the value; one that is not the value's reads back as
// lsm.ErrCorruption once the value is in a table.
func TestStorePutCRCReachesTheBlock(t *testing.T) {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, b := range backends() {
		t.Run(string(b), func(t *testing.T) {
			// A write buffer that holds all three puts: the level
			// backend applies them as one batch.
			st, err := OpenStore("store", StoreOptions{Backend: b, FS: vfs.NewMemFS(), WriteBufferSize: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			good := bytes.Repeat([]byte("g"), 100<<10) // more than a block
			plain := bytes.Repeat([]byte("p"), 100<<10)
			bad := bytes.Repeat([]byte("b"), 100<<10)
			if err := st.StartBatch(); err != nil {
				t.Fatal(err)
			}
			if err := st.PutCRC("good", good, crc32.Checksum(good, castagnoli)); err != nil {
				t.Fatal(err)
			}
			if err := st.Put("plain", plain, false); err != nil {
				t.Fatal(err)
			}
			if err := st.PutCRC("bad", bad, crc32.Checksum(bad, castagnoli)+1); err != nil {
				t.Fatal(err)
			}
			if err := st.StopBatch(); err != nil {
				t.Fatal(err)
			}
			if err := st.WriteBarrier(true); err != nil {
				t.Fatal(err)
			}
			for k, want := range map[string][]byte{"good": good, "plain": plain} {
				if v, err := st.Get(k); err != nil || !bytes.Equal(v, want) {
					t.Fatalf("Get(%s) = %d bytes, %v", k, len(v), err)
				}
			}
			if v, err := st.Get("bad"); !errors.Is(err, lsm.ErrCorruption) {
				t.Fatalf("Get(bad) = %d bytes, %v; want lsm.ErrCorruption", len(v), err)
			}
		})
	}
}

// TestStoreGetCRC: on both backends GetCRC returns the value's CRC-32C
// once the value is in a table, a block of its own, and read from there,
// never while it waits in the level backend's batch or in the memtable.
func TestStoreGetCRC(t *testing.T) {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, b := range backends() {
		t.Run(string(b), func(t *testing.T) {
			st := openTestStore(t, vfs.NewMemFS(), b)
			defer st.Close()
			v := bytes.Repeat([]byte("v"), 100<<10) // more than a block
			crc := crc32.Checksum(v, castagnoli)
			check := func(when string, wantOK bool) {
				t.Helper()
				got, gotCRC, ok, err := st.GetCRC("k")
				if err != nil || !bytes.Equal(got, v) || ok != wantOK || ok && gotCRC != crc {
					t.Fatalf("%s: GetCRC = %d bytes, crc %#08x, ok %v, %v; want ok %v", when, len(got), gotCRC, ok, err, wantOK)
				}
			}
			if err := st.StartBatch(); err != nil {
				t.Fatal(err)
			}
			if err := st.PutCRC("k", v, crc); err != nil {
				t.Fatal(err)
			}
			check("buffered", false)
			if err := st.StopBatch(); err != nil {
				t.Fatal(err)
			}
			check("in the memtable", false)
			if err := st.WriteBarrier(true); err != nil {
				t.Fatal(err)
			}
			check("in a table", true)
			if _, _, _, err := st.GetCRC("missing"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("GetCRC(missing) = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestStoreScan(t *testing.T) {
	for _, b := range backends() {
		t.Run(string(b), func(t *testing.T) {
			st := openTestStore(t, vfs.NewMemFS(), b)
			defer st.Close()
			for i := 0; i < 20; i++ {
				st.Put(fmt.Sprintf("scan/%03d", i), []byte(fmt.Sprintf("v%d", i)), false)
			}
			st.Put("other/key", []byte("x"), false)
			st.Del("scan/005")
			var keys []string
			err := st.Scan("scan/", func(k string, v []byte) bool {
				keys = append(keys, k)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != 19 {
				t.Fatalf("scanned %d keys: %v", len(keys), keys)
			}
			for i := 1; i < len(keys); i++ {
				if keys[i] <= keys[i-1] {
					t.Fatalf("scan out of order at %d: %v", i, keys)
				}
			}
			for _, k := range keys {
				if k == "scan/005" || k == "other/key" {
					t.Fatalf("unexpected key %s", k)
				}
			}
			// Early stop.
			count := 0
			st.Scan("scan/", func(string, []byte) bool { count++; return count < 5 })
			if count != 5 {
				t.Fatalf("early stop visited %d", count)
			}
		})
	}
}

// TestStoreReadsAreTheCallers keeps every value Get and Scan hand out,
// overwrites them all, and reads the store again: the values are the
// caller's, whether they came from the memtable, a pending batch or a
// table, and whether or not the engine handed over the block it read.
func TestStoreReadsAreTheCallers(t *testing.T) {
	value := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 100<<i) } // 100 B .. 100 KiB
	const n = 11
	for _, b := range backends() {
		t.Run(string(b), func(t *testing.T) {
			st := openTestStore(t, vfs.NewMemFS(), b)
			defer st.Close()
			st.StartBatch()
			for i := 0; i < n; i++ {
				if err := st.Put(fmt.Sprintf("own/%02d", i), value(i), false); err != nil {
					t.Fatal(err)
				}
			}
			for _, where := range []string{"before the barrier", "after the barrier"} {
				var kept [][]byte
				for i := 0; i < n; i++ {
					v, err := st.Get(fmt.Sprintf("own/%02d", i))
					if err != nil {
						t.Fatal(err)
					}
					kept = append(kept, v)
				}
				if err := st.Scan("own/", func(_ string, v []byte) bool {
					kept = append(kept, v)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				for _, v := range kept {
					for j := range v {
						v[j] = '!'
					}
				}
				i := 0
				if err := st.Scan("own/", func(k string, v []byte) bool {
					if !bytes.Equal(v, value(i)) {
						t.Errorf("%s: %s reads %d bytes changed by a caller's write", where, k, len(v))
					}
					i++
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if i != n {
					t.Fatalf("%s: scan saw %d keys, want %d", where, i, n)
				}
				if err := st.WriteBarrier(true); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestStoreConcurrentUse: goroutines that each own a key prefix put,
// read back, scan and barrier on one store at once (the level backend
// inside a batch window), and every write stays visible to its writer
// and to a final scan. Run under -race it checks the Store contract.
func TestStoreConcurrentUse(t *testing.T) {
	const writers, keys = 4, 64
	for _, b := range backends() {
		t.Run(string(b), func(t *testing.T) {
			st := openTestStore(t, vfs.NewMemFS(), b)
			defer st.Close()
			if err := st.StartBatch(); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					prefix := fmt.Sprintf("g%d/", g)
					for i := 0; i < keys; i++ {
						key := fmt.Sprintf("%sk%03d", prefix, i)
						val := bytes.Repeat([]byte{byte(g), byte(i)}, 512)
						if err := st.Put(key, val, false); err != nil {
							t.Error(err)
							return
						}
						if v, err := st.Get(key); err != nil || !bytes.Equal(v, val) {
							t.Errorf("%s: read %d bytes, %v", key, len(v), err)
							return
						}
						if i%16 != 15 {
							continue
						}
						if err := st.WriteBarrier(true); err != nil {
							t.Error(err)
							return
						}
						n := 0
						if err := st.Scan(prefix, func(string, []byte) bool { n++; return true }); err != nil || n != i+1 {
							t.Errorf("scan of %s saw %d keys, %v; want %d", prefix, n, err, i+1)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if err := st.StopBatch(); err != nil {
				t.Fatal(err)
			}
			n := 0
			if err := st.Scan("g", func(string, []byte) bool { n++; return true }); err != nil || n != writers*keys {
				t.Fatalf("final scan saw %d keys, %v; want %d", n, err, writers*keys)
			}
		})
	}
}

func TestLevelStoreScanSeesBatchedWrites(t *testing.T) {
	st := openTestStore(t, vfs.NewMemFS(), BackendLevel)
	defer st.Close()
	st.StartBatch()
	st.Put("b/1", []byte("x"), false)
	st.Put("b/2", []byte("y"), false)
	found := 0
	if err := st.Scan("b/", func(string, []byte) bool { found++; return true }); err != nil {
		t.Fatal(err)
	}
	if found != 2 {
		t.Fatalf("scan saw %d batched keys", found)
	}
	st.StopBatch()
}

// TestStoreDeletePrefix: a prefix delete removes every key under the
// prefix, flushed or still buffered (the level backend's pending batch
// included), keeps the rest, and is durable when it returns: a reopen
// after a Close sees it.
func TestStoreDeletePrefix(t *testing.T) {
	for _, b := range backends() {
		t.Run(string(b), func(t *testing.T) {
			fs := vfs.NewMemFS()
			st := openTestStore(t, fs, b)
			st.StartBatch()
			for i := 0; i < 20; i++ {
				for _, p := range []string{"gone/", "kept/"} {
					if err := st.Put(fmt.Sprintf("%s%02d", p, i), bytes.Repeat([]byte{byte(i)}, 4<<10), false); err != nil {
						t.Fatal(err)
					}
				}
				if i == 9 {
					if err := st.WriteBarrier(true); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := st.DeletePrefix("gone/"); err != nil {
				t.Fatal(err)
			}
			check := func(st Store) {
				t.Helper()
				n := 0
				if err := st.Scan("", func(key string, _ []byte) bool {
					if !strings.HasPrefix(key, "kept/") {
						t.Errorf("%s survived the prefix delete", key)
					}
					n++
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if n != 20 {
					t.Fatalf("%d keys left, want the 20 kept ones", n)
				}
			}
			check(st)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st = openTestStore(t, fs, b)
			defer st.Close()
			check(st)
		})
	}
}
