package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lsmio/internal/obs/obstest"
	"lsmio/internal/vfs"
)

func openTestDB(t testing.TB, fs vfs.FS, mutate func(*Options)) *DB {
	t.Helper()
	opts := DefaultOptions(fs)
	if mutate != nil {
		mutate(&opts)
	}
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPutGetDelete(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), nil)
	defer db.Close()
	if err := db.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("k1"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("get: %q %v", v, err)
	}
	if _, err := db.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key err = %v", err)
	}
	if err := db.Delete([]byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k1")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key err = %v", err)
	}
	// Overwrite.
	db.Put([]byte("k2"), []byte("a"))
	db.Put([]byte("k2"), []byte("b"))
	if v, _ := db.Get([]byte("k2")); string(v) != "b" {
		t.Fatalf("overwrite: %q", v)
	}
}

func TestGetAfterFlush(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), nil)
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%d", i)))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if files := db.NumTableFiles(); files[0] == 0 {
		t.Fatal("flush should have produced an L0 table")
	}
	for i := 0; i < 100; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("key-%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key %d after flush: %q %v", i, v, err)
		}
	}
	// A write after the flush shadows the table entry.
	db.Put([]byte("key-050"), []byte("newer"))
	if v, _ := db.Get([]byte("key-050")); string(v) != "newer" {
		t.Fatalf("shadow: %q", v)
	}
	// A delete after the flush hides the table entry.
	db.Delete([]byte("key-051"))
	if _, err := db.Get([]byte("key-051")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete-after-flush: %v", err)
	}
}

func TestAutomaticMemtableRotation(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), func(o *Options) {
		o.WriteBufferSize = 32 << 10
		o.DisableCompaction = true
	})
	defer db.Close()
	val := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	files := db.NumTableFiles()
	if files[0] < 3 {
		t.Fatalf("expected several L0 files from rotation, got %d", files[0])
	}
	for i := 0; i < 200; i++ {
		if v, err := db.Get([]byte(fmt.Sprintf("k%04d", i))); err != nil || !bytes.Equal(v, val) {
			t.Fatalf("k%04d: err=%v", i, err)
		}
	}
	if flushes, n := obstest.Counter(t, db.Obs(), "lsm.flush.count"), obstest.Counter(t, db.Obs(), "lsm.flush.bytes"); flushes < 3 || n == 0 {
		t.Fatalf("stats: %d flushes of %d bytes", flushes, n)
	}
}

func TestRecoveryFromWAL(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, nil)
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("wal-%02d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Delete([]byte("wal-10"))
	// No flush: simulate a crash by reopening without Close.
	db2 := openTestDB(t, fs, nil)
	defer db2.Close()
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("wal-%02d", i)
		v, err := db2.Get([]byte(key))
		if i == 10 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key survived recovery: %q %v", v, err)
			}
			continue
		}
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %s after recovery: %q %v", key, v, err)
		}
	}
}

func TestRecoveryWithoutWALNeedsFlush(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, func(o *Options) { o.DisableWAL = true })
	db.Put([]byte("flushed"), []byte("yes"))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("unflushed"), []byte("lost"))
	// Crash: reopen without Close or Flush.
	db2 := openTestDB(t, fs, func(o *Options) { o.DisableWAL = true })
	defer db2.Close()
	if v, err := db2.Get([]byte("flushed")); err != nil || string(v) != "yes" {
		t.Fatalf("flushed key: %q %v", v, err)
	}
	// Without a WAL, unflushed data is gone — the documented contract.
	if _, err := db2.Get([]byte("unflushed")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unflushed key should be lost, got err=%v", err)
	}
}

func TestRecoveryAcrossManyReopens(t *testing.T) {
	fs := vfs.NewMemFS()
	total := 0
	for round := 0; round < 5; round++ {
		db := openTestDB(t, fs, nil)
		for i := 0; i < 30; i++ {
			db.Put([]byte(fmt.Sprintf("r%d-k%02d", round, i)), []byte("v"))
			total++
		}
		if round%2 == 0 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	db := openTestDB(t, fs, nil)
	defer db.Close()
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	count := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		count++
	}
	if count != total {
		t.Fatalf("recovered %d keys, want %d", count, total)
	}
	// Every open writes a fresh manifest; the superseded ones are swept,
	// so six opens leave exactly the one CURRENT names.
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	var manifests []string
	for _, name := range names {
		if strings.HasPrefix(name, "MANIFEST-") {
			manifests = append(manifests, name)
		}
	}
	cur, err := fs.Open("db/CURRENT")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	current, err := vfs.ReadAll(cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(manifests) != 1 || manifests[0] != strings.TrimSpace(string(current)) {
		t.Fatalf("manifests after 6 opens: %v, CURRENT names %q", manifests, current)
	}
}

func TestIteratorOrderAndSnapshot(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), func(o *Options) { o.WriteBufferSize = 16 << 10 })
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("it-%03d", i)), bytes.Repeat([]byte("v"), 200))
	}
	db.Delete([]byte("it-050"))
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	// Writes after iterator creation must be invisible.
	db.Put([]byte("it-200"), []byte("late"))
	db.Put([]byte("it-000"), []byte("mutated"))

	var keys []string
	prev := ""
	for it.SeekToFirst(); it.Valid(); it.Next() {
		k := string(it.Key())
		if k <= prev && prev != "" {
			t.Fatalf("keys out of order: %s after %s", k, prev)
		}
		prev = k
		keys = append(keys, k)
		if k == "it-000" && string(it.Value()) == "mutated" {
			t.Fatal("snapshot isolation violated")
		}
	}
	if len(keys) != 99 { // 100 - 1 deleted
		t.Fatalf("iterated %d keys", len(keys))
	}
	for _, k := range keys {
		if k == "it-050" || k == "it-200" {
			t.Fatalf("unexpected key %s", k)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSurvivesFlushAndCompaction: an iterator is a snapshot. One
// opened before every key is overwritten and the tree fully compacted
// still reads the values of its creation, because its version pins the
// tables the compaction replaced and its sequence hides the newer
// versions in the memtable.
func TestSnapshotSurvivesFlushAndCompaction(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), func(o *Options) {
		o.WriteBufferSize = 8 << 10
		o.L0CompactionTrigger = 2
	})
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("s%03d", i)), bytes.Repeat([]byte("a"), 100))
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("s%03d", i)), bytes.Repeat([]byte("b"), 100))
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if it.Value()[0] != 'a' {
			t.Fatalf("iterator saw %q at %q, written after it was opened", it.Value()[:1], it.Key())
		}
		n++
	}
	if n != 100 {
		t.Fatalf("iterator saw %d of 100 keys across the compaction", n)
	}
	if v, err := db.Get([]byte("s013")); err != nil || v[0] != 'b' {
		t.Fatalf("live read after compaction = %q, %v", v, err)
	}
}

// TestRetiredKeysReclaimedAtTheirFlush: deleting every key and flushing
// frees their bytes at once. The flush's table is all tombstones, which
// makes L0 due for compaction although it holds one table, far below
// L0CompactionTrigger; the merge then drops the values and the tombstones
// together. Before the rule, whether a checkpoint's retired steps were
// reclaimed depended on whether their flush happened to be L0's
// trigger-th table.
func TestRetiredKeysReclaimedAtTheirFlush(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), nil)
	defer db.Close()
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("step/%04d", i)), bytes.Repeat([]byte{byte(i)}, 1000))
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		db.Delete([]byte(fmt.Sprintf("step/%04d", i)))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitBackground(); err != nil {
		t.Fatal(err)
	}
	var total int64
	db.mu.Lock()
	for l := 0; l < numLevels; l++ {
		total += db.vs.current.levelBytes(l)
	}
	db.mu.Unlock()
	if files := db.NumTableFiles(); files[0] != 0 || total != 0 {
		t.Fatalf("after deleting every key: tables per level %v, %d table bytes; want L0 empty and 0 bytes", files, total)
	}
}

func TestGetProperty(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), nil)
	defer db.Close()
	db.Put([]byte("p"), []byte("v"))
	if v, ok := db.GetProperty(PropMemtableSize); !ok || v == "0" {
		t.Fatalf("memtable-size = %q %v", v, ok)
	}
	db.Flush()
	if v, ok := db.GetProperty(PropNumFilesAtLevelPrefix + "0"); !ok || v != "1" {
		t.Fatalf("files at L0 = %q %v", v, ok)
	}
	if v, ok := db.GetProperty(PropLevelBytesPrefix + "0"); !ok || v == "0" {
		t.Fatalf("level bytes = %q %v", v, ok)
	}
	if v, ok := db.GetProperty(PropLastSeq); !ok || v != "1" {
		t.Fatalf("last seq = %q %v", v, ok)
	}
	if v, ok := db.GetProperty(PropTableFiles); !ok || v != "1" {
		t.Fatalf("table files = %q %v", v, ok)
	}
	if v, ok := db.GetProperty(PropImmutableCount); !ok || v != "0" {
		t.Fatalf("immutables = %q %v", v, ok)
	}
	if _, ok := db.GetProperty("lsmio.nonsense"); ok {
		t.Fatal("unknown property matched")
	}
	if _, ok := db.GetProperty(PropNumFilesAtLevelPrefix + "99"); ok {
		t.Fatal("out-of-range level matched")
	}
}

func TestIteratorSeek(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), nil)
	defer db.Close()
	for i := 0; i < 100; i += 2 {
		db.Put([]byte(fmt.Sprintf("s%03d", i)), []byte("v"))
	}
	db.Flush()
	it, _ := db.NewIterator()
	defer it.Close()
	it.Seek([]byte("s051"))
	if !it.Valid() || string(it.Key()) != "s052" {
		t.Fatalf("seek landed on %q", it.Key())
	}
	it.Seek([]byte("s098"))
	if !it.Valid() || string(it.Key()) != "s098" {
		t.Fatalf("exact seek landed on %q", it.Key())
	}
	it.Seek([]byte("zzz"))
	if it.Valid() {
		t.Fatal("seek past end")
	}
}

func TestBatchAtomicVisibility(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), nil)
	defer db.Close()
	b := NewBatch()
	for i := 0; i < 10; i++ {
		b.Put([]byte(fmt.Sprintf("b%d", i)), []byte("v"))
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatalf("b%d: %v", i, err)
		}
	}
}

func TestCompactionPreservesData(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, func(o *Options) {
		o.WriteBufferSize = 16 << 10
		o.L0CompactionTrigger = 2
		o.BaseLevelSize = 64 << 10
	})
	defer db.Close()
	model := map[string]string{}
	rng := rand.New(rand.NewSource(11))
	val := func(i int) string { return strings.Repeat(fmt.Sprintf("v%d-", i), 20) }
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("c%04d", rng.Intn(500))
		if rng.Intn(6) == 0 {
			db.Delete([]byte(k))
			delete(model, k)
		} else {
			db.Put([]byte(k), []byte(val(i)))
			model[k] = val(i)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if obstest.Counter(t, db.Obs(), "lsm.compaction.count") == 0 {
		t.Fatal("expected at least one compaction")
	}
	files := db.NumTableFiles()
	if files[0] > 1 {
		t.Fatalf("CompactAll left %d L0 files", files[0])
	}
	for k, want := range model {
		v, err := db.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("key %s after compaction: err=%v", k, err)
		}
	}
	it, _ := db.NewIterator()
	defer it.Close()
	count := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if _, ok := model[string(it.Key())]; !ok {
			t.Fatalf("iterator yielded unexpected key %q", it.Key())
		}
		count++
	}
	if count != len(model) {
		t.Fatalf("iterator count %d != model %d", count, len(model))
	}
}

func TestCompactionDropsObsoleteFiles(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, func(o *Options) {
		o.WriteBufferSize = 8 << 10
		o.L0CompactionTrigger = 2
	})
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("g%04d", i)), bytes.Repeat([]byte("z"), 100))
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	names, _ := fs.List("db")
	ssts := 0
	for _, n := range names {
		if strings.HasSuffix(n, ".sst") {
			ssts++
		}
	}
	live := 0
	for _, c := range db.vs.liveFileNums() {
		if c {
			live++
		}
	}
	if ssts != live {
		t.Fatalf("%d .sst files on disk but %d live", ssts, live)
	}
}

func TestDisableCompactionLeavesL0Alone(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), func(o *Options) {
		o.WriteBufferSize = 8 << 10
		o.DisableCompaction = true
		o.L0CompactionTrigger = 2
	})
	defer db.Close()
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("n%04d", i)), bytes.Repeat([]byte("z"), 100))
	}
	db.Flush()
	files := db.NumTableFiles()
	if files[0] < 4 {
		t.Fatalf("expected many L0 files with compaction off, got %d", files[0])
	}
	if obstest.Counter(t, db.Obs(), "lsm.compaction.count") != 0 {
		t.Fatal("compaction ran despite being disabled")
	}
}

func TestCheckpointOptionsEndToEnd(t *testing.T) {
	// The paper's configuration: WAL/compression/cache/compaction off,
	// async flush, 32 MB buffer (scaled down here).
	fs := vfs.NewMemFS()
	opts := CheckpointOptions(fs)
	opts.WriteBufferSize = 64 << 10
	db, err := Open("ckpt", opts)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("c"), 4096)
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("ck-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil { // the write barrier
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if v, err := db.Get([]byte(fmt.Sprintf("ck-%04d", i))); err != nil || !bytes.Equal(v, val) {
			t.Fatalf("ck-%04d: %v", i, err)
		}
	}
	if n := obstest.Counter(t, db.Obs(), "lsm.wal.bytes"); n != 0 {
		t.Fatalf("WAL was written despite DisableWAL: %d bytes", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: all barrier-flushed data must be durable.
	db2, err := Open("ckpt", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 100; i++ {
		if _, err := db2.Get([]byte(fmt.Sprintf("ck-%04d", i))); err != nil {
			t.Fatalf("reopen ck-%04d: %v", i, err)
		}
	}
}

func TestClosedDBRejectsOps(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), nil)
	db.Close()
	if err := db.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("put: %v", err)
	}
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("get: %v", err)
	}
	if err := db.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("flush: %v", err)
	}
	if _, err := db.NewIterator(); !errors.Is(err, ErrClosed) {
		t.Fatalf("iter: %v", err)
	}
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestHas(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), nil)
	defer db.Close()
	db.Put([]byte("present"), []byte("v"))
	if ok, err := db.Has([]byte("present")); err != nil || !ok {
		t.Fatalf("present: %v %v", ok, err)
	}
	if ok, err := db.Has([]byte("absent")); err != nil || ok {
		t.Fatalf("absent: %v %v", ok, err)
	}
}

func TestEmptyValueAndLargeValue(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), nil)
	defer db.Close()
	if err := db.Put([]byte("empty"), nil); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("empty"))
	if err != nil || len(v) != 0 {
		t.Fatalf("empty value: %q %v", v, err)
	}
	large := bytes.Repeat([]byte("L"), 5<<20)
	if err := db.Put([]byte("large"), large); err != nil {
		t.Fatal(err)
	}
	db.Flush()
	v, err = db.Get([]byte("large"))
	if err != nil || !bytes.Equal(v, large) {
		t.Fatalf("large value: len=%d %v", len(v), err)
	}
}

// TestRandomOpsMatchModel is the main property test: a long random
// schedule of puts, deletes, flushes, compactions and reopens must always
// agree with an in-memory map.
func TestRandomOpsMatchModel(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := DefaultOptions(fs)
	opts.WriteBufferSize = 8 << 10
	opts.L0CompactionTrigger = 3
	opts.BaseLevelSize = 32 << 10
	db, err := Open("rnd", opts)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	rng := rand.New(rand.NewSource(1234))
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(100); {
		case op < 55: // put
			k := fmt.Sprintf("p%03d", rng.Intn(400))
			v := fmt.Sprintf("val-%d-%s", step, strings.Repeat("x", rng.Intn(100)))
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case op < 75: // delete
			k := fmt.Sprintf("p%03d", rng.Intn(400))
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		case op < 85: // get
			k := fmt.Sprintf("p%03d", rng.Intn(400))
			v, err := db.Get([]byte(k))
			want, ok := model[k]
			if ok && (err != nil || string(v) != want) {
				t.Fatalf("step %d: get %s = %q, %v; want %q", step, k, v, err, want)
			}
			if !ok && !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: get %s = %q, %v; want NotFound", step, k, v, err)
			}
		case op < 92: // flush
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		case op < 95: // full compaction
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}
		default: // reopen
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = Open("rnd", opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Final sweep: every model key, plus iterator agreement.
	for k, want := range model {
		v, err := db.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("final get %s: %q %v, want %q", k, v, err, want)
		}
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if want, ok := model[string(it.Key())]; !ok || want != string(it.Value()) {
			t.Fatalf("iterator key %q disagrees with model", it.Key())
		}
		seen++
	}
	it.Close()
	if seen != len(model) {
		t.Fatalf("iterator saw %d keys, model has %d", seen, len(model))
	}
	db.Close()
}

func TestConcurrentWriters(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), func(o *Options) {
		o.WriteBufferSize = 32 << 10
		o.AsyncFlush = true
	})
	defer db.Close()
	const writers, perWriter = 8, 200
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < perWriter; i++ {
				k := []byte(fmt.Sprintf("w%d-%04d", w, i))
				if err := db.Put(k, bytes.Repeat([]byte("v"), 100)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if _, err := db.Get([]byte(fmt.Sprintf("w%d-%04d", w, i))); err != nil {
				t.Fatalf("w%d-%04d: %v", w, i, err)
			}
		}
	}
}

func TestRangeIterator(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), func(o *Options) { o.WriteBufferSize = 8 << 10 })
	defer db.Close()
	for i := 0; i < 300; i++ {
		db.Put([]byte(fmt.Sprintf("rng%04d", i)), bytes.Repeat([]byte("v"), 64))
	}
	db.Flush()
	it, err := db.NewRangeIterator([]byte("rng0100"), []byte("rng0200"))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	count := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		k := string(it.Key())
		if k < "rng0100" || k >= "rng0200" {
			t.Fatalf("out-of-bounds key %q", k)
		}
		count++
	}
	if count != 100 {
		t.Fatalf("range saw %d keys, want 100", count)
	}
	// Seek below the lower bound clamps.
	it.Seek([]byte("rng0000"))
	if !it.Valid() || string(it.Key()) != "rng0100" {
		t.Fatalf("clamped seek landed on %q", it.Key())
	}
	// Seek beyond the upper bound is invalid.
	it.Seek([]byte("rng0205"))
	if it.Valid() {
		t.Fatalf("seek past upper bound returned %q", it.Key())
	}
}

func TestRangeIteratorSkipsNonOverlappingTables(t *testing.T) {
	// Keys in two disjoint clusters flushed to separate tables: a scan of
	// one cluster must not open the other's table (observable through the
	// block cache miss count staying flat for it).
	db := openTestDB(t, vfs.NewMemFS(), func(o *Options) {
		o.DisableCompaction = true
	})
	defer db.Close()
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("aaa%03d", i)), []byte("v"))
	}
	db.Flush()
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("zzz%03d", i)), []byte("v"))
	}
	db.Flush()
	it, err := db.NewRangeIterator([]byte("aaa"), []byte("aab"))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
	}
	if n != 50 {
		t.Fatalf("saw %d keys", n)
	}
}

func TestSizeTriggeredDeepCompaction(t *testing.T) {
	// Small level targets force data past L1 into L2, exercising the
	// round-robin compaction pointer and deep-level routing.
	db := openTestDB(t, vfs.NewMemFS(), func(o *Options) {
		o.WriteBufferSize = 8 << 10
		o.L0CompactionTrigger = 2
		o.BaseLevelSize = 16 << 10
		o.LevelSizeMultiplier = 2
		o.DisableCompression = true
	})
	defer db.Close()
	payload := bytes.Repeat([]byte("deep"), 100)
	for i := 0; i < 1500; i++ {
		if err := db.Put([]byte(fmt.Sprintf("dc%05d", i%600)), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait for background compaction to settle.
	if err := db.WaitBackground(); err != nil {
		t.Fatal(err)
	}
	files := db.NumTableFiles()
	deep := 0
	for l := 2; l < len(files); l++ {
		deep += files[l]
	}
	if deep == 0 {
		t.Fatalf("no tables below L1: %v", files)
	}
	// All data remains readable.
	for i := 0; i < 600; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("dc%05d", i))); err != nil {
			t.Fatalf("dc%05d: %v", i, err)
		}
	}
	if err := db.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

func TestMMapStyleTableWrites(t *testing.T) {
	// UseMMap coalesces table writes into ~1MB segments; data must be
	// identical either way.
	for _, mm := range []bool{false, true} {
		fs := vfs.NewMemFS()
		db := openTestDB(t, fs, func(o *Options) {
			o.UseMMap = mm
			o.WriteBufferSize = 64 << 10
		})
		for i := 0; i < 500; i++ {
			db.Put([]byte(fmt.Sprintf("mm%04d", i)), bytes.Repeat([]byte("m"), 200))
		}
		db.Flush()
		for i := 0; i < 500; i += 41 {
			if _, err := db.Get([]byte(fmt.Sprintf("mm%04d", i))); err != nil {
				t.Fatalf("mmap=%v mm%04d: %v", mm, i, err)
			}
		}
		db.Close()
	}
}

func TestObsRegistryAndResetStats(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), func(o *Options) { o.WriteBufferSize = 16 << 10 })
	defer db.Close()
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("v"), 256)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	reg := db.Obs()
	if puts, flushes := obstest.Counter(t, reg, "lsm.puts"), obstest.Counter(t, reg, "lsm.flush.count"); puts != 200 || flushes == 0 {
		t.Fatalf("stats before reset: puts=%d flushes=%d", puts, flushes)
	}
	db.ResetStats()
	for _, name := range []string{"lsm.puts", "lsm.flush.count", "lsm.flush.bytes"} {
		if n := obstest.Counter(t, reg, name); n != 0 {
			t.Fatalf("%s after reset = %d", name, n)
		}
	}
	// Handles stay live after reset: new work is counted from zero.
	if err := db.Put([]byte("after"), []byte("reset")); err != nil {
		t.Fatal(err)
	}
	if n := obstest.Counter(t, reg, "lsm.puts"); n != 1 {
		t.Fatalf("puts after reset = %d, want 1", n)
	}
}

// TestSupersededVersionsAreReleased: a version that readers touched must
// let go of its tables once it is superseded and the last reader is done.
// (The version set used to keep a reference of its own on every version
// it ever made current, so a single Get pinned that version's tables —
// files and open readers — for the life of the DB.)
func TestSupersededVersionsAreReleased(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, func(o *Options) { o.DisableCompaction = true })
	defer db.Close()

	onDisk := func() int { return len(listTables(t, fs)) }
	live := func() (n int) {
		for _, c := range db.NumTableFiles() {
			n += c
		}
		return n
	}
	for r := 0; r < 20; r++ {
		key := []byte(fmt.Sprintf("pin%02d", r))
		if err := db.Put(key, bytes.Repeat(key, 100)); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		// Read from a table (the memtable is empty) and scan: both pin
		// the version that is current now and is superseded next round.
		if _, err := db.Get([]byte("pin00")); err != nil {
			t.Fatal(err)
		}
		it, err := db.NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		for it.SeekToFirst(); it.Valid(); it.Next() {
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A reader that is still open when its version is superseded keeps
	// that version's tables, and only until it closes.
	held, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	held.SeekToFirst()
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if live() != 1 || onDisk() != 21 || len(db.pinned) != 1 {
		t.Fatalf("with an open iterator: %d live tables, %d on disk, %d pinned versions; want 1, 21, 1",
			live(), onDisk(), len(db.pinned))
	}
	n := 0
	for ; held.Valid(); held.Next() {
		n++
	}
	if err := held.Close(); err != nil || n != 20 {
		t.Fatalf("open iterator saw %d of 20 keys across the compaction: %v", n, err)
	}
	if live() != 1 || onDisk() != 1 || len(db.pinned) != 0 || len(db.tables) > 1 {
		t.Fatalf("after the last reader: %d live tables, %d on disk, %d pinned versions, %d open readers; want 1, 1, 0, <=1",
			live(), onDisk(), len(db.pinned), len(db.tables))
	}
}

// TestLateReaderCloseAfterReopenKeepsNewTables: Close does not wait for
// readers, so the last unref of a superseded version can arrive after the
// directory has been reopened. It must not sweep the directory against
// the closed DB's stale live set: the new DB's tables are not in it.
func TestLateReaderCloseAfterReopenKeepsNewTables(t *testing.T) {
	fs := vfs.NewMemFS()
	noCompact := func(o *Options) { o.DisableCompaction = true }
	old := openTestDB(t, fs, noCompact)
	putFlush := func(db *DB, key string) {
		t.Helper()
		if err := db.Put([]byte(key), bytes.Repeat([]byte(key), 100)); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	putFlush(old, "a")
	held, err := old.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	putFlush(old, "b") // supersedes the version the iterator holds
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	db := openTestDB(t, fs, noCompact)
	defer db.Close()
	putFlush(db, "c")
	before := listTables(t, fs)

	if err := held.Close(); err != nil {
		t.Fatal(err)
	}
	if after := listTables(t, fs); !reflect.DeepEqual(after, before) {
		t.Fatalf("a reader of the closed DB removed tables: %v -> %v", before, after)
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, err := db.Get([]byte(k)); err != nil {
			t.Fatalf("get %q after the late close: %v", k, err)
		}
	}
}
