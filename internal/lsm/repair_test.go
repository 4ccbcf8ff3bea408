package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"lsmio/internal/vfs"
)

func TestRepairRebuildsLostManifest(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, func(o *Options) { o.WriteBufferSize = 16 << 10 })
	model := map[string]string{}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("r%04d", i%120) // overwrites across tables
		v := fmt.Sprintf("val-%d", i)
		db.Put([]byte(k), []byte(v))
		model[k] = v
	}
	db.Delete([]byte("r0007"))
	delete(model, "r0007")
	db.Flush()
	db.Close()

	// Catastrophe: metadata gone.
	fs.Remove("db/CURRENT")
	for _, n := range mustList(t, fs, "db") {
		if strings.HasPrefix(n, "MANIFEST-") {
			fs.Remove("db/" + n)
		}
	}
	if _, err := Open("db", DefaultOptions(fs)); err == nil {
		t.Fatal("open without metadata should fail before repair")
	}

	sum, err := Repair("db", DefaultOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	if sum.TablesRecovered == 0 || sum.EntriesRecovered == 0 {
		t.Fatalf("summary: %+v", sum)
	}

	db2 := openTestDB(t, fs, nil)
	defer db2.Close()
	for k, want := range model {
		v, err := db2.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("after repair %s = %q, %v; want %q", k, v, err, want)
		}
	}
	if _, err := db2.Get([]byte("r0007")); err != ErrNotFound {
		t.Fatalf("deleted key resurrected: %v", err)
	}
	if err := db2.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// A manifest cut inside its first record says nothing about the store,
// not that the store is empty: Open must refuse it with ErrCorruption and
// leave every file as it was, and Repair must bring the data back.
func TestTornManifestFailsOpenUntilRepair(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, nil)
	db.Put([]byte("a"), []byte("1"))
	db.Put([]byte("b"), []byte("2"))
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var manifest string
	for _, n := range mustList(t, fs, "db") {
		if strings.HasPrefix(n, "MANIFEST-") {
			manifest = "db/" + n
		}
	}
	f, err := fs.Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(10); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before := mustList(t, fs, "db")

	if _, err := Open("db", DefaultOptions(fs)); !errors.Is(err, ErrCorruption) {
		t.Fatalf("Open of a torn manifest: %v, want ErrCorruption", err)
	}
	if after := mustList(t, fs, "db"); !slices.Equal(after, before) {
		t.Fatalf("failed Open changed the directory: %v -> %v", before, after)
	}

	if _, err := Repair("db", DefaultOptions(fs)); err != nil {
		t.Fatal(err)
	}
	db2 := openTestDB(t, fs, nil)
	defer db2.Close()
	for k, want := range map[string]string{"a": "1", "b": "2"} {
		if v, err := db2.Get([]byte(k)); err != nil || string(v) != want {
			t.Fatalf("after repair %s = %q, %v; want %q", k, v, err, want)
		}
	}
}

func TestRepairSalvagesWAL(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, nil) // WAL on by default
	for i := 0; i < 40; i++ {
		db.Put([]byte(fmt.Sprintf("w%02d", i)), []byte("wal-data"))
	}
	// Crash without flush or close: data lives only in the WAL. Then the
	// metadata is lost too.
	fs.Remove("db/CURRENT")
	for _, n := range mustList(t, fs, "db") {
		if strings.HasPrefix(n, "MANIFEST-") {
			fs.Remove("db/" + n)
		}
	}
	sum, err := Repair("db", DefaultOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	if sum.LogRecordsRecovered != 40 {
		t.Fatalf("recovered %d log records", sum.LogRecordsRecovered)
	}
	db2 := openTestDB(t, fs, nil)
	defer db2.Close()
	for i := 0; i < 40; i++ {
		if v, err := db2.Get([]byte(fmt.Sprintf("w%02d", i))); err != nil || string(v) != "wal-data" {
			t.Fatalf("w%02d after repair: %q %v", i, v, err)
		}
	}
}

func TestRepairSkipsCorruptTable(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, func(o *Options) {
		o.WriteBufferSize = 8 << 10
		o.DisableCompression = true
		o.DisableCompaction = true // keep several independent L0 tables
	})
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("c%04d", i)), bytes.Repeat([]byte("x"), 200))
	}
	db.Flush()
	db.Close()

	// Destroy one table's contents entirely.
	var victim string
	for _, n := range mustList(t, fs, "db") {
		if strings.HasSuffix(n, ".sst") {
			victim = n
			break
		}
	}
	f, _ := fs.Create("db/" + victim) // truncate to nothing
	f.Write([]byte("not a table"))
	f.Close()
	fs.Remove("db/CURRENT")

	sum, err := Repair("db", DefaultOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	if sum.TablesSkipped != 1 || len(sum.Problems) != 1 {
		t.Fatalf("summary: %+v", sum)
	}
	// The rest of the data is back.
	db2 := openTestDB(t, fs, nil)
	defer db2.Close()
	it, _ := db2.NewIterator()
	defer it.Close()
	count := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		count++
	}
	if count == 0 || count >= 200 {
		t.Fatalf("recovered %d keys; expected partial recovery", count)
	}
}

func TestRepairShadowingOrder(t *testing.T) {
	// Two tables hold different versions of one key: repair must keep the
	// newer version (higher file number) on top.
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, func(o *Options) { o.DisableCompaction = true })
	db.Put([]byte("dup"), []byte("old"))
	db.Flush()
	db.Put([]byte("dup"), []byte("new"))
	db.Flush()
	db.Close()
	fs.Remove("db/CURRENT")

	if _, err := Repair("db", DefaultOptions(fs)); err != nil {
		t.Fatal(err)
	}
	db2 := openTestDB(t, fs, nil)
	defer db2.Close()
	if v, err := db2.Get([]byte("dup")); err != nil || string(v) != "new" {
		t.Fatalf("dup = %q, %v; repair broke shadowing", v, err)
	}
}

func mustList(t *testing.T, fs vfs.FS, dir string) []string {
	t.Helper()
	names, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestSalvageLogTruncatedTail(t *testing.T) {
	// A crash mid-write leaves the WAL's final record cut inside its
	// payload. replayLog must keep every complete record and stop cleanly
	// at the torn tail.
	fs := vfs.NewMemFS()
	fs.MkdirAll("db")
	f, err := fs.Create(logFileName("db", 7))
	if err != nil {
		t.Fatal(err)
	}
	w := newWALWriter(f)
	const complete = 5
	for i := 0; i < complete; i++ {
		b := NewBatch()
		b.Put([]byte(fmt.Sprintf("key%02d", i)), bytes.Repeat([]byte{byte('a' + i)}, 100))
		b.setSeq(seqNum(i + 1))
		if err := w.addRecord(b.data); err != nil {
			t.Fatal(err)
		}
	}
	// One more record, then cut mid-payload.
	b := NewBatch()
	b.Put([]byte("tail"), bytes.Repeat([]byte("z"), 300))
	b.setSeq(seqNum(complete + 1))
	if err := w.addRecord(b.data); err != nil {
		t.Fatal(err)
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(size - 150); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// One pass replays exactly the complete records and counts them.
	mem := newMemtable()
	records, lastSeq, err := replayLog(fs, "db", 7, mem)
	if records != complete || err != nil {
		t.Fatalf("salvaged %d records, %v; want %d", records, err, complete)
	}
	if want := seqNum(complete); lastSeq != want {
		t.Fatalf("lastSeq = %d, want %d", lastSeq, want)
	}
	for i := 0; i < complete; i++ {
		k := []byte(fmt.Sprintf("key%02d", i))
		v, found, deleted := mem.get(k, maxSeq)
		if !found || deleted || len(v) != 100 {
			t.Fatalf("%s missing after salvage: found=%v deleted=%v len=%d", k, found, deleted, len(v))
		}
	}
	if _, found, _ := mem.get([]byte("tail"), maxSeq); found {
		t.Fatal("torn record's key survived salvage")
	}

	// Repair reports the records it replayed, and the store holds them.
	sum, err := Repair("db", DefaultOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	if sum.LogRecordsRecovered != complete {
		t.Fatalf("LogRecordsRecovered = %d, want %d", sum.LogRecordsRecovered, complete)
	}
	db := openTestDB(t, fs, nil)
	defer db.Close()
	for i := 0; i < complete; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("key%02d", i))); err != nil {
			t.Fatalf("key%02d after repair: %v", i, err)
		}
	}
	if _, err := db.Get([]byte("tail")); err != ErrNotFound {
		t.Fatalf("torn record's key after repair: %v", err)
	}
}

func TestVerifyChecksumsCleanAndCorrupt(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, func(o *Options) { o.WriteBufferSize = 16 << 10 })
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("v%04d", i)), bytes.Repeat([]byte("z"), 100))
	}
	db.Flush()
	if err := db.VerifyChecksums(); err != nil {
		t.Fatalf("clean db failed verification: %v", err)
	}
	// Corrupt one table file on disk.
	names, _ := fs.List("db")
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".sst" {
			f, _ := fs.Open("db/" + n)
			f.WriteAt([]byte{0xFF, 0xEE, 0xDD}, 30)
			f.Close()
			break
		}
	}
	// A fresh DB handle must detect it (the open one may have cached the
	// reader, which is fine — caching is the point of table readers).
	db.Close()
	db2 := openTestDB(t, fs, nil)
	defer db2.Close()
	if err := db2.VerifyChecksums(); err == nil {
		t.Fatal("corrupted table passed verification")
	}
}
