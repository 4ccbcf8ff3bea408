package lsm

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"lsmio/internal/faultfs"
	"lsmio/internal/vfs"
)

// replayWAL reads every intact record from a log file.
func replayWAL(t *testing.T, fs vfs.FS, name string) [][]byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer f.Close()
	r, err := newWALReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for {
		rec, err := r.next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatalf("wal read: %v", err)
		}
		recs = append(recs, append([]byte(nil), rec...))
	}
}

// TestWALPadRetrySurvivesTornPadWrite is the regression test for the
// stale-blockOff bug: a transient failure of the block-tail pad write
// used to leave blockOff pointing before the pad, so a retried append
// padded a second time and emitted the next record header mid-block.
// The reader — which skips exactly one pad per block — then misparses
// that header and silently truncates replay. After the fix the writer
// resynchronizes its position model from the file on any write error,
// and a retried append lands where the reader expects it.
func TestWALPadRetrySurvivesTornPadWrite(t *testing.T) {
	ffs := faultfs.New(vfs.NewMemFS())
	f, err := ffs.Create("w.log")
	if err != nil {
		t.Fatal(err)
	}
	w := newWALWriter(f)

	// Record A fills the first block to within 6 bytes of its end
	// (7-byte header + 32755-byte payload = 32762), so the next append
	// must pad before emitting.
	recA := bytes.Repeat([]byte("A"), walBlockSize-walHeaderSize-6)
	if err := w.addRecord(recA); err != nil {
		t.Fatal(err)
	}

	// The next write to the file is the 6-byte pad: tear it after 3
	// bytes, once.
	ffs.AddRule(&faultfs.Rule{
		Op:         faultfs.OpWrite,
		Path:       "w.log",
		Nth:        1,
		KeepPrefix: 3,
		Transient:  true,
	})

	recB := []byte("record-B-after-failed-pad")
	if err := w.addRecord(recB); err == nil {
		t.Fatal("expected the torn pad write to fail the append")
	}
	ffs.ClearRules()

	// Retry the append, then write one more record behind it.
	if err := w.addRecord(recB); err != nil {
		t.Fatalf("retried append: %v", err)
	}
	recC := []byte("record-C")
	if err := w.addRecord(recC); err != nil {
		t.Fatal(err)
	}
	if err := w.sync(); err != nil {
		t.Fatal(err)
	}

	got := replayWAL(t, ffs, "w.log")
	want := [][]byte{recA, recB, recC}
	if len(got) != len(want) {
		t.Fatalf("replay returned %d records, want %d: retried append after a torn pad is invisible to the reader", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch: got %d bytes, want %d", i, len(got[i]), len(want[i]))
		}
	}
}

// TestWALSyncFailurePoisonsDB is the regression test for the failed-write
// resurrection bug: a Put whose WAL fsync failed used to leave the
// database writable with lastSeq already advanced, so a later successful
// write's fsync would make the failed record durable and replay would
// resurrect a write its caller was told failed. The fixed engine poisons
// itself on any WAL append/sync error and rolls the suspect tail back.
func TestWALSyncFailurePoisonsDB(t *testing.T) {
	ffs := faultfs.New(vfs.NewMemFS())
	db := openTestDB(t, ffs, func(o *Options) { o.Sync = true })

	if err := db.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}

	ffs.AddRule(&faultfs.Rule{Op: faultfs.OpSync, Path: ".log", Nth: 1})
	if err := db.Put([]byte("k2"), []byte("v2")); err == nil {
		t.Fatal("expected Put to fail when the WAL fsync fails")
	} else if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("unexpected error: %v", err)
	}
	ffs.ClearRules()

	// The engine must now refuse writes: accepting k3 (and syncing it)
	// would make k2's already-buffered record durable too.
	if err := db.Put([]byte("k3"), []byte("v3")); err == nil {
		t.Fatal("database accepted a write after a WAL sync failure; a later sync can resurrect the failed write")
	}

	// Crash (drop everything unsynced) and recover: only k1 survives.
	ffs.Crash()
	db2, err := Open("db", DefaultOptions(ffs))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if v, err := db2.Get([]byte("k1")); err != nil || string(v) != "v1" {
		t.Fatalf("k1 (acked before the fault) lost: %q, %v", v, err)
	}
	for _, k := range []string{"k2", "k3"} {
		if v, err := db2.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s resurrected after its write failed: %q, %v", k, v, err)
		}
	}
}

// TestWALSyncFailureRollsBackRecord covers the non-crash flavor of the
// same bug: after a failed fsync the record is typically complete in the
// OS buffer, so a plain reopen (no crash, nothing discarded) would replay
// it unless the engine truncates the suspect tail. The fixed commit path
// rolls the log back to its pre-append offset on failure.
func TestWALSyncFailureRollsBackRecord(t *testing.T) {
	ffs := faultfs.New(vfs.NewMemFS())
	db := openTestDB(t, ffs, func(o *Options) { o.Sync = true })

	if err := db.Put([]byte("ok"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	ffs.AddRule(&faultfs.Rule{Op: faultfs.OpSync, Path: ".log", Nth: 1})
	if err := db.Put([]byte("doomed"), []byte("2")); err == nil {
		t.Fatal("expected Put to fail when the WAL fsync fails")
	}
	ffs.ClearRules()

	// No crash: reopen sees every byte ever written, including any
	// un-truncated tail.
	db2, err := Open("db", DefaultOptions(ffs))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if v, err := db2.Get([]byte("ok")); err != nil || string(v) != "1" {
		t.Fatalf("acked key lost: %q, %v", v, err)
	}
	if v, err := db2.Get([]byte("doomed")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed write resurrected by crash-free replay: %q, %v", v, err)
	}
}

// TestWALAppendFailurePoisonsDB is the torn-append variant: the record
// write itself fails partway. The tail is unparseable garbage, the DB
// must poison itself, and recovery must surface only acked writes.
func TestWALAppendFailurePoisonsDB(t *testing.T) {
	ffs := faultfs.New(vfs.NewMemFS())
	db := openTestDB(t, ffs, func(o *Options) { o.Sync = true })

	if err := db.Put([]byte("base"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Tear the next .log append after 10 bytes (mid-header/payload).
	ffs.AddRule(&faultfs.Rule{Op: faultfs.OpWrite, Path: ".log", Nth: 1, KeepPrefix: 10})
	if err := db.Put([]byte("torn"), []byte("v")); err == nil {
		t.Fatal("expected Put to fail on a torn WAL append")
	}
	ffs.ClearRules()
	if err := db.Put([]byte("after"), []byte("v")); err == nil {
		t.Fatal("database accepted a write after a WAL append failure")
	}

	db2, err := Open("db", DefaultOptions(ffs))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if _, err := db2.Get([]byte("base")); err != nil {
		t.Fatalf("acked key lost: %v", err)
	}
	for _, k := range []string{"torn", "after"} {
		if _, err := db2.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s visible after its write failed: %v", k, err)
		}
	}
}

// TestFlushKeepsTheQueuedMemtablesLog is the regression test for a flush
// that retired the log of the memtable queued behind it: the install
// edit recorded the live WAL as the oldest log still needed, the sweep
// then unlinked the log of the second immutable memtable, and a crash
// before that memtable's flush lost writes acknowledged with Sync. The
// first table's create is held until k3 is in, so two memtables wait;
// the second table's create fails, so the crash comes after the first
// flush has installed and before the second one could.
func TestFlushKeepsTheQueuedMemtablesLog(t *testing.T) {
	ffs := faultfs.New(vfs.NewMemFS())
	held, gate := make(chan struct{}), make(chan struct{})
	ffs.SetSleeper(func(time.Duration) {
		close(held)
		<-gate
	})
	ffs.AddRule(&faultfs.Rule{Op: faultfs.OpCreate, Path: ".sst", Nth: 1, Delay: time.Nanosecond, DelayOnly: true})
	ffs.AddRule(&faultfs.Rule{Op: faultfs.OpCreate, Path: ".sst", Nth: 2})
	db := openTestDB(t, ffs, func(o *Options) {
		o.Sync = true
		o.AsyncFlush = true
		o.WriteBufferSize = 64 << 10
		o.DisableCompaction = true
	})
	val := func(k string) []byte { return bytes.Repeat([]byte(k), 70<<10/len(k)) }
	for i, k := range []string{"k1", "k2", "k3"} {
		if err := db.Put([]byte(k), val(k)); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			<-held // the first flush is at its table's create
		}
	}
	close(gate)
	for deadline := time.Now().Add(10 * time.Second); ffs.Injected() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second flush never reached its table's create")
		}
	}
	names, err := ffs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	ffs.Crash()
	db.Close() // its handles died with the crash
	ffs.ClearRules()

	db2, err := Open("db", DefaultOptions(ffs))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	for _, k := range []string{"k1", "k2", "k3"} {
		if v, err := db2.Get([]byte(k)); err != nil || !bytes.Equal(v, val(k)) {
			t.Errorf("%s, acked with Sync, lost after the crash (%d bytes, %v); directory before the crash: %v",
				k, len(v), err, names)
		}
	}
}
