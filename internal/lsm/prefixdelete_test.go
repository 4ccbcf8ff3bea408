package lsm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"lsmio/internal/faultfs"
	"lsmio/internal/vfs"
)

// fillPrefix writes n keys under prefix and flushes them into one table.
func fillPrefix(t *testing.T, db *DB, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("%s%03d", prefix, i))
		if err := db.Put(key, bytes.Repeat(key, 50)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// liveTables lists the table numbers of the current version.
func liveTables(db *DB) map[uint64]bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.vs.liveFileNums()
}

// TestDeletePrefixRetiresWholeTables: the tables that hold only keys
// under the prefix leave the version and the directory in the one edit
// that installs the drop's flush, which writes tombstones only for the
// in-range keys of the table that straddles the range and of the
// memtable. That flush also makes the writes queued before the drop
// durable: with the WAL off, a reopen after it and no other flush reads
// everything else as before.
func TestDeletePrefixRetiresWholeTables(t *testing.T) {
	fs := vfs.NewMemFS()
	open := func() *DB {
		return openTestDB(t, fs, func(o *Options) { o.DisableCompaction = true; o.DisableWAL = true })
	}
	db := open()
	fillPrefix(t, db, "a/", 20) // table 1: a/ only
	fillPrefix(t, db, "b/", 20) // table 2: b/ only
	fillPrefix(t, db, "a/", 5)  // table 3: a/ only, overwrites
	// Table 4 straddles: one a/ key and c/ keys.
	if err := db.Put([]byte("a/999"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	fillPrefix(t, db, "c/", 10)
	// In the memtable only.
	for _, k := range []string{"a/mem", "b/mem"} {
		if err := db.Put([]byte(k), bytes.Repeat([]byte(k), 50)); err != nil {
			t.Fatal(err)
		}
	}
	before := liveTables(db)
	if len(before) != 4 {
		t.Fatalf("%d tables before the drop, want 4", len(before))
	}
	manifest := manifestFileName("db", db.vs.manifestNum)
	edits := len(replayWAL(t, fs, manifest))
	if err := db.DeletePrefix([]byte("a/")); err != nil {
		t.Fatal(err)
	}
	after := liveTables(db)
	// Tables 1 and 3 are gone, 2 and 4 stay, and the drop added one table:
	// the memtable's a/mem and b/mem with tombstones of a/999 and a/mem.
	if len(after) != 3 {
		t.Fatalf("%d tables after the drop (%v), want 3", len(after), after)
	}
	db.mu.Lock()
	buffered := !db.mem.empty() || len(db.imm) > 0
	db.mu.Unlock()
	if buffered {
		t.Fatal("writes still buffered after the drop returned")
	}
	var added []uint64
	for num := range after {
		if !before[num] {
			added = append(added, num)
		}
	}
	if len(added) != 1 {
		t.Fatalf("the drop added tables %v, want one", added)
	}
	if got := len(listTables(t, fs)); got != 3 {
		t.Fatalf("%d table files on disk after the drop, want 3", got)
	}
	recs := replayWAL(t, fs, manifest)
	if len(recs) != edits+1 {
		t.Fatalf("the drop logged %d manifest edits, want 1", len(recs)-edits)
	}
	var edit versionEdit
	if err := json.Unmarshal(recs[edits], &edit); err != nil {
		t.Fatal(err)
	}
	if len(edit.Added) != 1 || len(edit.Deleted) != 2 {
		t.Fatalf("the drop's edit adds %d and deletes %d tables, want 1 and 2", len(edit.Added), len(edit.Deleted))
	}
	tomb, err := db.getTable(added[0])
	if err != nil {
		t.Fatal(err)
	}
	var tombKeys []string
	it := tomb.iterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if it.IKey().kind() == kindDelete {
			tombKeys = append(tombKeys, string(it.IKey().userKey()))
		}
	}
	it.Close()
	if fmt.Sprint(tombKeys) != "[a/999 a/mem]" {
		t.Fatalf("drop table tombstones %v, want [a/999 a/mem]", tombKeys)
	}
	check := func(db *DB) {
		t.Helper()
		for _, k := range []string{"a/000", "a/004", "a/019", "a/999", "a/mem"} {
			if v, err := db.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
				t.Errorf("%s survived the drop: %q, %v", k, v, err)
			}
		}
		for _, k := range []string{"b/000", "b/019", "b/mem", "c/000", "c/009"} {
			if v, err := db.Get([]byte(k)); err != nil || !bytes.Equal(v, bytes.Repeat([]byte(k), 50)) {
				t.Errorf("%s lost to the drop: %d bytes, %v", k, len(v), err)
			}
		}
	}
	check(db)
	if err := db.Close(); err != nil { // with the WAL off, Close flushes nothing
		t.Fatal(err)
	}
	db = open()
	defer db.Close()
	check(db)
}

// TestDeletePrefixKeepsPinnedTables: an iterator opened before the drop
// still reads the retired table, whose file stays until it closes.
func TestDeletePrefixKeepsPinnedTables(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, func(o *Options) { o.DisableCompaction = true })
	defer db.Close()
	fillPrefix(t, db, "p/", 30)
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DeletePrefix([]byte("p/")); err != nil {
		t.Fatal(err)
	}
	if n := len(liveTables(db)); n != 0 {
		t.Fatalf("%d live tables after dropping everything, want 0", n)
	}
	if got := len(listTables(t, fs)); got != 1 {
		t.Fatalf("%d table files while a reader pins the retired one, want 1", got)
	}
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
	}
	if err := it.Close(); err != nil || n != 30 {
		t.Fatalf("pinned iterator read %d of 30 keys: %v", n, err)
	}
	if got := len(listTables(t, fs)); got != 0 {
		t.Fatalf("%d table files after the last reader closed, want 0", got)
	}
}

// TestDeletePrefixAndMergeClaims: a table a running merge has claimed is
// not retired (the merge's own edit deletes it) but tombstoned, and no
// merge may claim a table a drop is about to retire.
func TestDeletePrefixAndMergeClaims(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), func(o *Options) { o.DisableCompaction = true })
	defer db.Close()
	fillPrefix(t, db, "q/", 10)
	fillPrefix(t, db, "q/x", 10)
	db.mu.Lock()
	claimed := db.vs.current.levels[0][1] // the older table
	claim := db.vs.claimCompaction(0, []*fileMeta{claimed})
	db.mu.Unlock()
	if err := db.DeletePrefix([]byte("q/")); err != nil {
		t.Fatal(err)
	}
	live := liveTables(db)
	if !live[claimed.num] || len(live) != 2 {
		t.Fatalf("live tables %v: want the claimed table %d and the drop's", live, claimed.num)
	}
	for _, k := range []string{"q/000", "q/x009"} {
		if _, err := db.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s survived the drop: %v", k, err)
		}
	}
	db.mu.Lock()
	db.vs.releaseCompaction(claim)
	f := db.vs.current.levels[0][0]
	db.dropTables = map[uint64]bool{f.num: true}
	ok := db.admissibleLocked(0, []*fileMeta{f}, nil)
	db.dropTables = nil
	db.mu.Unlock()
	if ok {
		t.Fatal("a merge may claim a table a drop is retiring")
	}
}

// TestGetCountsTablesProbed: lsm.get.tables records how many tables
// each Get probed. Retiring two older steps with point deletes leaves
// two tombstone tables whose key ranges, from the step's data to its
// manifest key, cover the newest step's keys, so a Get of one probes
// three tables; retiring them with DeletePrefix leaves tombstones of the
// manifest keys only, and the Get probes the newest step's table alone.
func TestGetCountsTablesProbed(t *testing.T) {
	probes := func(prefixDelete bool) int64 {
		db := openTestDB(t, vfs.NewMemFS(), func(o *Options) { o.DisableCompaction = true; o.BitsPerKey = 0 })
		defer db.Close()
		for _, step := range []string{"1", "2", "3"} {
			fillPrefix(t, db, "d/"+step+"/", 10)
		}
		for _, step := range []string{"1", "2"} {
			if err := db.Delete([]byte("m/" + step)); err != nil {
				t.Fatal(err)
			}
			if prefixDelete {
				if err := db.DeletePrefix([]byte("d/" + step + "/")); err != nil {
					t.Fatal(err)
				}
				continue
			}
			for i := 0; i < 10; i++ {
				if err := db.Delete([]byte(fmt.Sprintf("d/%s/%03d", step, i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		h := db.Obs().Histogram("lsm.get.tables")
		h.Reset()
		if _, err := db.Get([]byte("d/3/004")); err != nil {
			t.Fatal(err)
		}
		if s := h.Snapshot(); s.Count != 1 {
			t.Fatalf("one Get recorded %d times", s.Count)
		}
		return h.Snapshot().Sum
	}
	if n := probes(false); n != 3 {
		t.Fatalf("after point deletes a Get of the newest step probed %d tables, want 3", n)
	}
	if n := probes(true); n != 1 {
		t.Fatalf("after prefix deletes a Get of the newest step probed %d tables, want 1", n)
	}
}

// TestDeletePrefixConcurrent races prefix deletes with writers of other
// prefixes, readers and background flushes and merges: every key of a
// dropped prefix is gone, every other key reads back, also after a
// reopen.
func TestDeletePrefixConcurrent(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := func(o *Options) {
		o.AsyncFlush = true
		o.WriteBufferSize = 16 << 10
		o.L0CompactionTrigger = 2
		o.MaxBackgroundJobs = 2
		o.BaseLevelSize = 64 << 10
	}
	db := openTestDB(t, fs, opts)
	const writers, steps, keys = 3, 6, 40
	key := func(w, s, k int) []byte { return []byte(fmt.Sprintf("w%d/%02d/%03d", w, s, k)) }
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for s := 0; s < steps; s++ {
				for k := 0; k < keys; k++ {
					if err := db.Put(key(w, s, k), bytes.Repeat(key(w, s, k), 20)); err != nil {
						errs <- err
						return
					}
				}
				if s >= 2 { // keep the newest two steps of this writer
					if err := db.DeletePrefix([]byte(fmt.Sprintf("w%d/%02d/", w, s-2))); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	go func() {
		for i := 0; i < 200; i++ {
			if _, err := db.Get(key(i%writers, 0, i%keys)); err != nil && !errors.Is(err, ErrNotFound) {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	for i := 0; i < writers+1; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	check := func(db *DB) {
		t.Helper()
		for w := 0; w < writers; w++ {
			for s := 0; s < steps; s++ {
				for k := 0; k < keys; k += 13 {
					v, err := db.Get(key(w, s, k))
					if s < steps-2 && !errors.Is(err, ErrNotFound) {
						t.Fatalf("%s survived its prefix delete: %v", key(w, s, k), err)
					}
					if s >= steps-2 && (err != nil || !bytes.Equal(v, bytes.Repeat(key(w, s, k), 20))) {
						t.Fatalf("%s lost: %v", key(w, s, k), err)
					}
				}
			}
		}
	}
	check(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openTestDB(t, fs, opts)
	defer db.Close()
	check(db)
}

// TestDeletePrefixBehindStalledWriter: a writer stalled on the L0 stop
// trigger is ahead of the drop in the writer queue, and the L0 merge that
// would free it has not started. The drop must not keep that merge off
// the tables it retires while it waits for the writer: the first merge
// is held at its output's create while three tables of the prefix are
// flushed behind it, so L0 stays at the stop trigger after it ends.
func TestDeletePrefixBehindStalledWriter(t *testing.T) {
	ffs := faultfs.New(vfs.NewMemFS())
	held, gate := make(chan struct{}), make(chan struct{})
	ffs.SetSleeper(func(time.Duration) {
		close(held)
		<-gate
	})
	// Creates 1 and 2 are the first two flushes, 3 is the merge of them.
	ffs.AddRule(&faultfs.Rule{Op: faultfs.OpCreate, Path: ".sst", Nth: 3, Delay: time.Nanosecond, DelayOnly: true})
	db := openTestDB(t, ffs, func(o *Options) {
		o.WriteBufferSize = 64 << 10
		o.L0CompactionTrigger = 2
		o.L0SlowdownTrigger = -1
		o.L0StopTrigger = 3
		o.MaxBackgroundJobs = 1
	})
	fillPrefix(t, db, "a/", 20)
	fillPrefix(t, db, "b/", 20)
	<-held // the merge of a/ and b/ is at its output's create
	for i := 0; i < 3; i++ {
		fillPrefix(t, db, fmt.Sprintf("p/%d/", i), 20)
	}
	big := bytes.Repeat([]byte("x"), 64<<10)
	if err := db.Put([]byte("x"), big); err != nil { // fills the memtable
		t.Fatal(err)
	}
	wait := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened", what)
			}
		}
	}
	errs := make(chan error, 2)
	go func() { errs <- db.Put([]byte("y"), []byte("y")) }()
	wait("the writer's stall", func() bool { return db.m.stallWaits.Load() > 0 })
	go func() { errs <- db.DeletePrefix([]byte("p/")) }()
	wait("the drop joining the writer queue", func() bool {
		db.mu.Lock()
		defer db.mu.Unlock()
		return len(db.writeQ) == 2
	})
	close(gate)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the stalled writer and the drop wait on each other")
		}
	}
	defer db.Close()
	if _, err := db.Get([]byte("p/1/007")); !errors.Is(err, ErrNotFound) {
		t.Errorf("p/1/007 survived the drop: %v", err)
	}
	for _, k := range []string{"a/003", "x", "y"} {
		if _, err := db.Get([]byte(k)); err != nil {
			t.Errorf("%s lost: %v", k, err)
		}
	}
}
