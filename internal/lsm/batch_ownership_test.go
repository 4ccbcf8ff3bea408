package lsm

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"lsmio/internal/faultfs"
	"lsmio/internal/vfs"
)

// The ownership contract of the write path: Put copies what the caller
// passes, Apply takes the batch's buffer for the memtable and leaves the
// batch empty. So nothing the caller does afterwards — to its own slices
// or to the batch — may reach a value that was acknowledged.

// ownedValue is the value the tests store under key i in round r.
func ownedValue(r, i int) []byte {
	return bytes.Repeat([]byte{byte('a' + r), byte(i)}, 50+40*i)
}

// checkOwned reads every key of rounds [0,rounds) back.
func checkOwned(t *testing.T, db *DB, where string, rounds, keys int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("own-%d-%02d", r, i)
			got, err := db.Get([]byte(key))
			if err != nil || !bytes.Equal(got, ownedValue(r, i)) {
				t.Fatalf("%s: %s = %d bytes, %v; want %d bytes", where, key, len(got), err, len(ownedValue(r, i)))
			}
		}
	}
}

func TestApplyConsumesBatch(t *testing.T) {
	const keys = 8
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, nil) // WAL on: the replay below reads what Apply logged

	// fill queues round r through scratch slices it then scribbles over.
	fill := func(b *Batch, r int) {
		for i := 0; i < keys; i++ {
			key := []byte(fmt.Sprintf("own-%d-%02d", r, i))
			val := ownedValue(r, i)
			b.Put(key, val)
			clear(key)
			clear(val)
		}
	}
	b := NewBatch()
	fill(b, 0)
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if b.Count() != 0 || b.Size() != batchHeaderLen {
		t.Fatalf("after Apply the batch still holds %d ops in %d bytes", b.Count(), b.Size())
	}
	// Reuse in every way a caller might: Put straight away, Reset, Put
	// again, a second Apply. Round 0 lives in the buffer Apply took.
	fill(b, 2) // discarded by the Reset
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("Reset left %d ops", b.Count())
	}
	fill(b, 1)
	checkOwned(t, db, "memtable, batch refilled", 1, keys)
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	b.Reset() // on an already empty batch
	b.Delete([]byte("own-never-applied"))
	checkOwned(t, db, "memtable", 2, keys)
	if _, err := db.Get([]byte("own-2-00")); err != ErrNotFound {
		t.Fatalf("a put discarded by Reset was applied: %v", err)
	}

	// The same bytes through WAL replay (a copy of the files as they are
	// now, nothing flushed yet) ...
	replayed := vfs.NewMemFS()
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		out, err := replayed.Create("db/" + n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := out.Write(readWholeFile(t, fs, "db/"+n)); err != nil {
			t.Fatal(err)
		}
		out.Close()
	}
	db2 := openTestDB(t, replayed, nil)
	checkOwned(t, db2, "WAL replay", 2, keys)
	db2.Close()

	// ... and out of a table.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	checkOwned(t, db, "after Flush", 2, keys)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// Under group commit a leader applies its followers' batches too: every
// member's buffer is taken, and every member may refill its batch the
// moment its own Apply returns, while other cohorts are still running.
// Run under -race (make check).
func TestApplyConsumesCohortBatches(t *testing.T) {
	ffs := faultfs.New(vfs.NewMemFS())
	ffs.AddRule(&faultfs.Rule{ // slow log fsyncs so that cohorts form
		Op: faultfs.OpSync, Path: ".log",
		Nth: 1, Times: -1,
		Delay: time.Millisecond, DelayOnly: true,
	})
	db := openTestDB(t, ffs, func(o *Options) { o.Sync = true })
	defer db.Close()

	const writers, rounds, keys = 8, 12, 3
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := NewBatch()
			key, val := make([]byte, 0, 32), make([]byte, 0, 4096)
			for r := 0; r < rounds; r++ {
				for i := 0; i < keys; i++ {
					key = fmt.Appendf(key[:0], "co-%d-%02d-%d", w, r, i)
					val = append(val[:0], bytes.Repeat(key, 20+w)...)
					b.Put(key, val)
				}
				if err := db.Apply(b); err != nil {
					t.Errorf("writer %d round %d: %v", w, r, err)
					return
				}
				if b.Count() != 0 {
					t.Errorf("writer %d: batch not consumed", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if groups := db.m.walGroupCommits.Load(); groups >= writers*rounds {
		t.Fatalf("%d cohorts for %d batches: no leader ever applied a follower's batch", groups, writers*rounds)
	}
	for w := 0; w < writers; w++ {
		for r := 0; r < rounds; r++ {
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("co-%d-%02d-%d", w, r, i)
				got, err := db.Get([]byte(key))
				if err != nil || !bytes.Equal(got, bytes.Repeat([]byte(key), 20+w)) {
					t.Fatalf("%s: %d bytes, %v", key, len(got), err)
				}
			}
		}
	}
}

// With the WAL off there is no log record to take a copy, so DB.Put,
// Batch.Put and Batch.PutCRC are what keep an acknowledged value apart
// from the caller's slices: they copy on a store without a WAL too.
// Only DB.PutCRC keeps the caller's value there, under its own stated
// contract.
func TestWALOffPutAndApplyCopy(t *testing.T) {
	const keys = 8
	db, err := Open("db", CheckpointOptions(vfs.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Round 0 through DB.Put, each slice scribbled once Put returns.
	for i := 0; i < keys; i++ {
		key, val := []byte(fmt.Sprintf("own-0-%02d", i)), ownedValue(0, i)
		if err := db.Put(key, val); err != nil {
			t.Fatal(err)
		}
		clear(key)
		clear(val)
	}
	// Round 1 queued with Batch.PutCRC and Batch.Put, scribbled once
	// Apply returns.
	b := NewBatch()
	var queued [][]byte
	for i := 0; i < keys; i++ {
		key, val := []byte(fmt.Sprintf("own-1-%02d", i)), ownedValue(1, i)
		if i%2 == 0 {
			b.PutCRC(key, val, crc32.Checksum(val, crcTable))
		} else {
			b.Put(key, val)
		}
		queued = append(queued, key, val)
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	for _, s := range queued {
		clear(s)
	}
	checkOwned(t, db, "memtable", 2, keys)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	checkOwned(t, db, "after Flush", 2, keys)
}
