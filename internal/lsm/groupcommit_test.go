package lsm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"lsmio/internal/faultfs"
	"lsmio/internal/vfs"
)

// TestGroupCommitCoalescesConcurrentSyncWriters drives many goroutines
// of Sync writes through the writer queue and checks that (a) WAL fsyncs
// are amortized across cohorts — far fewer syncs than writes — and
// (b) every acked write is nonetheless durable: one cohort sync covers
// all of its members, so a crash that drops unsynced bytes loses nothing
// that was acknowledged. Run under -race this also exercises the
// lock-release-during-sync handoff.
func TestGroupCommitCoalescesConcurrentSyncWriters(t *testing.T) {
	ffs := faultfs.New(vfs.NewMemFS())
	// Stretch every log fsync so overlapping writers pile up behind the
	// leader and cohorts actually form.
	ffs.AddRule(&faultfs.Rule{
		Op: faultfs.OpSync, Path: ".log",
		Nth: 1, Times: -1,
		Delay: time.Millisecond, DelayOnly: true,
	})
	db := openTestDB(t, ffs, func(o *Options) { o.Sync = true })

	const writers, perWriter = 12, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := []byte(fmt.Sprintf("gc-w%02d-%04d", w, i))
				if err := db.Put(key, key); err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	const total = int64(writers * perWriter)
	syncs := db.m.walSyncs.Load()
	groups := db.m.walGroupCommits.Load()
	if syncs == 0 || groups == 0 {
		t.Fatalf("no group commits recorded (syncs=%d groups=%d)", syncs, groups)
	}
	if syncs > total/2 {
		t.Fatalf("%d fsyncs for %d sync writes: group commit is not coalescing", syncs, total)
	}
	if n := db.m.walGroupSize.Snapshot().Count; n != groups {
		t.Fatalf("group size histogram has %d samples, want %d", n, groups)
	}

	// Durability of every ack: crash away all unsynced state and replay.
	ffs.ClearRules()
	ffs.Crash()
	db2, err := Open("db", DefaultOptions(ffs))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			key := fmt.Sprintf("gc-w%02d-%04d", w, i)
			if v, err := db2.Get([]byte(key)); err != nil || string(v) != key {
				t.Fatalf("acked write %s not durable after crash: %q, %v", key, v, err)
			}
		}
	}
}

// TestGroupCommitFailureFansOutToCohort injects one fsync failure under
// concurrent writers: every member of the doomed cohort must get the
// error, the DB must poison itself, and after a crash recovery must show
// exactly the acked writes — none of the failed ones.
func TestGroupCommitFailureFansOutToCohort(t *testing.T) {
	ffs := faultfs.New(vfs.NewMemFS())
	ffs.AddRule(&faultfs.Rule{Op: faultfs.OpSync, Path: ".log", Nth: 3, Times: 1})
	db := openTestDB(t, ffs, func(o *Options) { o.Sync = true })

	const writers, perWriter = 8, 10
	var (
		mu        sync.Mutex
		acked     []string
		failed    []string
		wg        sync.WaitGroup
		sawInject bool
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("fan-w%02d-%04d", w, i)
				err := db.Put([]byte(key), []byte(key))
				mu.Lock()
				if err == nil {
					acked = append(acked, key)
				} else {
					failed = append(failed, key)
					if errors.Is(err, faultfs.ErrInjected) {
						sawInject = true
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if !sawInject {
		t.Fatal("injected sync failure never surfaced to a writer")
	}
	// The first two cohorts preceded the failing sync; everything queued
	// with the doomed leader, or arriving after the poison, fails.
	if len(acked) == 0 || len(failed) == 0 {
		t.Fatalf("want a mix of acked and failed writes, got %d acked / %d failed", len(acked), len(failed))
	}

	ffs.ClearRules()
	ffs.Crash()
	db2, err := Open("db", DefaultOptions(ffs))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	for _, key := range acked {
		if v, err := db2.Get([]byte(key)); err != nil || string(v) != key {
			t.Fatalf("acked write %s lost: %q, %v", key, v, err)
		}
	}
	for _, key := range failed {
		if v, err := db2.Get([]byte(key)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("failed write %s resurrected: %q, %v", key, v, err)
		}
	}
}

// TestGroupCommitDisabled pins the escape hatch: with
// DisableWALGroupCommit every Sync write pays its own fsync (cohorts of
// one), which is both the A/B baseline for the bench figure and the
// pre-change behavior.
func TestGroupCommitDisabled(t *testing.T) {
	ffs := faultfs.New(vfs.NewMemFS())
	db := openTestDB(t, ffs, func(o *Options) {
		o.Sync = true
		o.DisableWALGroupCommit = true
	})
	defer db.Close()

	const writers, perWriter = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := []byte(fmt.Sprintf("solo-w%02d-%04d", w, i))
				if err := db.Put(key, key); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if syncs := db.m.walSyncs.Load(); syncs != writers*perWriter {
		t.Fatalf("with group commit disabled want %d fsyncs (one per write), got %d", writers*perWriter, syncs)
	}
}
