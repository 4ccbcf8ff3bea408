package lsm

import (
	"bytes"
	"slices"
)

// PrefixSuccessor returns the smallest key greater than every key with
// the given prefix, or nil when no such key exists (all-0xff prefix).
func PrefixSuccessor(prefix []byte) []byte {
	out := append([]byte(nil), prefix...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xff {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}

// DeletePrefix deletes every key that starts with prefix. Whole tables
// go without a merge: every table whose keys all lie under the prefix is
// retired by the manifest edit that installs the flush of the call's
// point tombstones. Tombstones are written only for the keys a table
// removal cannot reach: those in a memtable, in a table that also holds
// other keys, or in a table an in-flight merge has claimed.
//
// That one edit makes the tombstones durable together with every write
// queued before them, and removes the tables; the files are unlinked
// after it (a reader still holding a version that lists them keeps them
// until it lets go). The tombstones skip the WAL, so a crash before the
// edit leaves the range as it was and a crash after it leaves it empty.
// DeletePrefix returns once the edit is installed. Calls are serialized
// with each other and with CompactAll.
func (db *DB) DeletePrefix(prefix []byte) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for !db.closed && (db.dropTables != nil || db.manualCompaction) {
		db.cond.Wait()
	}
	if db.closed {
		return ErrClosed
	}
	// An empty reservation keeps other drops and CompactAll out; the
	// tables join it only at the head of the writer queue (commitDropLocked).
	db.dropTables = make(map[uint64]bool)
	defer func() {
		db.dropTables = nil
		db.cond.Broadcast()
	}()
	m, err := db.commitDropLocked(prefix, PrefixSuccessor(prefix))
	if err != nil {
		return err
	}
	if !db.opts.AsyncFlush {
		return db.flushAllLocked()
	}
	// Close waits for dropTables to clear, so the flusher runs until m
	// is installed or the engine fails.
	db.maybeScheduleFlush()
	for db.bgErr == nil && slices.Contains(db.imm, m) {
		db.cond.Wait()
	}
	return db.bgErr
}

// commitDropLocked waits to head the writer queue, then reserves the
// tables of the current version wholly inside [lo, hi) that no merge has
// claimed, writes tombstones for every other key in the range to the
// active memtable without a log record, attaches the reserved tables to
// it and queues it for its flush, which it returns. Nothing is reserved
// before the queue's head: a writer ahead may be stalled on L0, and a
// reservation would keep off the L0 merge it waits for. At the head no
// write is logging and every write queued before is in the memtable; the
// ones behind wait while the lock is released for the scan. Called with
// the lock held.
func (db *DB) commitDropLocked(lo, hi []byte) (_ *memtable, err error) {
	w := &pendingWrite{drop: true}
	db.writeQ = append(db.writeQ, w)
	for db.writeQ[0] != w {
		db.cond.Wait()
	}
	defer func() { db.finishCohortLocked(db.writeQ[:1], err) }()
	if db.bgErr != nil {
		return nil, db.bgErr
	}
	ver := db.refCurrentLocked()
	var retire []deletedFile
	var scan []*fileMeta
	for l, files := range ver.levels {
		for _, f := range files {
			switch {
			case !f.overlaps(lo, hi):
			case f.insideRange(lo, hi) && !db.vs.fileClaimed(f.num):
				retire = append(retire, deletedFile{Level: l, Num: f.num})
				db.dropTables[f.num] = true
			default:
				scan = append(scan, f)
			}
		}
	}
	mems := append([]*memtable{db.mem}, db.imm...)
	db.mu.Unlock()
	b, err := db.prefixTombstones(lo, hi, mems, scan)
	db.mu.Lock()
	db.unrefVersion(ver)
	if err != nil {
		return nil, err
	}
	defer b.release()
	if err := db.bgErr; err != nil {
		return nil, err
	}
	m := db.mem
	if b.Count() > 0 {
		b.setSeq(db.vs.lastSeq + 1)
		if err := b.forEach(func(seq seqNum, kind keyKind, key, _ []byte, _ valueSum) error {
			m.add(seq, kind, key, nil, noSum)
			return nil
		}); err != nil {
			// As for a cohort: entries may sit above lastSeq, unpublished.
			db.bgErr = err
			return nil, err
		}
		db.vs.lastSeq += seqNum(b.Count())
		db.m.deletes.Add(int64(b.Count()))
	}
	m.drop = retire
	if err := db.rotateMemtable(); err != nil {
		// m is queued with its drop but without the reservation that
		// keeps merges off the tables: nothing may install it.
		db.bgErr = err
		return nil, err
	}
	return m, nil
}

// prefixTombstones returns a batch that deletes every user key in
// [lo, hi) held by the memtables or the tables. Called without the lock,
// with a version that lists the tables pinned.
func (db *DB) prefixTombstones(lo, hi []byte, mems []*memtable, tables []*fileMeta) (*Batch, error) {
	b := NewBatch()
	seen := make(map[string]bool)
	collect := func(it internalIterator) error {
		for it.Seek(lookupKey(lo, maxSeq)); it.Valid(); it.Next() {
			uk := it.IKey().userKey()
			if hi != nil && bytes.Compare(uk, hi) >= 0 {
				break
			}
			if !seen[string(uk)] {
				seen[string(uk)] = true
				b.Delete(uk)
			}
		}
		return it.Close()
	}
	for _, m := range mems {
		if err := collect(m.iterator()); err != nil {
			return nil, err
		}
	}
	for _, f := range tables {
		t, err := db.getTable(f.num)
		if err != nil {
			return nil, err
		}
		if err := collect(t.mergeIterator(!db.opts.DisableCompression)); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// insideRange reports whether every user key of the file lies in [lo, hi).
func (f *fileMeta) insideRange(lo, hi []byte) bool {
	return bytes.Compare(f.smallest.userKey(), lo) >= 0 &&
		(hi == nil || bytes.Compare(f.largest.userKey(), hi) < 0)
}
