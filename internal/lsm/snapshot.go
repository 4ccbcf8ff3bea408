package lsm

import (
	"fmt"
	"strings"
)

// Snapshot is a consistent read-only view of the database as of its
// creation: reads through it ignore all later writes. A snapshot pins a
// sequence number; flushes and compactions retain entry versions that
// live snapshots can still see. Snapshots must be Released.
type Snapshot struct {
	db       *DB
	seq      seqNum
	released bool
}

// NewSnapshot captures the current state.
func (db *DB) NewSnapshot() (*Snapshot, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	s := &Snapshot{db: db, seq: db.vs.lastSeq}
	db.snapshots = append(db.snapshots, s)
	return s, nil
}

// smallestSnapshotLocked returns the oldest sequence any live snapshot
// needs (or the current sequence when none exist). Compactions may only
// drop entry versions older than this.
func (db *DB) smallestSnapshotLocked() seqNum {
	smallest := db.vs.lastSeq
	for _, s := range db.snapshots {
		if s.seq < smallest {
			smallest = s.seq
		}
	}
	return smallest
}

// Get returns the newest value for key visible at the snapshot.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	if s.released {
		return nil, fmt.Errorf("lsm: snapshot already released")
	}
	return s.db.getAtSeq(key, s.seq)
}

// NewIterator returns an iterator over the database as of the snapshot.
func (s *Snapshot) NewIterator() (*Iterator, error) {
	return s.NewRangeIterator(nil, nil)
}

// NewRangeIterator returns a bounded iterator over the snapshot's view.
func (s *Snapshot) NewRangeIterator(start, limit []byte) (*Iterator, error) {
	if s.released {
		return nil, fmt.Errorf("lsm: snapshot already released")
	}
	it, err := s.db.NewRangeIterator(start, limit)
	if err != nil {
		return nil, err
	}
	it.seq = s.seq
	return it, nil
}

// Seq exposes the snapshot's sequence number (diagnostics).
func (s *Snapshot) Seq() uint64 { return uint64(s.seq) }

// Release unpins the snapshot; it must not be used afterwards.
func (s *Snapshot) Release() {
	if s.released {
		return
	}
	s.released = true
	db := s.db
	db.mu.Lock()
	for i, snap := range db.snapshots {
		if snap == s {
			db.snapshots = append(db.snapshots[:i], db.snapshots[i+1:]...)
			break
		}
	}
	db.mu.Unlock()
}

// VerifyChecksums reads every block of every live table, validating CRCs
// and structure, and replays iterator order; it returns the first
// corruption found. The lsmioctl `verify` command exposes it.
func (db *DB) VerifyChecksums() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	ver := db.refCurrentLocked()
	db.mu.Unlock()
	defer func() {
		db.mu.Lock()
		db.unrefVersion(ver)
		db.mu.Unlock()
	}()
	for level, files := range ver.levels {
		for _, fm := range files {
			t, err := db.getTable(fm.num)
			if err != nil {
				return fmt.Errorf("lsm: L%d table %06d: %w", level, fm.num, err)
			}
			it := t.iterator()
			var prev internalKey
			count := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				ik := it.IKey()
				if prev.valid() && compareIKeys(prev, ik) >= 0 {
					return fmt.Errorf("lsm: L%d table %06d: keys out of order", level, fm.num)
				}
				prev = append(prev[:0], ik...)
				count++
			}
			if err := it.Close(); err != nil {
				return fmt.Errorf("lsm: L%d table %06d: %w", level, fm.num, err)
			}
			if count == 0 {
				return fmt.Errorf("lsm: L%d table %06d: empty table", level, fm.num)
			}
		}
	}
	return nil
}

// Property names understood by GetProperty.
const (
	PropNumFilesAtLevelPrefix = "lsmio.num-files-at-level" // + N
	PropLevelBytesPrefix      = "lsmio.level-bytes"        // + N
	PropMemtableSize          = "lsmio.memtable-size"
	PropImmutableCount        = "lsmio.immutable-memtables"
	PropLastSeq               = "lsmio.last-sequence"
	PropTableFiles            = "lsmio.table-files"
)

// GetProperty returns engine internals by name, mirroring RocksDB's
// GetProperty surface.
func (db *DB) GetProperty(name string) (string, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return "", false
	}
	switch {
	case strings.HasPrefix(name, PropNumFilesAtLevelPrefix):
		var l int
		if _, err := fmt.Sscan(strings.TrimPrefix(name, PropNumFilesAtLevelPrefix), &l); err != nil || l < 0 || l >= numLevels {
			return "", false
		}
		return fmt.Sprint(len(db.vs.current.levels[l])), true
	case strings.HasPrefix(name, PropLevelBytesPrefix):
		var l int
		if _, err := fmt.Sscan(strings.TrimPrefix(name, PropLevelBytesPrefix), &l); err != nil || l < 0 || l >= numLevels {
			return "", false
		}
		return fmt.Sprint(db.vs.current.levelBytes(l)), true
	case name == PropMemtableSize:
		return fmt.Sprint(db.mem.approximateSize()), true
	case name == PropImmutableCount:
		return fmt.Sprint(len(db.imm)), true
	case name == PropLastSeq:
		return fmt.Sprint(uint64(db.vs.lastSeq)), true
	case name == PropTableFiles:
		return fmt.Sprint(db.vs.current.numFiles()), true
	default:
		return "", false
	}
}

// ApproximateSize estimates the on-disk bytes holding keys in
// [start, end) (nil end = unbounded), by summing overlapping table sizes.
func (db *DB) ApproximateSize(start, end []byte) int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0
	}
	var hi []byte
	if end != nil {
		hi = end
	}
	var total int64
	for _, files := range db.vs.current.levels {
		for _, f := range files {
			if f.overlaps(start, hi) {
				total += f.size
			}
		}
	}
	return total
}
