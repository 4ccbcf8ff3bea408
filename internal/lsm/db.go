package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"lsmio/internal/iosched"
	"lsmio/internal/obs"
	"lsmio/internal/rt"
	"lsmio/internal/vfs"
)

// Errors returned by DB methods.
var (
	// ErrNotFound reports that a key has no live value.
	ErrNotFound = errors.New("lsm: key not found")
	// ErrClosed reports use of a closed database.
	ErrClosed = errors.New("lsm: database is closed")
	// ErrCorruption marks read failures caused by damaged on-disk data
	// (block checksum mismatch, undecompressable block). Callers above
	// the engine use it to tell data damage apart from I/O failures —
	// e.g. the checkpoint scrubber quarantines the affected step and
	// keeps going rather than aborting the whole pass.
	ErrCorruption = errors.New("corruption")
)

// DB is a log-structured merge-tree database over a vfs.FS directory.
//
// Concurrency: DB methods may be called from multiple goroutines (or
// simulation processes); internal state is guarded by mu following
// LevelDB's protocol: held while mutating in-memory state, always
// released around file I/O, table builds and sleeps.
type DB struct {
	opts Options
	fs   vfs.FS
	dir  string
	rt   rt.Runtime
	mu   rt.Mutex
	cond rt.Cond // mu's one wait channel: any state change broadcasts

	// State below is guarded by mu.
	mem     *memtable
	imm     []*memtable // oldest first
	wal     *walWriter
	walFile vfs.File
	walNum  uint64
	vs      *versionSet
	tables  map[uint64]*tableReader
	cache   *blockCache
	pinned  map[*version]bool // versions referenced by readers
	// pendingOutputs holds file numbers of tables being written by a flush
	// or compaction that no version references yet; the obsolete-file
	// sweeper must not delete them.
	pendingOutputs map[uint64]bool
	flushing       bool
	// dropTables holds the tables a DeletePrefix in progress will retire
	// (nil: none in progress); no merge may claim them meanwhile.
	dropTables map[uint64]bool
	// compactionsInFlight is the number of running background compaction
	// workers (bounded by Options.MaxBackgroundJobs); their input
	// reservations live in vs.claims. manualCompaction marks an exclusive
	// CompactAll in progress, which background workers yield to.
	compactionsInFlight int
	manualCompaction    bool
	closed              bool
	bgErr               error
	// writeQ is the group-commit writer queue: Apply callers enqueue and
	// the head ("leader") commits a whole cohort with one coalesced WAL
	// append + sync, releasing the lock for the I/O. logging marks a
	// leader's WAL I/O in flight; memtable/WAL rotation and Close fence
	// on it.
	writeQ  []*pendingWrite
	logging bool
	// Paced admission (paceRateLocked). mergeBps is the smoothed input
	// rate of the merges run so far, 0 until one is measured; l0MergeBytes
	// is the input of the L0→L1 merge in flight (0: none), started at
	// l0MergeStart; paceUntil is when the writers' paced debt is paid.
	mergeBps     float64
	l0MergeBytes int64
	l0MergeStart time.Duration
	paceUntil    time.Duration
	// reg is the obs registry backing every engine counter; m caches the
	// instrument handles so hot paths never hash instrument names.
	reg *obs.Registry
	m   dbMetrics
}

// Open opens (creating if necessary) a database in dir.
func Open(dir string, opts Options) (*DB, error) {
	o := opts.withDefaults()
	if err := o.check(); err != nil {
		return nil, err
	}
	db := &DB{
		opts:           o,
		fs:             o.FS,
		dir:            strings.TrimSuffix(dir, "/"),
		rt:             o.Runtime,
		mu:             o.Runtime.NewMutex(),
		mem:            newMemtable(),
		tables:         make(map[uint64]*tableReader),
		pinned:         make(map[*version]bool),
		pendingOutputs: make(map[uint64]bool),
		vs:             newVersionSet(o.FS, strings.TrimSuffix(dir, "/")),
		reg:            o.Obs,
	}
	db.cond = db.mu.NewCond()
	if db.reg == nil {
		db.reg = obs.NewRegistryOn(db.rt.Now)
	}
	db.m = newDBMetrics(db.reg)
	if !o.DisableCache {
		db.cache = newBlockCache(cacheSize, db.m.cacheHits, db.m.cacheMisses)
	}
	if db.fs.Exists(currentFileName(db.dir)) {
		if err := db.recover(); err != nil {
			return nil, err
		}
	} else {
		// Refuse to silently re-initialize a directory that clearly held a
		// database (tables or manifests present but CURRENT missing):
		// that is metadata damage, and Repair can rebuild it.
		if names, err := db.fs.List(db.dir); err == nil {
			for _, name := range names {
				if strings.HasSuffix(name, ".sst") || strings.HasPrefix(name, "MANIFEST-") {
					return nil, fmt.Errorf("lsm: %s contains database files but no CURRENT; run Repair", db.dir)
				}
			}
		}
		if err := db.vs.createNew(); err != nil {
			return nil, err
		}
	}
	if err := db.newWAL(); err != nil {
		return nil, err
	}
	return db, nil
}

// recover replays the manifest and any WAL files newer than the recorded
// log number.
func (db *DB) recover() error {
	minLog, err := db.vs.recover()
	if err != nil {
		return fmt.Errorf("lsm: recover manifest in %s: %w", db.dir, err)
	}
	names, err := db.fs.List(db.dir)
	if err != nil {
		return err
	}
	var logs []uint64
	for _, name := range names {
		switch {
		case strings.HasSuffix(name, ".log"):
			num, err := strconv.ParseUint(strings.TrimSuffix(name, ".log"), 10, 64)
			if err == nil && num >= minLog {
				logs = append(logs, num)
			}
		case strings.HasPrefix(name, "MANIFEST-"):
			// vs.recover has switched CURRENT — a rename, atomic and
			// durable — to a fresh manifest that snapshots everything the
			// older ones said. They are garbage from here on, and every
			// open leaves one: sweep them (best effort; a crash or a
			// failed remove leaves them for the next open).
			num, err := strconv.ParseUint(strings.TrimPrefix(name, "MANIFEST-"), 10, 64)
			if err == nil && num < db.vs.manifestNum {
				db.fs.Remove(db.dir + "/" + name)
			}
		}
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })
	for _, num := range logs {
		if err := db.replayLog(num); err != nil {
			return fmt.Errorf("lsm: replay %s: %w", logFileName(db.dir, num), err)
		}
	}
	// Flush whatever the replay produced so old logs can be dropped.
	if !db.mem.empty() {
		meta, err := db.buildTable(db.mem, db.vs.newFileNum())
		if err != nil {
			return err
		}
		next := db.vs.nextFileNum
		edit := &versionEdit{
			Added:       []addedFile{addedFileFromMeta(0, meta)},
			NextFileNum: &next,
		}
		if _, err := db.vs.apply(edit); err != nil {
			return err
		}
		if err := db.vs.logEdit(edit); err != nil {
			return err
		}
		db.mem = newMemtable()
	}
	return nil
}

func (db *DB) replayLog(num uint64) error {
	f, err := db.fs.Open(logFileName(db.dir, num))
	if err != nil {
		if errors.Is(err, vfs.ErrNotExist) {
			return nil
		}
		return err
	}
	defer f.Close()
	r, err := newWALReader(f)
	if err != nil {
		return err
	}
	for {
		rec, err := r.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		b, err := decodeBatch(rec)
		if err != nil {
			return err
		}
		maxApplied := db.vs.lastSeq
		err = b.forEach(func(seq seqNum, kind keyKind, key, value []byte, _ valueSum) error {
			// rec is this record's own buffer; the memtable keeps it. A
			// logged value carries no sum: its flush checksums it.
			db.mem.add(seq, kind, key, value, noSum)
			if seq > maxApplied {
				maxApplied = seq
			}
			return nil
		})
		if err != nil {
			return err
		}
		db.vs.lastSeq = maxApplied
	}
}

// newWAL rotates to a fresh log file for the active memtable (no-op when
// the WAL is disabled).
func (db *DB) newWAL() error {
	if db.opts.DisableWAL {
		return nil
	}
	num := db.vs.newFileNum()
	f, err := db.fs.Create(logFileName(db.dir, num))
	if err != nil {
		return err
	}
	if db.walFile != nil {
		db.walFile.Close()
	}
	db.wal = newWALWriter(f)
	db.walFile = f
	db.walNum = num
	db.mem.logNum = num
	return nil
}

// Put writes a key/value pair.
func (db *DB) Put(key, value []byte) error { return db.put(key, value, noSum) }

// PutCRC is Put with the value's CRC-32C, crc (Batch.PutCRC).
func (db *DB) PutCRC(key, value []byte, crc uint32) error {
	return db.put(key, value, sumOf(crc))
}

func (db *DB) put(key, value []byte, sum valueSum) error {
	b := NewBatch()
	b.put(key, value, sum)
	return db.Apply(b)
}

// Delete removes a key.
func (db *DB) Delete(key []byte) error {
	b := NewBatch()
	b.Delete(key)
	return db.Apply(b)
}

// maxWriteGroupBytes caps the coalesced record a group-commit leader
// writes for a cohort of concurrent Apply callers (LevelDB's
// max_write_batch_group).
const maxWriteGroupBytes = 1 << 20

// pendingWrite is one Apply call queued on the group-commit writer queue.
type pendingWrite struct {
	b    *Batch
	done bool
	err  error
	// drop marks a DeletePrefix's tombstones, which it commits itself
	// without a log record: no leader takes them into its cohort.
	drop bool
}

// Apply atomically applies a batch of writes and consumes the batch: the
// memtable takes over the batch's buffer instead of copying every value
// out of it, so when Apply returns — with or without an error — b is
// empty, and whatever the caller queues on it next goes into a new
// buffer. Nothing the caller passed to Put or Delete is referenced: those
// were copied into the batch when they were queued.
//
// Writes go through a LevelDB-style writer queue: each caller enqueues
// its batch and waits until either a leader has committed it (a cohort
// fan-out) or it has reached the head of the queue, at which point it
// leads a cohort of its own — one coalesced WAL append and (with
// Options.Sync) one fsync covering every batch in the cohort, performed
// with the DB lock released so concurrent readers and background work
// keep moving.
func (db *DB) Apply(b *Batch) error {
	if b.Count() == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// Runs once this writer's cohort is finished: until then its leader,
	// possibly another caller, is still reading the batch.
	defer b.release()
	if db.closed {
		return ErrClosed
	}
	w := &pendingWrite{b: b}
	db.writeQ = append(db.writeQ, w)
	for !w.done && db.writeQ[0] != w {
		db.cond.Wait()
	}
	if !w.done {
		db.commitCohortLocked()
	}
	return w.err
}

// commitCohortLocked runs one group-commit round with the queue head as
// leader. Called with the lock held by the head writer.
func (db *DB) commitCohortLocked() {
	if err := db.makeRoomForWrite(); err != nil {
		db.finishCohortLocked(db.writeQ[:1], err)
		return
	}
	// Build the cohort: the leader plus writers queued behind it, up to
	// the group byte cap. makeRoomForWrite may have released the lock
	// (paced wait, stall, inline flush), so the queue can be longer now
	// than when this leader was elected — that is the point: the longer
	// the WAL I/O ahead of us took, the more writes one sync amortizes.
	cohort := db.writeQ[:1]
	if !db.opts.DisableWALGroupCommit {
		groupBytes := cohort[0].b.Size()
		for _, f := range db.writeQ[len(cohort):] {
			if f.drop || groupBytes+f.b.Size() > maxWriteGroupBytes {
				break
			}
			groupBytes += f.b.Size()
			cohort = db.writeQ[:len(cohort)+1]
		}
	}
	// Stamp contiguous sequence numbers WITHOUT publishing vs.lastSeq:
	// readers must not observe sequences whose entries are not in the
	// memtable yet, and a failed WAL write must leave no sequence gap
	// for later successful writes to sit above.
	seq := db.vs.lastSeq + 1
	total, size := 0, 0
	for _, pw := range cohort {
		pw.b.setSeq(seq + seqNum(total))
		total += pw.b.Count()
		size += pw.b.Size()
	}
	if !db.opts.DisableWAL {
		rec := encodeGroupRecord(cohort)
		wal := db.wal
		startOff := wal.tell()
		db.logging = true
		db.mu.Unlock()
		// Commit I/O is the scheduler's top class: the cohort's writers
		// are blocked on this append, so it outbids every background
		// consumer but is still accounted, which is what lets the
		// scheduler squeeze compaction when commits are active.
		db.opts.IOSched.Acquire(iosched.Foreground, int64(len(rec)))
		werr := wal.addRecord(rec)
		if werr == nil && db.opts.Sync {
			db.m.walSyncs.Inc()
			werr = wal.sync()
		}
		db.mu.Lock()
		db.logging = false
		db.cond.Broadcast()
		if werr != nil {
			// Poison the DB: the record may be fully buffered even though
			// the caller saw an error (fsync failed after a complete
			// append), so accepting further writes would let a later sync
			// make the failed cohort durable — WAL replay would then
			// resurrect writes their callers were told failed. Best
			// effort, the suspect tail is also truncated away; lastSeq
			// was never advanced, so there is no sequence gap either.
			db.wal.rollback(startOff)
			db.bgErr = fmt.Errorf("lsm: wal append: %w", werr)
			db.finishCohortLocked(cohort, werr)
			return
		}
		db.m.walBytes.Add(int64(len(rec)))
		db.m.walGroupCommits.Inc()
		db.m.walGroupSize.Observe(int64(len(cohort)))
	}
	var applyErr error
	for _, pw := range cohort {
		err := pw.b.forEach(func(seq seqNum, kind keyKind, key, value []byte, sum valueSum) error {
			db.mem.add(seq, kind, key, value, sum)
			switch kind {
			case kindValue:
				db.m.puts.Inc()
			case kindDelete:
				db.m.deletes.Inc()
			}
			return nil
		})
		if err != nil && applyErr == nil {
			applyErr = err
		}
	}
	if applyErr != nil {
		// A batch failed to decode after its record was logged: the
		// engine cannot tell which entries took effect, so stop the
		// world rather than guess. lastSeq stays unpublished — the
		// partial inserts sit above it and remain invisible.
		db.bgErr = applyErr
		db.finishCohortLocked(cohort, applyErr)
		return
	}
	db.vs.lastSeq += seqNum(total)
	db.chargePaceLocked(size)
	db.finishCohortLocked(cohort, nil)
}

// finishCohortLocked pops the cohort off the writer queue and fans the
// outcome out to every member; the new queue head (if any) is woken to
// lead the next cohort.
func (db *DB) finishCohortLocked(cohort []*pendingWrite, err error) {
	for _, pw := range cohort {
		pw.done = true
		pw.err = err
	}
	db.writeQ = db.writeQ[len(cohort):]
	db.cond.Broadcast()
}

// encodeGroupRecord coalesces a cohort's batches into one WAL record:
// the first batch's header rewritten to span the whole cohort (starting
// sequence + total count — the batches were stamped contiguously),
// followed by every batch's entry bytes. A cohort of one logs its batch
// verbatim, byte-identical to the pre-group-commit format.
func encodeGroupRecord(cohort []*pendingWrite) []byte {
	if len(cohort) == 1 {
		return cohort[0].b.data
	}
	total := 0
	size := batchHeaderLen
	for _, pw := range cohort {
		total += pw.b.Count()
		size += len(pw.b.data) - batchHeaderLen
	}
	rec := make([]byte, 0, size)
	rec = append(rec, cohort[0].b.data[:batchHeaderLen]...)
	binary.LittleEndian.PutUint32(rec[8:12], uint32(total))
	for _, pw := range cohort {
		rec = append(rec, pw.b.data[batchHeaderLen:]...)
	}
	return rec
}

// makeRoomForWrite rotates a full memtable, admission-controlling the
// writer against the background backlog. Two tiers: writes are paced at
// the rate the merges absorb (a writer whose paced debt has reached
// minPaceWait pays it off, lock released), and the hard stall (flush
// backlog at its limit, or L0 at the stop trigger) blocks until
// background work drains. Stall episodes are counted once and their
// duration metered. Called with the lock held.
func (db *DB) makeRoomForWrite() error {
	var stallStart time.Duration
	stalled := false
	endStall := func() {
		if stalled {
			d := db.rt.Now() - stallStart
			db.m.stallUS.Add(int64(d / time.Microsecond))
			db.m.stallDur.ObserveDuration(d)
			db.m.trace.EmitSpan("lsm.stall", "hard write stall", stallStart)
			stalled = false
		}
	}
	for {
		if db.bgErr != nil {
			endStall()
			return db.bgErr
		}
		if debt := db.paceUntil - db.rt.Now(); debt >= minPaceWait {
			if db.paceRateLocked() == 0 {
				// The merge that set the pace is done: the debt is void.
				db.paceUntil = 0
				continue
			}
			// Paced tier: wait without the lock, so the background
			// workers keep moving and other writers queue up behind
			// this leader for one cohort.
			db.m.slowdownWaits.Inc()
			start := db.rt.Now()
			db.mu.Unlock()
			db.rt.Sleep(debt)
			db.mu.Lock()
			d := db.rt.Now() - start
			db.m.slowdownUS.Add(int64(d / time.Microsecond))
			db.m.slowdownDur.ObserveDuration(d)
			continue
		}
		if db.mem.approximateSize() < int64(db.opts.WriteBufferSize) {
			endStall()
			return nil
		}
		if len(db.imm) >= db.opts.MaxImmutableMemtables || db.writerMustStopLocked() {
			// Hard stall: wait for the background work to drain. Ensure
			// the draining side is actually running before parking.
			if db.opts.AsyncFlush {
				db.maybeScheduleFlush()
			}
			db.maybeScheduleCompaction()
			if !stalled {
				stalled = true
				db.m.stallWaits.Inc()
				stallStart = db.rt.Now()
			}
			db.cond.Wait()
			continue
		}
		endStall()
		if err := db.rotateMemtable(); err != nil {
			return err
		}
		if db.opts.AsyncFlush {
			db.maybeScheduleFlush()
		} else {
			if err := db.flushAllLocked(); err != nil {
				return err
			}
		}
	}
}

// writerMustStopLocked reports whether L0 has reached the hard stop
// trigger (only meaningful while compaction can drain it).
func (db *DB) writerMustStopLocked() bool {
	return !db.opts.DisableCompaction && db.opts.L0StopTrigger > 0 &&
		len(db.vs.current.levels[0]) >= db.opts.L0StopTrigger
}

// rotateMemtable moves the active memtable to the immutable queue and
// starts a fresh WAL. Called with the lock held.
func (db *DB) rotateMemtable() error {
	// A group-commit leader may be appending to the current WAL with the
	// lock released. Rotating underneath it would split the cohort: its
	// record would sit in the old log while its memtable inserts (which
	// happen after the leader relocks) land in the new memtable — a
	// flush of that memtable then advances the manifest's log number
	// past the record, and a crash would silently lose acked writes.
	for db.logging {
		db.cond.Wait()
	}
	db.imm = append(db.imm, db.mem)
	db.mem = newMemtable()
	return db.newWAL()
}

// maybeScheduleFlush starts the background flusher if it is not running
// and there is something to flush. The emptiness check matters: a no-op
// flusher still broadcasts on completion, and a waiter that reschedules
// on every wakeup (WaitBackground) would livelock with it. Called with
// the lock held.
func (db *DB) maybeScheduleFlush() {
	if db.flushing || db.closed || len(db.imm) == 0 {
		return
	}
	db.flushing = true
	db.rt.Go("lsm-flush", false, db.backgroundFlush)
}

func (db *DB) backgroundFlush() {
	db.mu.Lock()
	for len(db.imm) > 0 && db.bgErr == nil {
		if err := db.flushOneLocked(); err != nil {
			db.bgErr = err
			break
		}
	}
	db.flushing = false
	db.cond.Broadcast()
	db.maybeScheduleCompaction()
	db.mu.Unlock()
}

// flushAllLocked flushes every immutable memtable inline. It claims the
// flushing flag so concurrent writers cannot flush the same memtable twice.
func (db *DB) flushAllLocked() error {
	for db.flushing {
		db.cond.Wait()
	}
	db.flushing = true
	var err error
	for len(db.imm) > 0 {
		if err = db.flushOneLocked(); err != nil {
			break
		}
	}
	db.flushing = false
	db.cond.Broadcast()
	if err != nil {
		return err
	}
	db.maybeScheduleCompaction()
	return nil
}

// flushOneLocked writes the oldest immutable memtable as an L0 table and
// installs it, in the same edit, with the tables a DeletePrefix attached
// to the memtable retires (an empty memtable that carries such a drop
// installs without a table). The lock is released around the table build.
func (db *DB) flushOneLocked() error {
	m := db.imm[0]
	flushStart := db.rt.Now()
	edit := &versionEdit{Deleted: m.drop}
	var meta tableMeta
	if !m.empty() {
		num := db.vs.newFileNum()
		db.pendingOutputs[num] = true
		defer delete(db.pendingOutputs, num)
		db.mu.Unlock()
		var err error
		meta, err = db.buildTable(m, num)
		db.mu.Lock()
		if err != nil {
			return err
		}
		edit.Added = []addedFile{addedFileFromMeta(0, meta)}
	}
	// Everything in m is durable, so its log can go, but no later one: every
	// log from the one of the oldest memtable still unflushed on must stay,
	// and that is not the live WAL while a second immutable memtable waits
	// behind m. With Sync the waiting memtable's writes were acknowledged
	// durable when their records synced; without it a process crash still
	// keeps the bytes written to its log, and replay needs them.
	logNum := db.walNum
	if len(db.imm) > 1 {
		logNum = db.imm[1].logNum
	}
	next := db.vs.nextFileNum
	last := uint64(db.vs.lastSeq)
	edit.LogNum, edit.NextFileNum, edit.LastSeq = &logNum, &next, &last
	nv, err := db.vs.apply(edit)
	if err != nil {
		return err
	}
	if len(edit.Added) > 0 {
		// apply prepends to L0, so the new table is nv.levels[0][0].
		nv.levels[0][0].reclaim = meta.mostlyTombstones()
	}
	if err := db.vs.logEdit(edit); err != nil {
		return err
	}
	db.imm = db.imm[1:]
	if len(edit.Added) > 0 {
		db.m.flushes.Inc()
		db.m.bytesFlushed.Add(meta.size)
		db.m.flushDur.ObserveDuration(db.rt.Now() - flushStart)
		db.m.trace.EmitSpan("lsm.flush", fmt.Sprintf("table=%d bytes=%d", meta.fileNum, meta.size), flushStart)
	}
	if m.drop == nil {
		// An ordinary flush unlinks under the lock: unlinking off it lets
		// the simulator's processes interleave differently and moves the
		// virtual times of ext-compaction, ext-pipeline and ext-stability,
		// and two of ext-stability's quick-scale checks fail (windowed
		// throughput CoV 0.88× against 1.05×, storm-phase p99 1.00×
		// against 1.02×).
		db.deleteObsoleteLocked()
		db.cond.Broadcast()
		return nil
	}
	// A drop's tables are unlinked off the waiter's path: DeletePrefix
	// returns once the edit is installed, while the flusher unlinks (under
	// the lock, ckpt-llm's commit_MBps read 0.931 of its parent's).
	doomed := db.obsoleteFilesLocked()
	db.cond.Broadcast()
	db.mu.Unlock()
	db.removeFiles(doomed)
	db.mu.Lock()
	return nil
}

// buildTable writes a memtable out as an SSTable with the pre-allocated
// file number. Called without the lock.
func (db *DB) buildTable(m *memtable, num uint64) (tableMeta, error) {
	w, err := newTableWriter(&db.opts, tableFileName(db.dir, num), num, &db.m, iosched.Flush)
	if err != nil {
		return tableMeta{}, err
	}
	it := m.iterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		w.add(it.IKey(), it.Value(), it.Sum())
	}
	return w.finish()
}

// Get returns the newest value for key, or ErrNotFound.
//
// Ownership: the value is the caller's, to keep and to modify; nothing
// the caller does to it reaches the store. It is copied at most once on
// the way out. A value read from a table with the block cache off is
// the block that read brought in (the one pread, no copy), unless it is
// a small part of that block; a value in the memtable or in a cached
// block, which later reads see too, is copied.
func (db *DB) Get(key []byte) ([]byte, error) {
	v, _, err := db.getOwned(key, false)
	return v, err
}

// GetCRC is Get that also returns the value's CRC-32C (crc32.Castagnoli)
// when it comes out of the pass that checked the table block the value
// was just read from: ok then, and only then. The value must be stored
// raw, not cached, and end its block's entries (tableReader.get), which
// a value of a block's size or more put without compression does. A
// value from the memtable has no such sum, whatever its writer gave
// PutCRC: that crc was never checked against the bytes.
func (db *DB) GetCRC(key []byte) (value []byte, crc uint32, ok bool, err error) {
	value, sum, err := db.getOwned(key, true)
	crc, ok = sum.crc()
	return value, crc, ok, err
}

// getOwned is Get's body, with the value's sum when wantCRC asks for it
// and the block check gives it.
func (db *DB) getOwned(key []byte, wantCRC bool) ([]byte, valueSum, error) {
	v, own, sum, err := db.get(key, wantCRC)
	if err == nil && !own {
		v = append([]byte(nil), v...)
	}
	return v, sum, err
}

// Has reports whether key has a live value.
func (db *DB) Has(key []byte) (bool, error) {
	_, _, _, err := db.get(key, false)
	if err == ErrNotFound {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// get finds key's newest value where it lies. own reports whether the
// caller may keep the slice as its own (tableReader.get); when false it
// is shared with the memtable or the block cache and must not be
// modified. sum is the value's CRC-32C from a table read's block check,
// with wantCRC (tableReader.get).
func (db *DB) get(key []byte, wantCRC bool) (value []byte, own bool, sum valueSum, err error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, false, noSum, ErrClosed
	}
	db.m.gets.Inc()
	seq := db.vs.lastSeq
	mem := db.mem
	imms := append([]*memtable(nil), db.imm...)
	ver := db.refCurrentLocked()
	db.mu.Unlock()

	probes := 0
	defer func() {
		db.m.getTables.Observe(int64(probes))
		db.mu.Lock()
		db.unrefVersion(ver)
		db.mu.Unlock()
	}()

	if v, found, deleted := mem.get(key, seq); found {
		if deleted {
			return nil, false, noSum, ErrNotFound
		}
		return v, false, noSum, nil
	}
	for i := len(imms) - 1; i >= 0; i-- {
		if v, found, deleted := imms[i].get(key, seq); found {
			if deleted {
				return nil, false, noSum, ErrNotFound
			}
			return v, false, noSum, nil
		}
	}
	for _, fm := range ver.filesForKey(key) {
		t, err := db.getTable(fm.num)
		if err != nil {
			return nil, false, noSum, err
		}
		probes++
		v, own, sum, found, deleted, err := t.get(key, seq, wantCRC)
		if err != nil {
			return nil, false, noSum, err
		}
		if found {
			if deleted {
				return nil, false, noSum, ErrNotFound
			}
			return v, own, sum, nil
		}
	}
	return nil, false, noSum, ErrNotFound
}

// refCurrentLocked pins the current version for a reader.
func (db *DB) refCurrentLocked() *version {
	v := db.vs.current
	v.refs++
	db.pinned[v] = true
	return v
}

// unrefVersion releases a reader's pin. Called with the lock held. The
// last reader of a superseded version frees the tables only it kept —
// unless the DB is closed: Close does not wait for readers, and by then
// the directory may belong to a newer DB whose tables this one's stale
// live set does not know.
func (db *DB) unrefVersion(v *version) {
	v.refs--
	if v.refs > 0 {
		return
	}
	delete(db.pinned, v)
	if v != db.vs.current && !db.closed {
		db.deleteObsoleteLocked()
	}
}

// getTable returns (opening if needed) the reader for a table file.
func (db *DB) getTable(num uint64) (*tableReader, error) {
	db.mu.Lock()
	if t, ok := db.tables[num]; ok {
		db.mu.Unlock()
		return t, nil
	}
	db.mu.Unlock()
	f, err := db.fs.Open(tableFileName(db.dir, num))
	if err != nil {
		return nil, err
	}
	t, err := openTable(f, &db.opts, num, db.cache)
	if err != nil {
		f.Close()
		return nil, err
	}
	db.mu.Lock()
	if existing, ok := db.tables[num]; ok {
		db.mu.Unlock()
		t.close()
		return existing, nil
	}
	db.tables[num] = t
	db.mu.Unlock()
	return t, nil
}

// deleteObsoleteLocked removes table files no longer referenced by the
// current version or any pinned version, and WAL files older than the
// current log. Called with the lock held.
func (db *DB) deleteObsoleteLocked() {
	db.removeFiles(db.obsoleteFilesLocked())
}

// removeFiles unlinks the named files of the database directory (best
// effort: a failed remove leaves the file to a later sweep).
func (db *DB) removeFiles(names []string) {
	for _, name := range names {
		db.fs.Remove(db.dir + "/" + name)
	}
}

// obsoleteFilesLocked lists the files deleteObsoleteLocked removes,
// closing the readers and evicting the cached blocks of the tables among
// them. Called with the lock held.
func (db *DB) obsoleteFilesLocked() []string {
	live := db.vs.liveFileNums()
	for num := range db.pendingOutputs {
		live[num] = true
	}
	for v := range db.pinned {
		for _, lvl := range v.levels {
			for _, f := range lvl {
				live[f.num] = true
			}
		}
	}
	names, err := db.fs.List(db.dir)
	if err != nil {
		return nil
	}
	var doomed []string
	for _, name := range names {
		switch {
		case strings.HasSuffix(name, ".sst"):
			num, err := strconv.ParseUint(strings.TrimSuffix(name, ".sst"), 10, 64)
			if err != nil || live[num] {
				continue
			}
			if t, ok := db.tables[num]; ok {
				t.close()
				delete(db.tables, num)
			}
			if db.cache != nil {
				db.cache.evictFile(num)
			}
			doomed = append(doomed, name)
		case strings.HasSuffix(name, ".log"):
			num, err := strconv.ParseUint(strings.TrimSuffix(name, ".log"), 10, 64)
			if err != nil || num >= db.vs.logNum || num == db.walNum {
				continue
			}
			doomed = append(doomed, name)
		}
	}
	return doomed
}

// Flush forces all buffered writes to SSTables, blocking until every
// memtable is on disk. It is the engine half of LSMIO's write barrier.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if !db.mem.empty() {
		if err := db.rotateMemtable(); err != nil {
			return err
		}
	}
	if db.opts.AsyncFlush {
		db.maybeScheduleFlush()
		for len(db.imm) > 0 && db.bgErr == nil {
			db.cond.Wait()
		}
		return db.bgErr
	}
	return db.flushAllLocked()
}

// CompactAll flushes and then fully compacts the database into a single
// level, waiting for completion. Used by tests and the ablation benches.
// It runs exclusively: background workers are fenced off (and drained)
// first, so the manual walk owns every level.
func (db *DB) CompactAll() error {
	if err := db.Flush(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for db.manualCompaction || db.dropTables != nil {
		db.cond.Wait()
	}
	db.manualCompaction = true
	for db.compactionsInFlight > 0 {
		db.cond.Wait()
	}
	err := db.compactEverythingLocked()
	db.manualCompaction = false
	db.cond.Broadcast()
	db.maybeScheduleCompaction()
	return err
}

// WaitBackground blocks until all background work has settled: no flush
// or compaction is running and nothing more is schedulable. It returns
// the background error, if any. Benchmarks use it to charge the full
// drain to the measured interval.
func (db *DB) WaitBackground() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for db.bgErr == nil && !db.closed &&
		(db.flushing || db.compactionsInFlight > 0 || db.manualCompaction ||
			len(db.imm) > 0 || db.needsCompactionLocked()) {
		if db.opts.AsyncFlush {
			db.maybeScheduleFlush()
		}
		db.maybeScheduleCompaction()
		db.cond.Wait()
	}
	return db.bgErr
}

// NewIterator returns an iterator over a consistent snapshot of the DB.
func (db *DB) NewIterator() (*Iterator, error) {
	return db.NewRangeIterator(nil, nil)
}

// NewRangeIterator returns an iterator restricted to user keys in
// [start, limit) (nil = unbounded). Tables whose key ranges fall outside
// the bounds are never opened, so a narrow scan of a large database
// touches only the relevant files.
func (db *DB) NewRangeIterator(start, limit []byte) (*Iterator, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	seq := db.vs.lastSeq
	children := []internalIterator{db.mem.iterator()}
	for i := len(db.imm) - 1; i >= 0; i-- {
		children = append(children, db.imm[i].iterator())
	}
	ver := db.refCurrentLocked()
	var hi []byte
	if limit != nil {
		hi = limit // inclusive test below errs toward inclusion; fine
	}
	var fileNums []uint64
	for _, lvl := range ver.levels {
		for _, f := range lvl {
			if f.overlaps(start, hi) {
				fileNums = append(fileNums, f.num)
			}
		}
	}
	db.mu.Unlock()

	for _, num := range fileNums {
		t, err := db.getTable(num)
		if err != nil {
			db.mu.Lock()
			db.unrefVersion(ver)
			db.mu.Unlock()
			return nil, err
		}
		children = append(children, t.iterator())
	}
	return &Iterator{
		merge: newMergingIterator(children),
		seq:   seq,
		db:    db,
		ver:   ver,
		lower: append([]byte(nil), start...),
		upper: append([]byte(nil), limit...),
	}, nil
}

// Obs returns the registry backing the engine's instruments. When
// Options.Obs injected a shared registry (the Manager does this), the
// same registry also carries the caller's other subsystems.
func (db *DB) Obs() *obs.Registry { return db.reg }

// ResetStats zeroes every `lsm.*` instrument, starting a fresh
// measurement window mid-run. Other subsystems sharing the registry are
// untouched.
func (db *DB) ResetStats() { db.reg.ResetPrefix("lsm.") }

// NumTableFiles reports the number of live SSTables per level.
func (db *DB) NumTableFiles() [numLevels]int {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out [numLevels]int
	for l, files := range db.vs.current.levels {
		out[l] = len(files)
	}
	return out
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
// GetProperty surface. The lsmioctl `prop` command exposes it.
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

// Close waits for background work and releases all files. With the WAL
// disabled, unflushed writes are lost unless Flush was called first — the
// contract the paper's checkpoint barrier satisfies.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	for db.flushing || db.compactionsInFlight > 0 || db.manualCompaction ||
		db.logging || len(db.writeQ) > 0 || db.dropTables != nil {
		db.cond.Wait()
	}
	db.closed = true
	for _, t := range db.tables {
		t.close()
	}
	db.tables = nil
	var err error
	if db.walFile != nil {
		err = db.walFile.Close()
	}
	if e := db.vs.close(); err == nil {
		err = e
	}
	db.mu.Unlock()
	return err
}

// Dir returns the database directory.
func (db *DB) Dir() string { return db.dir }
