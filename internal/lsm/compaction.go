package lsm

import (
	"bytes"
	"fmt"
	"sort"

	"lsmio/internal/iosched"
)

// Leveled compaction, LevelDB-style: L0 tables (which may overlap) are
// merged with overlapping L1 tables when their count reaches the trigger;
// deeper levels compact one file at a time, round-robin, when their
// cumulative size exceeds the level target. The LSMIO checkpoint
// configuration disables all of this — checkpoints are write-once — but the
// engine implements it fully for general workloads and the ablation
// benchmarks.
//
// Background work is admission-controlled by a scheduler that runs up to
// Options.MaxBackgroundJobs workers at once. Each worker owns one
// compaction at a time, reserved through a versionSet claim: no two
// running compactions may share an input file or overlap key ranges on a
// level they both touch, so concurrent version edits stay exact and the
// output files of a level remain disjoint. Memtable flushes run on their
// own worker (db.flushing) and never queue behind compactions. A wide
// merge is additionally split into key-range subcompactions executed in
// parallel and stitched back in shard order.

// maxBytesForLevel returns the size target of a level.
func (db *DB) maxBytesForLevel(level int) int64 {
	size := db.opts.BaseLevelSize
	for l := 1; l < level; l++ {
		size *= int64(db.opts.LevelSizeMultiplier)
	}
	return size
}

// targetFileSize is the output-table split size for a compaction.
func (db *DB) targetFileSize() int64 {
	s := int64(db.opts.WriteBufferSize) / 2
	if s < 2<<20 {
		s = 2 << 20
	}
	return s
}

// needsCompactionLocked reports whether any level is over its trigger.
func (db *DB) needsCompactionLocked() bool {
	if db.opts.DisableCompaction {
		return false
	}
	v := db.vs.current
	if db.l0Due(v) {
		return true
	}
	for l := 1; l < numLevels-1; l++ {
		if v.levelBytes(l) > db.maxBytesForLevel(l) {
			return true
		}
	}
	return false
}

// l0Due reports whether L0 must be compacted: it holds
// L0CompactionTrigger tables, or one a flush wrote mostly of tombstones.
// The second rule makes a dropped checkpoint step's bytes go away at its
// own flush instead of whenever L0 next happens to fill up.
func (db *DB) l0Due(v *version) bool {
	if len(v.levels[0]) >= db.opts.L0CompactionTrigger {
		return true
	}
	for _, f := range v.levels[0] {
		if f.reclaim {
			return true
		}
	}
	return false
}

// compactionDebtLocked estimates the pending compaction backlog: bytes
// above each level's size target plus the L0 bytes beyond the trigger.
// The slowdown tier compares it against SoftPendingCompactionBytes.
func (db *DB) compactionDebtLocked() int64 {
	v := db.vs.current
	var debt int64
	if extra := len(v.levels[0]) - db.opts.L0CompactionTrigger; extra > 0 {
		files := v.levels[0]
		for _, f := range files[:extra] {
			debt += f.size
		}
	}
	for l := 1; l < numLevels-1; l++ {
		if over := v.levelBytes(l) - db.maxBytesForLevel(l); over > 0 {
			debt += over
		}
	}
	return debt
}

// compactionJob is one unit of background work handed to a worker, with
// its versionSet reservation.
type compactionJob struct {
	level    int
	inputs   []*fileMeta // level `level`
	overlaps []*fileMeta // level `level+1`
	claim    *compactionClaim
}

// admissibleLocked reports whether a candidate compaction is disjoint
// from every running one: none of its files claimed, and its key span
// free on both levels it touches.
func (db *DB) admissibleLocked(level int, inputs, overlaps []*fileMeta) bool {
	for _, f := range inputs {
		if db.vs.fileClaimed(f.num) {
			return false
		}
	}
	for _, f := range overlaps {
		if db.vs.fileClaimed(f.num) {
			return false
		}
	}
	all := append(append([]*fileMeta(nil), inputs...), overlaps...)
	lo, hi := keyRange(all)
	return !db.vs.rangeClaimed(level, lo, hi) && !db.vs.rangeClaimed(level+1, lo, hi)
}

// maybeScheduleCompaction spawns compaction workers up to the
// MaxBackgroundJobs cap while admissible work exists. Called with the
// lock held.
func (db *DB) maybeScheduleCompaction() {
	if db.closed || db.bgErr != nil || db.manualCompaction {
		return
	}
	for db.compactionsInFlight < db.opts.MaxBackgroundJobs {
		job := db.pickAndClaimLocked()
		if job == nil {
			return
		}
		db.compactionsInFlight++
		db.rt.Go("lsm-compact", false, func() { db.compactionWorker(job) })
	}
}

// compactionWorker runs claimed jobs until none remain admissible.
func (db *DB) compactionWorker(job *compactionJob) {
	db.mu.Lock()
	for job != nil {
		err := db.runCompactionLocked(job.level, job.inputs, job.overlaps)
		db.vs.releaseCompaction(job.claim)
		if err != nil {
			db.bgErr = err
			break
		}
		// Releasing the claim may have unblocked work beyond what this
		// worker can take; let the scheduler top the pool back up.
		db.maybeScheduleCompaction()
		job = db.pickAndClaimLocked()
	}
	db.compactionsInFlight--
	db.cond.Broadcast()
	db.mu.Unlock()
}

// pickAndClaimLocked selects the next admissible compaction and reserves
// its inputs. Returns nil when no work may start.
func (db *DB) pickAndClaimLocked() *compactionJob {
	if db.closed || db.bgErr != nil || db.manualCompaction || db.opts.DisableCompaction {
		return nil
	}
	level, inputs, overlaps := db.pickCompaction()
	if level < 0 {
		return nil
	}
	all := append(append([]*fileMeta(nil), inputs...), overlaps...)
	return &compactionJob{
		level:    level,
		inputs:   inputs,
		overlaps: overlaps,
		claim:    db.vs.claimCompaction(level, all),
	}
}

// pickCompaction chooses inputs among the candidates disjoint from all
// running compactions. Called with the lock held.
func (db *DB) pickCompaction() (level int, inputs, overlaps []*fileMeta) {
	v := db.vs.current
	if db.l0Due(v) {
		// Take every L0 file (they may all overlap) plus the L1 files
		// their combined range touches. At most one L0 compaction runs at
		// a time — a second candidate's span always collides with it.
		inputs = append([]*fileMeta(nil), v.levels[0]...)
		lo, hi := keyRange(inputs)
		overlaps = v.overlapping(1, lo, hi)
		if db.admissibleLocked(0, inputs, overlaps) {
			return 0, inputs, overlaps
		}
	}
	for l := 1; l < numLevels-1; l++ {
		if v.levelBytes(l) <= db.maxBytesForLevel(l) {
			continue
		}
		// Round-robin: first file after the last compaction's end point,
		// then (only when that candidate is busy) each later file in turn.
		files := v.levels[l]
		start := 0
		if ptr := db.vs.compactPointer[l]; ptr.valid() {
			start = len(files)
			for i, f := range files {
				if compareIKeys(f.largest, ptr) > 0 {
					start = i
					break
				}
			}
		}
		for k := 0; k < len(files); k++ {
			pick := files[(start+k)%len(files)]
			in := []*fileMeta{pick}
			lo, hi := keyRange(in)
			ov := v.overlapping(l+1, lo, hi)
			if db.admissibleLocked(l, in, ov) {
				return l, in, ov
			}
		}
	}
	return -1, nil, nil
}

// keyRange returns the user-key bounds spanned by files.
func keyRange(files []*fileMeta) (lo, hi []byte) {
	for _, f := range files {
		if lo == nil || bytes.Compare(f.smallest.userKey(), lo) < 0 {
			lo = f.smallest.userKey()
		}
		if hi == nil || bytes.Compare(f.largest.userKey(), hi) > 0 {
			hi = f.largest.userKey()
		}
	}
	return lo, hi
}

// shardRange is one subcompaction's half-open user-key slice
// [lower, upper); nil means unbounded.
type shardRange struct {
	lower, upper []byte
}

// contains reports whether a user key falls in the shard.
func (s shardRange) contains(uk []byte) bool {
	if s.lower != nil && bytes.Compare(uk, s.lower) < 0 {
		return false
	}
	if s.upper != nil && bytes.Compare(uk, s.upper) >= 0 {
		return false
	}
	return true
}

// filesForShard keeps the input files that can hold keys of the shard.
func filesForShard(files []*fileMeta, s shardRange) []*fileMeta {
	var out []*fileMeta
	for _, f := range files {
		if s.lower != nil && bytes.Compare(f.largest.userKey(), s.lower) < 0 {
			continue
		}
		if s.upper != nil && bytes.Compare(f.smallest.userKey(), s.upper) >= 0 {
			continue
		}
		out = append(out, f)
	}
	return out
}

// planSubcompactions splits a merge over `all` into up to
// MaxBackgroundJobs key-range shards, using the input files' smallest
// keys as boundaries (they are cheap, deterministic, and — on the sorted
// output level — align shards with existing file edges). Returns nil when
// the merge should run unsharded; every user key belongs to exactly one
// shard, so per-key shadowing and tombstone logic is unaffected.
func (db *DB) planSubcompactions(all []*fileMeta) []shardRange {
	n := db.opts.MaxBackgroundJobs
	if n <= 1 || len(all) < 2 {
		return nil
	}
	var cands [][]byte
	for _, f := range all {
		cands = append(cands, f.smallest.userKey())
	}
	sort.Slice(cands, func(i, j int) bool { return bytes.Compare(cands[i], cands[j]) < 0 })
	uniq := cands[:0]
	for i, c := range cands {
		if i > 0 && bytes.Equal(c, uniq[len(uniq)-1]) {
			continue
		}
		uniq = append(uniq, c)
	}
	// The global smallest key is not a useful boundary: everything below
	// it is empty.
	if len(uniq) > 0 {
		uniq = uniq[1:]
	}
	if len(uniq) == 0 {
		return nil
	}
	shards := n
	if shards > len(uniq)+1 {
		shards = len(uniq) + 1
	}
	if shards <= 1 {
		return nil
	}
	out := make([]shardRange, 0, shards)
	var lower []byte
	for i := 1; i < shards; i++ {
		b := uniq[i*len(uniq)/shards]
		if lower != nil && bytes.Compare(b, lower) <= 0 {
			continue
		}
		out = append(out, shardRange{lower: lower, upper: b})
		lower = b
	}
	out = append(out, shardRange{lower: lower})
	if len(out) <= 1 {
		return nil
	}
	return out
}

// runCompactionLocked merges inputs (level) + overlaps (level+1) into new
// tables at level+1, splitting the merge into parallel subcompactions
// when the worker pool allows.
func (db *DB) runCompactionLocked(level int, inputs, overlaps []*fileMeta) error {
	outLevel := level + 1
	all := append(append([]*fileMeta(nil), inputs...), overlaps...)
	// Tombstones can be dropped when no deeper level holds data under the
	// compaction's key range.
	lo, hi := keyRange(all)
	dropTombstones := true
	for l := outLevel + 1; l < numLevels; l++ {
		if len(db.vs.current.overlapping(l, lo, hi)) > 0 {
			dropTombstones = false
			break
		}
	}
	// Every entry at or below the last published sequence is visible to
	// new readers; older versions of a key under it are not.
	lastSeq := db.vs.lastSeq
	shards := db.planSubcompactions(all)
	compactStart := db.rt.Now()
	// The number of output tables is unknown up front, so the merge
	// re-takes the lock briefly for each file-number allocation and marks
	// each output pending so the obsolete-file sweep leaves it alone.
	var outNums []uint64
	alloc := func() uint64 {
		db.mu.Lock()
		defer db.mu.Unlock()
		n := db.vs.newFileNum()
		db.pendingOutputs[n] = true
		outNums = append(outNums, n)
		return n
	}
	var metas []tableMeta
	var err error
	if len(shards) <= 1 {
		db.mu.Unlock()
		metas, err = db.mergeTables(all, shardRange{}, dropTombstones, lastSeq, alloc)
		db.mu.Lock()
	} else {
		metas, err = db.runSubcompactionsLocked(all, shards, dropTombstones, lastSeq, alloc)
	}
	defer func() {
		for _, n := range outNums {
			delete(db.pendingOutputs, n)
		}
	}()
	if err != nil {
		// Nothing references the outputs; drop them rather than leaving
		// orphan SSTables for a sweep that may never run (bgErr stops
		// background work).
		for _, n := range outNums {
			if t, ok := db.tables[n]; ok {
				t.close()
				delete(db.tables, n)
			}
			db.fs.Remove(tableFileName(db.dir, n))
		}
		return err
	}
	edit := &versionEdit{}
	for _, f := range inputs {
		edit.Deleted = append(edit.Deleted, deletedFile{Level: level, Num: f.num})
	}
	for _, f := range overlaps {
		edit.Deleted = append(edit.Deleted, deletedFile{Level: outLevel, Num: f.num})
	}
	var totalOut int64
	for _, m := range metas {
		edit.Added = append(edit.Added, addedFileFromMeta(outLevel, m))
		totalOut += m.size
	}
	next := db.vs.nextFileNum
	edit.NextFileNum = &next
	if _, err := db.vs.apply(edit); err != nil {
		return err
	}
	if err := db.vs.logEdit(edit); err != nil {
		return err
	}
	if len(all) > 0 {
		db.vs.compactPointer[level] = append(internalKey(nil), all[0].largest...)
	}
	db.m.compactions.Inc()
	db.m.bytesCompacted.Add(totalOut)
	db.m.compactionDur.ObserveDuration(db.rt.Now() - compactStart)
	db.m.trace.EmitSpan("lsm.compaction",
		fmt.Sprintf("L%d->L%d in=%d out_bytes=%d shards=%d", level, outLevel, len(all), totalOut, max(len(shards), 1)),
		compactStart)
	db.deleteObsoleteLocked()
	db.cond.Broadcast()
	return nil
}

// runSubcompactionsLocked fans the merge out over key-range shards: shard
// 0 runs on the calling worker, the rest on freshly spawned runtime
// tasks, and the output tables are stitched back together in shard order
// (the shards partition the user-key space, so concatenation preserves
// the output level's sort invariant). Called with the lock held; the lock
// is released around the merges. Any shard error fails the whole
// compaction — the caller deletes every allocated output.
func (db *DB) runSubcompactionsLocked(all []*fileMeta, shards []shardRange, dropTombstones bool, lastSeq seqNum, alloc func() uint64) ([]tableMeta, error) {
	metas := make([][]tableMeta, len(shards))
	errs := make([]error, len(shards))
	pending := len(shards) - 1
	db.m.subcompactions.Add(int64(len(shards)))
	for i := 1; i < len(shards); i++ {
		i := i
		db.rt.Go("lsm-subcompact", false, func() {
			metas[i], errs[i] = db.mergeTables(
				filesForShard(all, shards[i]), shards[i], dropTombstones, lastSeq, alloc)
			db.mu.Lock()
			pending--
			db.cond.Broadcast()
			db.mu.Unlock()
		})
	}
	db.mu.Unlock()
	metas[0], errs[0] = db.mergeTables(
		filesForShard(all, shards[0]), shards[0], dropTombstones, lastSeq, alloc)
	db.mu.Lock()
	for pending > 0 {
		db.cond.Wait()
	}
	var out []tableMeta
	for i := range shards {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, metas[i]...)
	}
	return out, nil
}

// mergeTables merge-sorts the input tables into new output tables,
// keeping only the newest entry at or below lastSeq per user key (and
// dropping it too when it is a droppable tombstone). Only user keys
// inside shard are emitted (the zero shardRange is unbounded). Called
// without the lock.
//
// Every error return cleans up after itself: already-opened child
// iterators are closed if table opening fails midway, the in-progress
// output file is closed and deleted, and the merging iterator's own
// close error is propagated rather than swallowed.
func (db *DB) mergeTables(inputs []*fileMeta, shard shardRange, dropTombstones bool, lastSeq seqNum, allocNum func() uint64) (metas []tableMeta, err error) {
	children := make([]internalIterator, 0, len(inputs))
	for _, fm := range inputs {
		t, terr := db.getTable(fm.num)
		if terr != nil {
			for _, c := range children {
				c.Close()
			}
			return nil, terr
		}
		children = append(children, t.iterator())
	}
	merge := newMergingIterator(children)

	// w is the output being built; pendings are sealed outputs whose
	// tail write + fsync may still be in flight (piped builds): the merge
	// keeps encoding the next table while the previous one syncs, and
	// collects results in file order.
	var w *tableWriter
	var pendings []*tableWriter
	defer func() {
		if cerr := merge.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			if w != nil {
				w.abort()
			}
			for _, pw := range pendings {
				pw.abort()
			}
			metas = nil
		}
	}()

	// collectOldest waits for the oldest pending output and appends its
	// metadata.
	collectOldest := func() error {
		pw := pendings[0]
		pendings = pendings[1:]
		meta, werr := pw.wait()
		if werr != nil {
			return werr
		}
		metas = append(metas, meta)
		return nil
	}

	var lastUser []byte
	haveLast := false
	// lastSeqForKey is the sequence of the previous kept entry for the
	// current user key (maxSeq when this is the key's first entry).
	lastSeqForKey := maxSeq
	target := db.targetFileSize()

	finishOutput := func() error {
		if w == nil {
			return nil
		}
		w.seal()
		pendings = append(pendings, w)
		w = nil
		// Let exactly one sealed output's fsync overlap the next table's
		// encoding; beyond that, collect in order (bounds open files and
		// memory; an inline build is already synced when sealed).
		for len(pendings) > 1 {
			if err := collectOldest(); err != nil {
				return err
			}
		}
		return nil
	}

	for merge.SeekToFirst(); merge.Valid(); merge.Next() {
		ik := merge.IKey()
		uk := ik.userKey()
		if shard.upper != nil && bytes.Compare(uk, shard.upper) >= 0 {
			break // inputs are sorted; nothing further belongs to this shard
		}
		if !shard.contains(uk) {
			continue
		}
		if !haveLast || !bytes.Equal(uk, lastUser) {
			lastUser = append(lastUser[:0], uk...)
			haveLast = true
			lastSeqForKey = maxSeq
		}
		drop := false
		if lastSeqForKey <= lastSeq {
			// A newer version of this key is already visible: no new
			// reader can observe this one.
			drop = true
		} else if ik.kind() == kindDelete && dropTombstones && ik.seq() <= lastSeq {
			// Tombstone at the bottom of the tree: nothing is left for it
			// to shadow.
			drop = true
		}
		lastSeqForKey = ik.seq()
		if drop {
			continue
		}
		if w == nil {
			num := allocNum()
			if w, err = newTableWriter(&db.opts, tableFileName(db.dir, num), num, &db.m, iosched.Compaction); err != nil {
				return nil, err
			}
		}
		w.add(ik, merge.Value())
		if w.estimatedSize() >= target {
			if err := finishOutput(); err != nil {
				return nil, err
			}
		}
	}
	if err := finishOutput(); err != nil {
		return nil, err
	}
	for len(pendings) > 0 {
		if err := collectOldest(); err != nil {
			return nil, err
		}
	}
	return metas, nil
}

// compactEverythingLocked repeatedly compacts until all data sits in one
// level. Called with the lock held, manualCompaction set, and no
// background compaction in flight — the caller owns all compaction state,
// so no claims are needed.
func (db *DB) compactEverythingLocked() error {
	for {
		v := db.vs.current
		// Find the shallowest non-empty level; stop when only one level
		// holds data.
		shallowest, populated := -1, 0
		for l := 0; l < numLevels; l++ {
			if len(v.levels[l]) > 0 {
				if shallowest < 0 {
					shallowest = l
				}
				populated++
			}
		}
		if populated <= 1 && (shallowest != 0 || len(v.levels[0]) <= 1) {
			return nil
		}
		if shallowest == numLevels-1 {
			return nil
		}
		inputs := append([]*fileMeta(nil), v.levels[shallowest]...)
		lo, hi := keyRange(inputs)
		overlaps := v.overlapping(shallowest+1, lo, hi)
		if err := db.runCompactionLocked(shallowest, inputs, overlaps); err != nil {
			return err
		}
	}
}
