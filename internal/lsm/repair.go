package lsm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"lsmio/internal/iosched"
	"lsmio/internal/vfs"
)

// Repair rebuilds a database whose manifest or CURRENT file was lost or
// corrupted, from the surviving table and log files — the recovery path a
// checkpoint store needs after partial damage to its metadata.
//
// Every readable .sst file is scanned (checksums verified) and re-added
// at level 0, ordered so that higher file numbers (newer data) shadow
// lower ones; salvageable WAL records are replayed into a fresh table.
// Unreadable files are skipped and reported in the summary. On success a
// new MANIFEST and CURRENT are written and the database opens normally.
func Repair(dir string, opts Options) (RepairSummary, error) {
	o := opts.withDefaults()
	if err := o.check(); err != nil {
		return RepairSummary{}, err
	}
	fs := o.FS
	dir = strings.TrimSuffix(dir, "/")
	var sum RepairSummary

	names, err := fs.List(dir)
	if err != nil {
		return sum, fmt.Errorf("lsm: repair: %w", err)
	}

	// Drop old metadata: it is what we are rebuilding.
	for _, name := range names {
		if name == "CURRENT" || strings.HasPrefix(name, "MANIFEST-") {
			fs.Remove(dir + "/" + name)
		}
	}

	type salvaged struct {
		meta   tableMeta
		maxSeq seqNum
	}
	var tables []salvaged
	var logs []uint64
	maxFileNum := uint64(1)

	for _, name := range names {
		switch {
		case strings.HasSuffix(name, ".sst"):
			num, err := strconv.ParseUint(strings.TrimSuffix(name, ".sst"), 10, 64)
			if err != nil {
				continue
			}
			if num > maxFileNum {
				maxFileNum = num
			}
			meta, tableMaxSeq, err := inspectTable(fs, dir, num, &o)
			if err != nil {
				sum.TablesSkipped++
				sum.Problems = append(sum.Problems, fmt.Sprintf("%s: %v", name, err))
				continue
			}
			sum.TablesRecovered++
			sum.EntriesRecovered += meta.entries
			tables = append(tables, salvaged{meta: meta, maxSeq: tableMaxSeq})
		case strings.HasSuffix(name, ".log"):
			num, err := strconv.ParseUint(strings.TrimSuffix(name, ".log"), 10, 64)
			if err != nil {
				continue
			}
			if num > maxFileNum {
				maxFileNum = num
			}
			logs = append(logs, num)
		}
	}

	// Replay salvageable WAL records into a memtable, newest log last.
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })
	mem := newMemtable()
	maxSeqSeen := seqNum(0)
	for _, num := range logs {
		records, lastSeq := salvageLog(fs, dir, num, mem)
		sum.LogRecordsRecovered += records
		if lastSeq > maxSeqSeen {
			maxSeqSeen = lastSeq
		}
	}

	// The database's sequence must exceed every recovered entry's, so
	// reads see the newest versions (tombstones included) and new writes
	// shadow everything salvaged.
	for _, t := range tables {
		if t.maxSeq > maxSeqSeen {
			maxSeqSeen = t.maxSeq
		}
	}

	vs := newVersionSet(fs, dir)
	vs.nextFileNum = maxFileNum + 1

	// The WAL salvage becomes one more L0 table (the newest).
	if !mem.empty() {
		num := vs.newFileNum()
		w, err := newTableWriter(&o, tableFileName(dir, num), num, nil, iosched.Flush)
		if err != nil {
			return sum, err
		}
		it := mem.iterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			w.add(it.IKey(), it.Value(), noSum)
		}
		meta, err := w.finish()
		if err != nil {
			return sum, err
		}
		tables = append(tables, salvaged{meta: meta})
		sum.TablesRecovered++
	}

	// Rebuild the manifest: tables at L0, higher file numbers first
	// (newer data shadows older under L0's newest-first semantics).
	sort.Slice(tables, func(i, j int) bool {
		return tables[i].meta.fileNum < tables[j].meta.fileNum
	})
	if err := vs.createNew(); err != nil {
		return sum, err
	}
	next := vs.nextFileNum
	last := uint64(maxSeqSeen)
	logNum := vs.logNum
	edit := &versionEdit{NextFileNum: &next, LastSeq: &last, LogNum: &logNum}
	for _, t := range tables {
		edit.Added = append(edit.Added, addedFileFromMeta(0, t.meta))
	}
	if _, err := vs.apply(edit); err != nil {
		return sum, err
	}
	if err := vs.logEdit(edit); err != nil {
		return sum, err
	}
	if err := vs.close(); err != nil {
		return sum, err
	}
	// Old logs are now fully represented by tables.
	for _, num := range logs {
		fs.Remove(logFileName(dir, num))
	}
	return sum, nil
}

// RepairSummary reports what Repair salvaged.
type RepairSummary struct {
	TablesRecovered     int
	TablesSkipped       int
	EntriesRecovered    int
	LogRecordsRecovered int
	Problems            []string
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

// inspectTable fully scans one table, verifying checksums, and returns
// its metadata plus the highest sequence number it holds.
func inspectTable(fs vfs.FS, dir string, num uint64, opts *Options) (tableMeta, seqNum, error) {
	f, err := fs.Open(tableFileName(dir, num))
	if err != nil {
		return tableMeta{}, 0, err
	}
	defer f.Close()
	t, err := openTable(f, opts, num, nil)
	if err != nil {
		return tableMeta{}, 0, err
	}
	meta := tableMeta{fileNum: num}
	meta.size, _ = f.Size()
	var tableMaxSeq seqNum
	it := t.iterator()
	var prev internalKey
	for it.SeekToFirst(); it.Valid(); it.Next() {
		ik := it.IKey()
		if prev.valid() && compareIKeys(prev, ik) >= 0 {
			return tableMeta{}, 0, fmt.Errorf("keys out of order")
		}
		if !meta.smallest.valid() {
			meta.smallest = append(internalKey(nil), ik...)
		}
		meta.largest = append(meta.largest[:0], ik...)
		prev = append(prev[:0], ik...)
		if ik.seq() > tableMaxSeq {
			tableMaxSeq = ik.seq()
		}
		meta.entries++
	}
	if err := it.Close(); err != nil {
		return tableMeta{}, 0, err
	}
	if meta.entries == 0 {
		return tableMeta{}, 0, fmt.Errorf("no entries")
	}
	meta.largest = append(internalKey(nil), meta.largest...)
	return meta, tableMaxSeq, nil
}

// salvageLog replays the intact prefix of a WAL file into mem: every
// record up to the first one that is torn, fails its checksum or does
// not decode. It returns how many records it replayed and the sequence
// number just past the last entry they hold.
func salvageLog(fs vfs.FS, dir string, num uint64, mem *memtable) (records int, lastSeq seqNum) {
	f, err := fs.Open(logFileName(dir, num))
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	r, err := newWALReader(f)
	if err != nil {
		return 0, 0
	}
	for {
		rec, err := r.next()
		if err != nil {
			return records, lastSeq // EOF or torn tail: keep what we have
		}
		b, err := decodeBatch(rec)
		if err != nil {
			return records, lastSeq
		}
		err = b.forEach(func(seq seqNum, kind keyKind, key, value []byte, _ valueSum) error {
			mem.add(seq, kind, key, value, noSum)
			return nil
		})
		if err != nil {
			return records, lastSeq
		}
		records++
		if end := b.seq() + seqNum(b.Count()); end > lastSeq {
			lastSeq = end
		}
	}
}
