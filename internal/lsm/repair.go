package lsm

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"lsmio/internal/vfs"
)

// Repair rebuilds a database whose manifest or CURRENT file was lost or
// corrupted, from the surviving table and log files — the recovery path a
// checkpoint store needs after partial damage to its metadata.
//
// Every readable .sst file is scanned (checksums verified) and re-added
// at level 0, ordered so that higher file numbers (newer data) shadow
// lower ones; the intact prefix of every log is replayed into one more
// table, the newest. Unreadable files and torn logs are reported in the
// summary. A new manifest listing the tables then replaces the old ones,
// and only after CURRENT names it are the old manifests and the logs
// removed; the database then opens normally.
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
	vs := newVersionSet(fs, dir)
	var tables []tableMeta
	var logs []uint64
	var maxSeq seqNum
	for _, name := range names {
		kind, num := parseFileName(name)
		if kind == fileOther {
			continue
		}
		vs.nextFileNum = max(vs.nextFileNum, num+1)
		switch kind {
		case fileTable:
			meta, tableMaxSeq, err := inspectTable(fs, dir, num, &o)
			if err != nil {
				sum.TablesSkipped++
				sum.Problems = append(sum.Problems, fmt.Sprintf("%s: %v", name, err))
				continue
			}
			sum.TablesRecovered++
			sum.EntriesRecovered += meta.entries
			tables = append(tables, meta)
			maxSeq = max(maxSeq, tableMaxSeq)
		case fileLog:
			logs = append(logs, num)
		}
	}

	slices.Sort(logs)
	mem := newMemtable()
	for _, num := range logs {
		records, last, err := replayLog(fs, dir, num, mem)
		sum.LogRecordsRecovered += records
		maxSeq = max(maxSeq, last)
		if err != nil {
			sum.Problems = append(sum.Problems, fmt.Sprintf("%s: %v", logFileName(dir, num), err))
		}
	}
	if !mem.empty() {
		meta, err := buildTable(&o, dir, mem, vs.newFileNum(), nil)
		if err != nil {
			return sum, err
		}
		tables = append(tables, meta)
		sum.TablesRecovered++
	}

	// LastSeq is the highest recovered sequence, so reads see the newest
	// versions (tombstones included) and new writes shadow everything
	// salvaged. Every log is in a table now: LogNum retires them all.
	last := uint64(maxSeq)
	logNum := vs.nextFileNum
	edit := &versionEdit{LastSeq: &last, LogNum: &logNum}
	// L0 lists newest first and apply prepends: add in file-number order.
	slices.SortFunc(tables, func(a, b tableMeta) int { return cmp.Compare(a.fileNum, b.fileNum) })
	for _, t := range tables {
		edit.Added = append(edit.Added, addedFileFromMeta(0, t))
	}
	if _, err := vs.apply(edit); err != nil {
		return sum, err
	}
	if err := vs.writeManifest(vs.newFileNum(), vs.snapshotEdit()); err != nil {
		vs.close()
		return sum, err
	}
	if err := vs.close(); err != nil {
		return sum, err
	}
	// The new manifest's number is past every name listed.
	for _, name := range names {
		if kind, _ := parseFileName(name); kind == fileLog || kind == fileManifest {
			fs.Remove(dir + "/" + name)
		}
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
			if err == nil {
				_, _, err = scanTable(t)
			}
			if err != nil {
				return fmt.Errorf("lsm: L%d table %06d: %w", level, fm.num, err)
			}
		}
	}
	return nil
}

// inspectTable opens table num of dir and scans it (scanTable).
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
	return scanTable(t)
}

// scanTable reads every entry of t, which checks every block's checksum,
// and checks the keys' order. It returns the table's metadata and the
// highest sequence number it holds; an empty table is an error.
func scanTable(t *tableReader) (meta tableMeta, maxSeq seqNum, err error) {
	meta = tableMeta{fileNum: t.fileNum, size: t.size}
	it := t.iterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		ik := it.IKey()
		if meta.entries == 0 {
			meta.smallest = append(internalKey(nil), ik...)
		} else if compareIKeys(meta.largest, ik) >= 0 {
			return tableMeta{}, 0, errors.New("keys out of order")
		}
		meta.largest = append(meta.largest[:0], ik...)
		maxSeq = max(maxSeq, ik.seq())
		meta.entries++
	}
	if err := it.Close(); err != nil {
		return tableMeta{}, 0, err
	}
	if meta.entries == 0 {
		return tableMeta{}, 0, errors.New("empty table")
	}
	return meta, maxSeq, nil
}

// replayLog adds the intact prefix of log num to mem: every record up to
// the first that is torn, fails its checksum or does not decode. It
// returns how many records it added, the highest sequence number among
// their entries, and the error that stopped it: nil at the log's end or
// at a torn tail, as a crash leaves it, and for a log that does not exist.
// Open fails on that error; Repair keeps the prefix.
func replayLog(fs vfs.FS, dir string, num uint64, mem *memtable) (records int, last seqNum, err error) {
	f, err := fs.Open(logFileName(dir, num))
	if errors.Is(err, vfs.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r, err := newWALReader(f)
	if err != nil {
		return 0, 0, err
	}
	for ; ; records++ {
		rec, err := r.next()
		if err == io.EOF {
			return records, last, nil
		}
		if err != nil {
			return records, last, err
		}
		b, err := decodeBatch(rec)
		if err != nil {
			return records, last, err
		}
		err = b.forEach(func(seq seqNum, kind keyKind, key, value []byte, _ valueSum) error {
			// rec is this record's own buffer; the memtable keeps it. A
			// logged value carries no sum: its flush checksums it.
			mem.add(seq, kind, key, value, noSum)
			last = max(last, seq)
			return nil
		})
		if err != nil {
			return records, last, err
		}
	}
}
