package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"lsmio/internal/iosched"
	"lsmio/internal/vfs"
)

// soleEntry is one entry of a table as a merge meets it: whether it is
// its block's only entry, and that block's raw length and stored form.
type soleEntry struct {
	ik     internalKey
	value  []byte
	sole   bool
	rawLen int
	stored []byte
}

// tableEntries reads every entry of the table file name.
func tableEntries(t *testing.T, fs vfs.FS, name string) []soleEntry {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(fs)
	r, err := openTable(f, &opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	var out []soleEntry
	idx := r.index.iterator()
	for idx.SeekToFirst(); idx.Valid(); idx.Next() {
		h, err := decodeHandle(idx.Value())
		if err != nil {
			t.Fatal(err)
		}
		raw, _, err := r.readRawBlock(h, new([]byte), new([]byte))
		if err != nil {
			t.Fatal(err)
		}
		stored := make([]byte, h.length+blockTrailerLen)
		if _, err := f.ReadAt(stored, h.offset); err != nil {
			t.Fatal(err)
		}
		b, err := parseBlock(raw)
		if err != nil {
			t.Fatal(err)
		}
		first := len(out)
		it := b.iterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			out = append(out, soleEntry{ik: slices.Clone(it.IKey()), value: slices.Clone(it.Value())})
		}
		if len(out) == first+1 {
			out[first].sole, out[first].rawLen, out[first].stored = true, len(raw), stored
		}
	}
	return out
}

// mergeOf works out, for a CompactAll of the given tables of a store
// that holds no tombstones and no snapshots, the entries the merge keeps,
// the newest of each key, and what becomes of the entries that are alone
// in their blocks: forwarded (the rule of tableWriter.forward, found by
// building the output's blocks with a blockBuilder), encoded again, or
// dropped under a newer version.
func mergeOf(t *testing.T, fs vfs.FS, tables []string, blockSize int) (kept []soleEntry, forwarded, encoded, dropped int) {
	t.Helper()
	var all []soleEntry
	for _, name := range tables {
		all = append(all, tableEntries(t, fs, name)...)
	}
	sort.Slice(all, func(i, j int) bool { return compareIKeys(all[i].ik, all[j].ik) < 0 })
	bb := newBlockBuilder(blockRestartInterval)
	for i, e := range all {
		if i > 0 && bytes.Equal(e.ik.userKey(), all[i-1].ik.userKey()) {
			if e.sole {
				dropped++
			}
			continue
		}
		kept = append(kept, e)
		if e.sole && bb.empty() && e.rawLen >= blockSize {
			forwarded++
			continue
		}
		if e.sole {
			encoded++
		}
		bb.add(e.ik, e.value)
		if bb.estimatedSize() >= blockSize {
			bb.reset()
		}
	}
	return kept, forwarded, encoded, dropped
}

// versionTables lists the table files of db's current version.
func versionTables(db *DB) []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	var names []string
	for _, level := range db.vs.current.levels {
		for _, f := range level {
			names = append(names, tableFileName(db.dir, f.num))
		}
	}
	return names
}

// TestForwardedBlockCorruptionFailsMerge flips one stored byte of a
// snappy block that holds one value, the kind a merge forwards without
// decoding it again. The merge must still fail on the block's checksum,
// with the version as it was and no table file left behind.
func TestForwardedBlockCorruptionFailsMerge(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openTestDB(t, fs, func(o *Options) {
		o.DisableCache = true // the merge reads the block from its file
		o.DisableCompaction = true
	})
	defer db.Close()
	v := bytes.Repeat([]byte("a value that compresses "), 2*db.opts.BlockSize/24)
	for round := 0; round < 2; round++ {
		for i := 0; i < 4; i++ {
			if err := db.Put(fmt.Appendf(nil, "k%d/%d", i, round), v); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before := versionTables(db)
	entries := tableEntries(t, fs, before[0])
	if !entries[1].sole || entries[1].stored[len(entries[1].stored)-blockTrailerLen] != compressionSnappy {
		t.Fatalf("second entry of %s is not alone in a snappy block", before[0])
	}
	// The second block's offset is the first's stored length.
	f, err := fs.Open(before[0])
	if err != nil {
		t.Fatal(err)
	}
	off := int64(len(entries[0].stored)) + 7
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x20
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := db.CompactAll(); !errors.Is(err, ErrCorruption) {
		t.Fatalf("CompactAll = %v, want ErrCorruption", err)
	}
	if after := versionTables(db); !slices.Equal(after, before) {
		t.Fatalf("tables after the failed merge: %v, want %v", after, before)
	}
	if got := listTables(t, fs); len(got) != len(before) {
		t.Fatalf("table files after the failed merge: %v, want those of %v", got, before)
	}
}

// TestEarlierStoreBlocksSurviveMerge merges a copy of the snappy-value
// store of testdata/stores, whose one-value blocks an earlier encoder
// wrote, with a table of today's. Those blocks are forwarded as they were
// stored, and every key still reads back and every checksum holds.
func TestEarlierStoreBlocksSurviveMerge(t *testing.T) {
	st := fixtureStores[1]
	if st.name != "snappy-value" {
		t.Fatalf("fixtureStores[1] is %s", st.name)
	}
	dir := filepath.Join("testdata", "stores", st.name)
	fs := vfs.NewMemFS()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create("db/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	keys, values := fixtureEntries(st.name, st.seed, st.sizes)
	db, err := Open("db", DefaultOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var earlier [][]byte
	for _, e := range tableEntries(t, fs, versionTables(db)[0]) {
		if e.sole && e.rawLen >= db.opts.BlockSize {
			earlier = append(earlier, e.stored)
		}
	}
	if len(earlier) == 0 {
		t.Fatal("the fixture holds no block of one value")
	}
	keys, values = append(keys, "zz"), append(values, []byte("after the fixture's keys"))
	if err := db.Put([]byte("zz"), values[len(values)-1]); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	out := versionTables(db)
	if len(out) != 1 || strings.HasSuffix(out[0], "000004.sst") {
		t.Fatalf("tables after CompactAll: %v, want one new one", out)
	}
	if got := db.Obs().Snapshot().Counters["lsm.compaction.forwarded_blocks"]; got != int64(len(earlier)) {
		t.Fatalf("forwarded_blocks = %d, want the fixture's %d", got, len(earlier))
	}
	merged := readFile(t, fs, out[0])
	for i, stored := range earlier {
		if !bytes.Contains(merged, stored) {
			t.Fatalf("block %d of the fixture is not in the merged table as stored", i)
		}
	}
	for i, k := range keys {
		got, err := db.Get([]byte(k))
		if err != nil || !bytes.Equal(got, values[i]) {
			t.Fatalf("Get(%s) = %d bytes, %v; want %d bytes", k, len(got), err, len(values[i]))
		}
	}
	if err := db.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// addedTable returns the bytes of the table tableWriter.add builds,
// inline, from entries: what a merge that keeps them writes into one
// table when it encodes every block.
func addedTable(t *testing.T, db *DB, entries []soleEntry) []byte {
	t.Helper()
	out := vfs.NewMemFS()
	opts := db.opts
	opts.FS, opts.EncodeWorkers = out, 0
	w, err := newTableWriter(&opts, "added.sst", 1, nil, iosched.Compaction)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		w.add(e.ik, e.value, noSum)
	}
	if _, err := w.finish(); err != nil {
		t.Fatal(err)
	}
	return readFile(t, out, "added.sst")
}

func readFile(t *testing.T, fs vfs.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := vfs.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMergeWritesWhatAddingWrites checks every merge of two programs,
// inline and piped, against addedTable: the merge must write the same
// bytes, forwarded blocks or not. lsm.compaction.forwarded_blocks must
// end at the number of blocks mergeOf finds forwardable. The first
// program ends a table in a small block of one value that another
// table's keys follow, which is not forwarded. The second is the golden
// program's, which must also encode again and drop blocks of one value,
// so that its golden file pins all three outcomes.
func TestMergeWritesWhatAddingWrites(t *testing.T) {
	tail := func(t *testing.T, db *DB, compact func() error) {
		big, small := bytes.Repeat([]byte("big value "), 800), []byte("small")
		for _, table := range [][]string{{"k1", "k3"}, {"k2", "k4", "k5"}} {
			for _, k := range table {
				v := big
				if k == "k3" || k == "k4" {
					v = small
				}
				if err := db.Put([]byte(k), v); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := compact(); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{0, 4} {
		for _, p := range []struct {
			name string
			run  func(*testing.T, *DB, func() error)
		}{{"tail", tail}, {"value", runValueProgram}} {
			t.Run(fmt.Sprintf("%s/workers=%d", p.name, workers), func(t *testing.T) {
				fs := vfs.NewMemFS()
				db := openTestDB(t, fs, func(o *Options) {
					o.EncodeWorkers = workers
					o.DisableCompaction = true
					o.WriteBufferSize = 64 << 20
				})
				defer db.Close()
				var forwarded, encoded, dropped int
				p.run(t, db, func() error {
					kept, f, e, d := mergeOf(t, fs, versionTables(db), db.opts.BlockSize)
					forwarded, encoded, dropped = forwarded+f, encoded+e, dropped+d
					want := addedTable(t, db, kept)
					if err := db.CompactAll(); err != nil {
						return err
					}
					out := versionTables(db)
					if len(out) != 1 || !bytes.Equal(readFile(t, fs, out[0]), want) {
						t.Fatalf("the merge wrote %v, not the table adding its entries writes", out)
					}
					return nil
				})
				got := db.Obs().Snapshot().Counters["lsm.compaction.forwarded_blocks"]
				t.Logf("blocks of one value: %d forwarded, %d encoded again, %d dropped", got, encoded, dropped)
				if got != int64(forwarded) || forwarded == 0 || encoded == 0 ||
					p.name == "value" && dropped == 0 {
					t.Fatalf("forwarded_blocks = %d, want %d (encoded again %d, dropped %d)", got, forwarded, encoded, dropped)
				}
			})
		}
	}
}
