package lsm

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/compaction.sha256 from this build")

// TestCompactionTablesMatchGolden pins what compaction writes. A seeded
// program of puts and overwrites runs with compaction on, on the
// deterministic simulator, and ends in CompactAll; the SHA-256 of every
// table, and of the entries it decodes to, must match
// testdata/compaction.sha256. The program deletes nothing, so no flush is
// mostly tombstones and only the L0 table count schedules merges: the
// file pins the rule that drops shadowed versions, the merge schedule and
// the table format. A deliberate change to any of them is a reviewed diff
// of that file (go test -run Golden -update); one that changes only how
// blocks are encoded, such as the codec's, moves a table's digest and
// leaves its entries' digest as it was.
func TestCompactionTablesMatchGolden(t *testing.T) {
	fs := vfs.NewMemFS()
	k := sim.NewKernel()
	k.Spawn("writer", func(p *sim.Proc) {
		opts := DefaultOptions(fs)
		opts.Runtime = rt.Sim(k)
		opts.WriteBufferSize = 16 << 10
		opts.L0CompactionTrigger = 2
		opts.BaseLevelSize = 48 << 10
		opts.LevelSizeMultiplier = 2
		db, err := Open("db", opts)
		if err != nil {
			t.Error(err)
			return
		}
		rng := rand.New(rand.NewSource(26))
		for i := 0; i < 4000; i++ {
			key := fmt.Sprintf("ckpt/%04d", rng.Intn(600))
			value := []byte(strings.Repeat(fmt.Sprintf("%s@%d;", key, i), 4+rng.Intn(24)))
			if err := db.Put([]byte(key), value); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		if err := db.CompactAll(); err != nil {
			t.Error(err)
		}
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	checkGolden(t, fs, "testdata/compaction.sha256", *updateGolden)
}

// TestValueCompactionTablesMatchGolden pins what a merge writes for values
// of about a block and more, which a snappy store keeps one to a block. A
// seeded program puts compressible values of 1 B to 20 KiB under 200 keys,
// so later puts overwrite earlier ones; it flushes every 100 puts and
// merges everything every fourth flush, so blocks of one value are merged
// again and again, some after a smaller entry began the output's block and
// some shadowed by a newer value. The tables must match
// testdata/compaction-value.sha256 with the table build inline and with
// four encode workers: nothing merges but CompactAll, so neither the
// schedule nor the file numbers depend on timing.
func TestValueCompactionTablesMatchGolden(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fs := vfs.NewMemFS()
			db := openTestDB(t, fs, func(o *Options) {
				o.EncodeWorkers = workers
				o.DisableCompaction = true // only CompactAll merges
				o.WriteBufferSize = 64 << 20
			})
			runValueProgram(t, db, db.CompactAll)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fs, "testdata/compaction-value.sha256", *updateGolden && workers == 0)
		})
	}
}

// runValueProgram is the program of TestValueCompactionTablesMatchGolden,
// with compact standing for each of its merges.
func runValueProgram(t *testing.T, db *DB, compact func() error) {
	t.Helper()
	rng := rand.New(rand.NewSource(50))
	for i := 1; i <= 1500; i++ {
		v := make([]byte, 1+rng.Intn(20<<10))
		for off := 0; off < len(v); off += 128 {
			rng.Read(v[off:min(off+64, len(v))])
			copy(v[min(off+64, len(v)):], v[off:min(off+64, len(v))])
		}
		if err := db.Put(fmt.Appendf(nil, "val/%04d", rng.Intn(200)), v); err != nil {
			t.Fatal(err)
		}
		if i%100 != 0 {
			continue
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if i%400 == 0 || i == 1500 {
			if err := compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkGolden compares the SHA-256 of every table in fs's store "db", and
// of the entries each decodes to, with the golden file, after writing it
// from them when update is set.
func checkGolden(t *testing.T, fs vfs.FS, golden string, update bool) {
	t.Helper()
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var got strings.Builder
	for _, name := range names {
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		f, err := fs.Open("db/" + name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := vfs.ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(data), name)
		fmt.Fprintf(&got, "%x  %s entries\n", entriesDigest(t, fs, "db/"+name), name)
	}
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("compaction wrote different tables:\n got:\n%s want (%s):\n%s", got.String(), golden, want)
	}
}

// entriesDigest is the SHA-256 of the entries a table decodes to, in
// order: each entry's internal key (user key, sequence number and kind)
// and value, each prefixed with its length.
func entriesDigest(t *testing.T, fs vfs.FS, name string) []byte {
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
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	it := r.iterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		for _, b := range [][]byte{it.IKey(), it.Value()} {
			h.Write(n[:binary.PutUvarint(n[:], uint64(len(b)))])
			h.Write(b)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	return h.Sum(nil)
}
