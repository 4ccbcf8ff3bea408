package lsm

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lsmio/internal/vfs"
)

var writeStores = flag.Bool("write-stores", false, "rewrite testdata/stores from this build")

// fixtureStores are the stores under testdata/stores. Their tables were
// written by the snappy encoder with a fixed 16 K-entry hash table that
// looked up every position, whose bytes differ from today's encoder's on
// value-sized blocks: they stand for the tables of existing deployments,
// which every later build must still read. Rewriting them (-write-stores)
// replaces those bytes with the current encoder's, so do it only when the
// table format itself changes.
var fixtureStores = []struct {
	name string
	seed int64
	raw  bool // blocks stored uncompressed
	// sizes returns the value sizes, one entry per key.
	sizes func(rng *rand.Rand) []int
}{
	// Small values share 4 KiB snappy blocks.
	{name: "snappy-4k", seed: 1, sizes: func(rng *rand.Rand) []int {
		s := make([]int, 120)
		for i := range s {
			s[i] = 50 + rng.Intn(500)
		}
		return s
	}},
	// A value of at least a block is a snappy block of its own size.
	{name: "snappy-value", seed: 2, sizes: func(*rand.Rand) []int {
		return []int{4 << 10, 9000, 16 << 10, 33 << 10, 64 << 10}
	}},
	// Raw blocks: small values, and values of at least a block, which go
	// to the file past the block builder.
	{name: "raw", seed: 3, raw: true, sizes: func(rng *rand.Rand) []int {
		s := make([]int, 80, 82)
		for i := range s {
			s[i] = 50 + rng.Intn(300)
		}
		return append(s, 5<<10, 12<<10)
	}},
}

// fixtureEntries returns a fixture store's keys and values: every 64
// random bytes of a value are followed by their copy, as in the
// benchmark's compressible payload.
func fixtureEntries(name string, seed int64, sizes func(*rand.Rand) []int) (keys []string, values [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	for i, n := range sizes(rng) {
		v := make([]byte, n)
		for off := 0; off < n; off += 128 {
			rng.Read(v[off:min(off+64, n)])
			copy(v[min(off+64, n):], v[off:min(off+64, n)])
		}
		keys = append(keys, fmt.Sprintf("%s/%04d", name, i))
		values = append(values, v)
	}
	return keys, values
}

// TestEarlierStoresStillRead opens each store under testdata/stores, reads
// back every key against the generator, checks that a scan finds no other
// key, and verifies every block's checksum. The block types are counted
// too, so a store that stopped holding what its name says fails.
func TestEarlierStoresStillRead(t *testing.T) {
	for _, st := range fixtureStores {
		t.Run(st.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "stores", st.name)
			keys, values := fixtureEntries(st.name, st.seed, st.sizes)
			if *writeStores {
				writeFixtureStore(t, dir, st.raw, keys, values)
			}
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
			db, err := Open("db", DefaultOptions(fs))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for i, k := range keys {
				got, err := db.Get([]byte(k))
				if err != nil || !bytes.Equal(got, values[i]) {
					t.Fatalf("Get(%s) = %d bytes, %v; want %d bytes", k, len(got), err, len(values[i]))
				}
			}
			it, err := db.NewIterator()
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				n++
			}
			if err := it.Close(); err != nil || n != len(keys) {
				t.Fatalf("scan found %d keys, %v; want %d", n, err, len(keys))
			}
			if err := db.VerifyChecksums(); err != nil {
				t.Fatal(err)
			}
			types := dataBlockTypes(t, fs, "db")
			if st.raw && (types[compressionNone] == 0 || types[compressionSnappy] != 0) ||
				!st.raw && types[compressionSnappy] == 0 {
				t.Fatalf("data blocks by type: %v", types)
			}
		})
	}
}

// dataBlockTypes counts the data blocks of every table in dir by the
// block type in their trailers.
func dataBlockTypes(t *testing.T, fs vfs.FS, dir string) map[byte]int {
	t.Helper()
	names, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	types := map[byte]int{}
	opts := DefaultOptions(fs)
	for _, name := range names {
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		f, err := fs.Open(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := openTable(f, &opts, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		idx := r.index.iterator()
		for idx.SeekToFirst(); idx.Valid(); idx.Next() {
			h, err := decodeHandle(idx.Value())
			if err != nil {
				t.Fatal(err)
			}
			var typ [1]byte
			if _, err := f.ReadAt(typ[:], h.offset+h.length); err != nil {
				t.Fatal(err)
			}
			types[typ[0]]++
		}
		r.close()
	}
	return types
}

// writeFixtureStore writes keys and values to a new store, flushes it to
// tables and copies its files to dir.
func writeFixtureStore(t *testing.T, dir string, raw bool, keys []string, values [][]byte) {
	t.Helper()
	fs := vfs.NewMemFS()
	opts := DefaultOptions(fs)
	opts.DisableCompression = raw
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := db.Put([]byte(k), values[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		f, err := fs.Open("db/" + name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := vfs.ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
