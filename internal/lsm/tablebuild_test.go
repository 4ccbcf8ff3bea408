package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"lsmio/internal/faultfs"
	"lsmio/internal/vfs"
)

// TestTableBuildFailureLeavesNoFile: a flush, a merge with two outputs
// and a repair each build their tables with the one table builder, which
// owns its file. A write that fails at any point of those builds, inline
// or piped, must come back as the operation's error, leave no table file
// behind, and leave a store that reopens with every acknowledged key.
func TestTableBuildFailureLeavesNoFile(t *testing.T) {
	type scenario struct {
		name string
		opts func(*Options)
		// load writes the acknowledged data; run is the operation whose
		// table builds fail; outputs is how many tables it writes.
		load    func(t *testing.T, db *DB) map[string][]byte
		run     func(db *DB, opts Options) error
		outputs int
	}
	put := func(t *testing.T, db *DB, acked map[string][]byte, key string, size int) {
		t.Helper()
		v := bytes.Repeat([]byte{byte(len(acked))}, size)
		if err := db.Put([]byte(key), v); err != nil {
			t.Fatal(err)
		}
		acked[key] = v
	}
	flush := func(t *testing.T, db *DB) {
		t.Helper()
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	scenarios := []scenario{{
		name: "flush",
		load: func(t *testing.T, db *DB) map[string][]byte {
			acked := map[string][]byte{}
			for i := 0; i < 40; i++ {
				put(t, db, acked, fmt.Sprintf("f%03d", i), 300)
			}
			return acked
		},
		run:     func(db *DB, _ Options) error { return db.Flush() },
		outputs: 1,
	}, {
		// Three L0 tables of 64 KiB values merge into one table of the
		// 2 MiB target and a second of the rest; mmap-style coalescing
		// keeps the number of writes, and so of cases, small.
		name: "merge",
		opts: func(o *Options) {
			o.DisableCompression = true
			o.UseMMap = true
		},
		load: func(t *testing.T, db *DB) map[string][]byte {
			acked := map[string][]byte{}
			for i := 0; i < 42; i++ {
				put(t, db, acked, fmt.Sprintf("m%03d", i), 64<<10)
				if i%14 == 13 {
					flush(t, db)
				}
			}
			return acked
		},
		run:     func(db *DB, _ Options) error { return db.CompactAll() },
		outputs: 2,
	}, {
		// The store crashes with a flushed table and more keys in its
		// log, then loses its manifest: the repair salvages the log into
		// a new table.
		name: "repair",
		load: func(t *testing.T, db *DB) map[string][]byte {
			acked := map[string][]byte{}
			for i := 0; i < 60; i++ {
				put(t, db, acked, fmt.Sprintf("r%03d", i), 300)
				if i == 29 {
					flush(t, db)
				}
			}
			return acked
		},
		run: func(db *DB, opts Options) error {
			names, err := opts.FS.List("db")
			if err != nil {
				return err
			}
			for _, n := range names {
				if n == "CURRENT" || strings.HasPrefix(n, "MANIFEST-") {
					opts.FS.Remove("db/" + n)
				}
			}
			_, err = Repair("db", opts)
			return err
		},
		outputs: 1,
	}}

	tables := func(t *testing.T, fs vfs.FS) []string {
		t.Helper()
		var out []string
		for _, n := range mustList(t, fs, "db") {
			if strings.HasSuffix(n, ".sst") {
				out = append(out, n)
			}
		}
		return out
	}

	for _, sc := range scenarios {
		for _, workers := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(t *testing.T) {
				// Fail the nth table write, for every n until the operation
				// writes fewer tables than that and succeeds.
				for n := 1; ; n++ {
					ffs := faultfs.New(vfs.NewMemFS())
					opts := DefaultOptions(ffs)
					opts.EncodeWorkers = workers
					opts.DisableCompaction = true // the merge runs only when asked
					if sc.opts != nil {
						sc.opts(&opts)
					}
					db, err := Open("db", opts)
					if err != nil {
						t.Fatal(err)
					}
					acked := sc.load(t, db)
					before := tables(t, ffs)
					ffs.AddRule(&faultfs.Rule{Op: faultfs.OpWrite, Path: ".sst", Nth: n})
					err = sc.run(db, opts)
					ffs.ClearRules()
					after := tables(t, ffs)
					if ffs.Injected() == 0 {
						if err != nil {
							t.Fatalf("%s without a fault: %v", sc.name, err)
						}
						added := slices.DeleteFunc(after, func(s string) bool { return slices.Contains(before, s) })
						if n == 1 || len(added) != sc.outputs {
							t.Fatalf("%s wrote %d tables in %d writes, want %d", sc.name, len(added), n-1, sc.outputs)
						}
						return
					}
					if !errors.Is(err, faultfs.ErrInjected) {
						t.Fatalf("write %d failed, %s returned %v", n, sc.name, err)
					}
					if !slices.Equal(after, before) {
						t.Fatalf("write %d failed: tables %v, before the %s %v", n, after, sc.name, before)
					}

					// Crash: the failed store is abandoned, not closed.
					if sc.name == "repair" {
						if _, err := Repair("db", opts); err != nil {
							t.Fatalf("repair after failed repair: %v", err)
						}
					}
					db2, err := Open("db", opts)
					if err != nil {
						t.Fatalf("reopen after failed write %d: %v", n, err)
					}
					for k, v := range acked {
						if got, err := db2.Get([]byte(k)); err != nil || !bytes.Equal(got, v) {
							t.Fatalf("%s after failed write %d: %d bytes, %v", k, n, len(got), err)
						}
					}
					if err := db2.Close(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}
