package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"testing"
	"time"

	"lsmio/internal/faultfs"
	"lsmio/internal/iosched"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

func readWholeFile(t *testing.T, fs vfs.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return buf
}

func listTables(t *testing.T, fs vfs.FS) []string {
	t.Helper()
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	var ssts []string
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".sst" {
			ssts = append(ssts, n)
		}
	}
	sort.Strings(ssts)
	return ssts
}

// TestPipelinedTableBytesIdentical: the encode pipeline reorders work,
// not bytes. A flush through N encoder workers must produce exactly the
// file the serial writer produces — same block boundaries, same
// compression decisions, same bloom filter, same index and footer. This
// is what lets the pipeline default on without invalidating any
// calibrated figure or on-disk expectation.
func TestPipelinedTableBytesIdentical(t *testing.T) {
	build := func(workers int) vfs.FS {
		fs := vfs.NewMemFS()
		db := openTestDB(t, fs, func(o *Options) {
			o.EncodeWorkers = workers
			o.DisableCompaction = true
		})
		// Mixed workload: compressible values exercise the snappy path,
		// random values the stored-raw fallback, so both sides of the
		// per-block compression decision are covered.
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 400; i++ {
			val := make([]byte, 1024)
			if i%2 == 0 {
				for j := range val {
					val[j] = byte('a' + j%4)
				}
			} else {
				rng.Read(val)
			}
			if err := db.Put([]byte(fmt.Sprintf("pk%05d", i)), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return fs
	}

	serialFS := build(0)
	pipedFS := build(4)

	serialTables := listTables(t, serialFS)
	pipedTables := listTables(t, pipedFS)
	if len(serialTables) == 0 {
		t.Fatal("flush produced no tables")
	}
	if fmt.Sprint(serialTables) != fmt.Sprint(pipedTables) {
		t.Fatalf("table sets differ: serial %v, piped %v", serialTables, pipedTables)
	}
	for _, name := range serialTables {
		a := readWholeFile(t, serialFS, "db/"+name)
		b := readWholeFile(t, pipedFS, "db/"+name)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between serial (%d bytes) and piped (%d bytes) builds", name, len(a), len(b))
		}
	}
}

// referenceTable builds a table image the plain way — every value copied
// into the block builder, a block cut as soon as it reaches BlockSize —
// which is the format a table must have however its bytes were moved.
func referenceTable(opts *Options, keys []internalKey, values [][]byte) (image []byte, dataBlocks int) {
	var file []byte
	data, index := newBlockBuilder(blockRestartInterval), newBlockBuilder(1)
	emit := func(raw []byte) blockHandle {
		enc, n := encodeBlock(rawBlock{buf: append([]byte(nil), raw...)}, false, new([]byte))
		h := blockHandle{offset: int64(len(file)), length: int64(n)}
		file = append(file, enc.buf...)
		return h
	}
	var userKeys [][]byte
	for i, ik := range keys {
		data.add(ik, values[i])
		userKeys = append(userKeys, ik.userKey())
		if data.estimatedSize() >= opts.BlockSize || i == len(keys)-1 {
			index.add(ik, encodeHandle(emit(data.finish())))
			data.reset()
			dataBlocks++
		}
	}
	filter := emit(buildBloom(userKeys, opts.BitsPerKey))
	idx := emit(index.finish())
	var footer [footerLen]byte
	for i, v := range []uint64{uint64(filter.offset), uint64(filter.length), uint64(idx.offset), uint64(idx.length), tableMagic} {
		binary.LittleEndian.PutUint64(footer[8*i:], v)
	}
	return append(file, footer[:]...), dataBlocks
}

// TestLargeValueTableBytesIdentical: a value of at least a block's length
// is written to the table from where it lies instead of through the block
// builder, and when its writer gave its CRC-32C (hinted) the block's
// checksum combines that sum instead of reading it. That may change how
// the bytes travel, never which bytes: every combination of encoder
// workers, mmap-style coalescing, an attached bandwidth scheduler and
// hinted or unhinted entries must produce the reference image, and every
// entry must be reachable by point get, in both scan directions, and
// through an index whose separator is the last key of the block it
// points at.
func TestLargeValueTableBytesIdentical(t *testing.T) {
	base := CheckpointOptions(nil) // blocks stored raw, which is when values bypass the builder
	base.BlockSize = 4 << 10
	bs := base.BlockSize
	var keys []internalKey
	var values [][]byte
	rng := rand.New(rand.NewSource(11))
	add := func(n int) {
		v := make([]byte, n)
		rng.Read(v)
		keys = append(keys, makeIKey([]byte(fmt.Sprintf("lv%04d", len(keys))), seqNum(len(keys)+1), kindValue))
		values = append(values, v)
	}
	for _, n := range []int{1, bs - 1, bs, 3 * bs, 8 << 20} {
		// Each size after small neighbours (so it ends a block others
		// began), then twice in a row (so it has a block to itself).
		add(10)
		add(100)
		add(n)
		add(n)
		add(n)
		add(7)
	}
	want, wantBlocks := referenceTable(&base, keys, values)

	for _, workers := range []int{0, 4} {
		for _, mmap := range []bool{false, true} {
			for _, sched := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d/mmap=%v/iosched=%v", workers, mmap, sched)
				t.Run(name, func(t *testing.T) {
					for _, hinted := range []bool{false, true} {
						t.Run(fmt.Sprintf("hinted=%v", hinted), func(t *testing.T) {
							fs := vfs.NewMemFS()
							opts := base
							opts.FS, opts.EncodeWorkers, opts.UseMMap = fs, workers, mmap
							if sched {
								opts.IOSched = iosched.New(iosched.Config{BytesPerSec: 1 << 40})
							}
							opts = opts.withDefaults()
							w, err := newTableWriter(&opts, "t.sst", 1, nil, iosched.Flush)
							if err != nil {
								t.Fatal(err)
							}
							for i, ik := range keys {
								sum := noSum
								if hinted {
									sum = sumOf(crc32.Checksum(values[i], crcTable))
								}
								w.add(ik, values[i], sum)
							}
							meta, err := w.finish()
							if err != nil {
								t.Fatal(err)
							}
							if meta.entries != len(keys) || meta.size != int64(len(want)) ||
								compareIKeys(meta.smallest, keys[0]) != 0 || compareIKeys(meta.largest, keys[len(keys)-1]) != 0 {
								t.Fatalf("meta %+v does not describe %d entries in %d bytes", meta, len(keys), len(want))
							}
							if got := readWholeFile(t, fs, "t.sst"); !bytes.Equal(got, want) {
								t.Fatalf("table differs from the reference image (%d vs %d bytes)", len(got), len(want))
							}
							if sched {
								granted := opts.IOSched.Obs().Snapshot().Counters["iosched.flush.granted_bytes"]
								if granted != int64(len(want)) {
									t.Errorf("scheduler granted %d bytes for a %d-byte table", granted, len(want))
								}
							}

							f, err := fs.Open("t.sst")
							if err != nil {
								t.Fatal(err)
							}
							tr, err := openTable(f, &opts, 1, nil)
							if err != nil {
								t.Fatal(err)
							}
							for i, ik := range keys {
								v, _, _, found, deleted, err := tr.get(ik.userKey(), maxSeq, false)
								if err != nil || !found || deleted || !bytes.Equal(v, values[i]) {
									t.Fatalf("get %s: %d bytes, found=%v deleted=%v err=%v", ik, len(v), found, deleted, err)
								}
							}
							it := tr.iterator()
							i := 0
							for it.SeekToFirst(); it.Valid(); it.Next() {
								if i >= len(keys) || compareIKeys(it.IKey(), keys[i]) != 0 || !bytes.Equal(it.Value(), values[i]) {
									t.Fatalf("forward scan, entry %d: got %s", i, it.IKey())
								}
								i++
							}
							if i != len(keys) || it.Close() != nil {
								t.Fatalf("forward scan saw %d of %d entries: %v", i, len(keys), it.Close())
							}
							blocks := 0
							for idx := tr.index.iterator(); ; blocks++ {
								if blocks == 0 {
									idx.SeekToFirst()
								} else {
									idx.Next()
								}
								if !idx.Valid() {
									break
								}
								h, err := decodeHandle(idx.Value())
								if err != nil {
									t.Fatal(err)
								}
								b, _, err := tr.readBlock(h, new([]byte))
								if err != nil {
									t.Fatal(err)
								}
								var last internalKey
								bi := b.iterator()
								for bi.SeekToFirst(); bi.Valid(); bi.Next() {
									last = append(last[:0], bi.IKey()...)
								}
								if !last.valid() || compareIKeys(last, idx.IKey()) != 0 {
									t.Fatalf("block %d is indexed under %s but ends at %s", blocks, idx.IKey(), last)
								}
							}
							if blocks != wantBlocks {
								t.Fatalf("index lists %d data blocks, reference has %d", blocks, wantBlocks)
							}
						})
					}
				})
			}
		}
	}
}

// TestPipelinedCompactionStress runs overwrites and deletes through
// background flushes and multi-job compactions with the encode pipeline
// enabled, then verifies every surviving key and all block checksums.
// Under -race (make check) this is the data-race gate for the
// encoder/writer handoff.
func TestPipelinedCompactionStress(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), func(o *Options) {
		o.WriteBufferSize = 16 << 10
		o.L0CompactionTrigger = 2
		o.BaseLevelSize = 32 << 10
		o.LevelSizeMultiplier = 2
		o.EncodeWorkers = 3
		o.MaxBackgroundJobs = 2
		o.AsyncFlush = true
	})
	defer db.Close()

	want := map[string]string{}
	payload := bytes.Repeat([]byte("p"), 256)
	for i := 0; i < 1200; i++ {
		key := fmt.Sprintf("st%04d", i%300)
		if i%17 == 16 {
			if err := db.Delete([]byte(key)); err != nil {
				t.Fatal(err)
			}
			delete(want, key)
			continue
		}
		val := fmt.Sprintf("%s-%05d", payload, i)
		if err := db.Put([]byte(key), []byte(val)); err != nil {
			t.Fatal(err)
		}
		want[key] = val
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for key, val := range want {
		got, err := db.Get([]byte(key))
		if err != nil || string(got) != val {
			t.Fatalf("%s: got %q, %v", key, got, err)
		}
	}
	if err := db.VerifyChecksums(); err != nil {
		t.Fatalf("checksum verification after piped compaction: %v", err)
	}
	if db.m.pipeBlocks.Load() == 0 {
		t.Fatal("pipeline never ran: pipeline.blocks is zero")
	}
}

// TestPipelinedCompactionCleansPartialOutputsOnError re-runs the
// compaction fault-injection gate with the pipeline enabled: a failing
// output write or create must abort the encoder/writer tasks without
// hanging, leak no partial tables, and leave the tree readable.
func TestPipelinedCompactionCleansPartialOutputsOnError(t *testing.T) {
	for _, rule := range []faultfs.Rule{
		{Op: faultfs.OpWrite, Path: ".sst", Nth: 3},
		{Op: faultfs.OpCreate, Path: ".sst", Nth: 1},
	} {
		rule := rule
		t.Run(rule.Op.String(), func(t *testing.T) {
			ffs := faultfs.New(vfs.NewMemFS())
			opts := DefaultOptions(ffs)
			smallTreeOpts(&opts)
			opts.EncodeWorkers = 3
			opts.DisableCompaction = true // drive the failing compaction manually
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte("e"), 300)
			for i := 0; i < 300; i++ {
				if err := db.Put([]byte(fmt.Sprintf("pe%04d", i%120)), payload); err != nil {
					t.Fatal(err)
				}
				if i%60 == 59 {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}

			live := map[string]bool{}
			names, _ := ffs.List("db")
			for _, n := range names {
				live[n] = true
			}
			ffs.AddRule(&rule)
			if err := db.CompactAll(); err == nil {
				t.Fatal("piped compaction with injected table fault should fail")
			}
			ffs.ClearRules()

			names, err = ffs.List("db")
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range names {
				if len(n) > 4 && n[len(n)-4:] == ".sst" && !live[n] {
					t.Fatalf("failed piped compaction leaked output table %s", n)
				}
			}
			db.Close()

			opts.FS = ffs
			opts.Runtime = nil
			db2, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			for i := 0; i < 120; i++ {
				if _, err := db2.Get([]byte(fmt.Sprintf("pe%04d", i))); err != nil {
					t.Fatalf("pe%04d after failed compaction: %v", i, err)
				}
			}
		})
	}
}

// TestPipelinedFlushPropagatesWriteError: a write fault on the flush
// output must surface from Flush (no hang waiting on the writer task)
// and leave no partial table behind.
func TestPipelinedFlushPropagatesWriteError(t *testing.T) {
	ffs := faultfs.New(vfs.NewMemFS())
	db := openTestDB(t, ffs, func(o *Options) {
		o.EncodeWorkers = 2
		o.DisableCompaction = true
	})
	payload := bytes.Repeat([]byte("f"), 512)
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("ff%04d", i)), payload); err != nil {
			t.Fatal(err)
		}
	}
	ffs.AddRule(&faultfs.Rule{Op: faultfs.OpWrite, Path: ".sst", Nth: 2})
	if err := db.Flush(); err == nil {
		t.Fatal("flush with injected .sst write fault should fail")
	}
	ffs.ClearRules()
	names, err := ffs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".sst" {
			t.Fatalf("failed flush leaked partial table %s", n)
		}
	}
}

// TestLargeValueTornWrite: the write of a large value — its own write
// call, between the block's head and tail — fails having persisted only
// part of the value. The flush must fail, remove the partial table and
// leave the manifest alone, and a retry must succeed from the memtable,
// which still owns the bytes.
func TestLargeValueTornWrite(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ffs := faultfs.New(vfs.NewMemFS())
			db := openTestDB(t, ffs, func(o *Options) {
				o.DisableCompression = true
				o.DisableCompaction = true
				o.EncodeWorkers = workers
			})
			defer db.Close()
			big := bytes.Repeat([]byte("torn"), 256<<10)
			if err := db.Put([]byte("a-small"), []byte("s")); err != nil {
				t.Fatal(err)
			}
			if err := db.Put([]byte("b-large"), big); err != nil {
				t.Fatal(err)
			}
			manifest := func() (image []byte) {
				names, _ := ffs.List("db")
				for _, n := range names {
					if len(n) > 9 && n[:9] == "MANIFEST-" {
						image = append(image, readWholeFile(t, ffs, "db/"+n)...)
					}
				}
				return image
			}
			before := manifest()
			// Write 1 is the block's head (the small entry and the large
			// one's header), write 2 the value.
			ffs.AddRule(&faultfs.Rule{Op: faultfs.OpWrite, Path: ".sst", Nth: 2, KeepPrefix: int64(len(big) / 2)})
			if err := db.Flush(); err == nil {
				t.Fatal("flush with a torn value write should fail")
			}
			ffs.ClearRules()
			if tables := listTables(t, ffs); len(tables) != 0 {
				t.Fatalf("failed flush left %v behind", tables)
			}
			if !bytes.Equal(manifest(), before) {
				t.Fatal("failed flush edited the manifest")
			}
			if err := db.Flush(); err != nil {
				t.Fatalf("retry: %v", err)
			}
			if got, err := db.Get([]byte("b-large")); err != nil || !bytes.Equal(got, big) {
				t.Fatalf("after retry: %d bytes, %v", len(got), err)
			}
			if err := db.VerifyChecksums(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPipelineSimSpeedup is the deterministic performance guard: on the
// simulator, with a modeled encode cost, four encoder workers must beat
// the serial builder by a wide margin on the same flush. This is the
// same mechanism the ext-pipeline figure measures, reduced to a unit
// test that runs in milliseconds of wall time.
func TestPipelineSimSpeedup(t *testing.T) {
	run := func(workers int) time.Duration {
		k := sim.NewKernel()
		var dur time.Duration
		k.Spawn("flush", func(p *sim.Proc) {
			opts := DefaultOptions(vfs.NewMemFS())
			opts.Runtime = rt.Sim(k)
			opts.EncodeWorkers = workers
			opts.EncodeCostPerMB = 8 * time.Millisecond
			opts.DisableWAL = true
			opts.DisableCompaction = true
			opts.WriteBufferSize = 64 << 20
			db, err := Open("db", opts)
			if err != nil {
				t.Error(err)
				return
			}
			payload := bytes.Repeat([]byte("x"), 4096)
			for i := 0; i < 1024; i++ {
				if err := db.Put([]byte(fmt.Sprintf("sim%05d", i)), payload); err != nil {
					t.Error(err)
					return
				}
			}
			start := opts.Runtime.Now()
			if err := db.Flush(); err != nil {
				t.Error(err)
				return
			}
			dur = opts.Runtime.Now() - start
			if err := db.Close(); err != nil {
				t.Error(err)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return dur
	}

	serial := run(0)
	piped := run(4)
	if t.Failed() {
		return
	}
	if serial == 0 || piped == 0 {
		t.Fatalf("flush durations not captured (serial %v, piped %v)", serial, piped)
	}
	if piped*2 >= serial {
		t.Fatalf("4 encode workers give no speedup: serial flush %v, piped %v", serial, piped)
	}
}
