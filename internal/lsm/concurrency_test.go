package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsmio/internal/faultfs"
	"lsmio/internal/obs"
	"lsmio/internal/obs/obstest"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

// Tests for the parallel compaction/flush pipeline: concurrent background
// workers under -race, subcompaction sharding, single-job equivalence,
// write-stall smoothing, and the compaction error paths.

// smallTreeOpts shapes a DB that compacts eagerly so short workloads
// exercise multi-level background work.
func smallTreeOpts(o *Options) {
	o.WriteBufferSize = 8 << 10
	o.L0CompactionTrigger = 2
	o.BaseLevelSize = 16 << 10
	o.LevelSizeMultiplier = 2
	o.DisableCompression = true
	o.BitsPerKey = 0
}

// TestParallelCompactionStress drives parallel writers against
// simultaneous background flushing and a multi-job compaction pool, then
// verifies every acknowledged write. Run under -race (make check) this is
// the data-race gate for the scheduler.
func TestParallelCompactionStress(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), func(o *Options) {
		smallTreeOpts(o)
		o.AsyncFlush = true
		o.MaxBackgroundJobs = 4
	})
	defer db.Close()

	const writers = 8
	const perWriter = 400
	payload := bytes.Repeat([]byte("p"), 120)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%02d-%05d", w, i)
				v := append(append([]byte(nil), payload...), byte(rng.Intn(256)))
				if err := db.Put([]byte(k), v); err != nil {
					errs[w] = fmt.Errorf("put %s: %w", k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitBackground(); err != nil {
		t.Fatal(err)
	}
	if obstest.Counter(t, db.Obs(), "lsm.compaction.count") == 0 {
		t.Fatal("stress workload never compacted; tree shaping too weak")
	}
	// Every last-written value must be readable after the dust settles.
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i += 37 {
			k := fmt.Sprintf("w%02d-%05d", w, i)
			if _, err := db.Get([]byte(k)); err != nil {
				t.Fatalf("get %s after settle: %v", k, err)
			}
		}
	}
	if err := db.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// TestSubcompactionsShardWideMerges proves a wide L0→L1 merge is split
// into key-range shards when the job pool allows, and that the stitched
// result is byte-equal to the single-job merge of the same workload.
func TestSubcompactionsShardWideMerges(t *testing.T) {
	run := func(jobs int) (map[string]string, int64) {
		db := openTestDB(t, vfs.NewMemFS(), func(o *Options) {
			smallTreeOpts(o)
			o.MaxBackgroundJobs = jobs
			o.DisableCompaction = true // build L0 manually, compact once
		})
		defer db.Close()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 900; i++ {
			k := fmt.Sprintf("sc%05d", rng.Intn(400))
			v := fmt.Sprintf("val-%06d", i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			if i%120 == 119 {
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := db.CompactAll(); err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		it, err := db.NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			out[string(it.Key())] = string(it.Value())
		}
		return out, obstest.Counter(t, db.Obs(), "lsm.compaction.subcompactions")
	}

	single, sub1 := run(1)
	multi, sub4 := run(4)
	if sub1 != 0 {
		t.Fatalf("single-job mode ran %d subcompactions; must be the serial path", sub1)
	}
	if sub4 == 0 {
		t.Fatal("4-job CompactAll of a wide L0 never sharded the merge")
	}
	if len(single) != len(multi) {
		t.Fatalf("key count diverged: %d single vs %d multi", len(single), len(multi))
	}
	for k, v := range single {
		if multi[k] != v {
			t.Fatalf("key %s: single %q, multi %q", k, v, multi[k])
		}
	}
}

// TestConcurrentCompactionsDisjoint checks the scheduler actually runs
// multiple compactions and that claims stay disjoint (no version
// corruption — the apply would fail or checksums would break otherwise).
func TestConcurrentCompactionsDisjoint(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), func(o *Options) {
		smallTreeOpts(o)
		o.AsyncFlush = true
		o.MaxBackgroundJobs = 4
	})
	defer db.Close()
	payload := bytes.Repeat([]byte("d"), 200)
	for i := 0; i < 4000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("cc%05d", i%1300)), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitBackground(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1300; i += 13 {
		if _, err := db.Get([]byte(fmt.Sprintf("cc%05d", i))); err != nil {
			t.Fatalf("cc%05d: %v", i, err)
		}
	}
	if err := db.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// delayFS injects a fixed virtual-time cost into every SSTable write when
// used under the simulation kernel, so background flushes take long enough
// for writers to pile into the stall tiers deterministically. WAL writes
// are left fast so the foreground outruns the background.
type delayFS struct {
	vfs.FS
	k *sim.Kernel
	d time.Duration
}

type delayFile struct {
	vfs.File
	fs *delayFS
}

func (d *delayFS) charge() {
	if p := d.k.Current(); p != nil {
		p.Sleep(d.d)
	}
}

func (d *delayFS) Create(name string) (vfs.File, error) {
	f, err := d.FS.Create(name)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(name, ".sst") {
		return &delayFile{File: f, fs: d}, nil
	}
	return f, nil
}

func (f *delayFile) Write(p []byte) (int, error) {
	f.fs.charge()
	return f.File.Write(p)
}

// TestStallEpisodeAccounting pins down the StallWaits fix on the
// deterministic simulator: one stall episode is counted once — not once
// per condvar Broadcast — and its duration lands in StallMicros. Every
// episode ends because at least one flush completed, so episodes can
// never outnumber flushes; the pre-fix per-wakeup counting (flush + +
// compaction signals all broadcast) violates this on the same workload.
func TestStallEpisodeAccounting(t *testing.T) {
	k := sim.NewKernel()
	var reg *obs.Registry
	k.Spawn("writer", func(p *sim.Proc) {
		opts := DefaultOptions(&delayFS{FS: vfs.NewMemFS(), k: k, d: 2 * time.Millisecond})
		opts.Runtime = rt.Sim(k)
		smallTreeOpts(&opts)
		opts.AsyncFlush = true
		opts.MaxImmutableMemtables = 1
		opts.MaxBackgroundJobs = 2
		opts.L0SlowdownTrigger = -1 // isolate the hard-stall tier
		db, err := Open("db", opts)
		if err != nil {
			t.Error(err)
			return
		}
		payload := bytes.Repeat([]byte("s"), 256)
		for i := 0; i < 600; i++ {
			if err := db.Put([]byte(fmt.Sprintf("st%05d", i)), payload); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		if err := db.Flush(); err != nil {
			t.Error(err)
			return
		}
		reg = db.Obs()
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	stalls, flushes := obstest.Counter(t, reg, "lsm.stall.episodes"), obstest.Counter(t, reg, "lsm.flush.count")
	if stalls == 0 {
		t.Fatal("expected write stalls with a 1-deep immutable queue and slow flushes")
	}
	if stalls > flushes {
		t.Fatalf("%d stall episodes > %d flushes: episodes are being multi-counted per wakeup",
			stalls, flushes)
	}
	if obstest.Counter(t, reg, "lsm.stall.micros") == 0 {
		t.Fatal("stall episodes recorded but no stall duration")
	}
}

// slowReadFS charges the simulator perMB of virtual time for every MiB
// read from a table: merges, which read their inputs, are slow, while
// flushes, which only write, take no time.
type slowReadFS struct {
	vfs.FS
	k     *sim.Kernel
	perMB time.Duration
}

type slowReadFile struct {
	vfs.File
	fs *slowReadFS
}

func (s *slowReadFS) Open(name string) (vfs.File, error) {
	f, err := s.FS.Open(name)
	if err != nil || !strings.HasSuffix(name, ".sst") {
		return f, err
	}
	return &slowReadFile{File: f, fs: s}, nil
}

func (f *slowReadFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.k.Compute(time.Duration(int64(f.fs.perMB) * int64(len(p)) >> 20))
	return f.File.ReadAt(p, off)
}

// runPacedProgram writes total bytes as puts of valueSize bytes on the
// deterministic simulator, where the writer and the flushes take no time
// and merges are charged for what they read. With pacing false the L0
// trigger turns the paced tier off. It returns the engine's registry
// after a final flush.
func runPacedProgram(t *testing.T, total, valueSize int, pacing bool) *obs.Registry {
	t.Helper()
	k := sim.NewKernel()
	var reg *obs.Registry
	k.Spawn("writer", func(p *sim.Proc) {
		opts := DefaultOptions(&slowReadFS{FS: vfs.NewMemFS(), k: k, perMB: 40 * time.Millisecond})
		opts.Runtime = rt.Sim(k)
		opts.AsyncFlush = true
		opts.WriteBufferSize = 256 << 10
		opts.BaseLevelSize = 1 << 20
		opts.DisableCompression = true
		opts.BitsPerKey = 0
		if !pacing {
			opts.L0SlowdownTrigger = -1
		}
		db, err := Open("db", opts)
		if err != nil {
			t.Error(err)
			return
		}
		value := bytes.Repeat([]byte("v"), valueSize)
		for i := 0; i < total/valueSize; i++ {
			if err := db.Put([]byte(fmt.Sprintf("pace%07d", i)), value); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		if err := db.Flush(); err != nil {
			t.Error(err)
			return
		}
		reg = db.Obs()
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	return reg
}

// TestSlowdownSmoothing: with merges slower than the writer, the paced
// tier engages ahead of the hard stall, and every wait it meters pays off
// at least minPaceWait of debt.
func TestSlowdownSmoothing(t *testing.T) {
	reg := runPacedProgram(t, 8<<20, 4<<10, true)
	waits, micros := obstest.Counter(t, reg, "lsm.slowdown.count"), obstest.Counter(t, reg, "lsm.slowdown.micros")
	if waits == 0 {
		t.Fatal("paced tier never engaged with merges slower than the writer")
	}
	if least := waits * int64(minPaceWait/time.Microsecond); micros < least {
		t.Fatalf("%d paced waits took %dµs, under %v each", waits, micros, minPaceWait)
	}
}

// TestPacedTimeFollowsBytes: the same bytes written as 4 KiB and as
// 64 KiB puts are paced for about the same time. A per-write delay would
// pace the small puts sixteen times as long. The program is long enough
// (some sixty merges) that where the merges happen to fall evens out.
func TestPacedTimeFollowsBytes(t *testing.T) {
	small := obstest.Counter(t, runPacedProgram(t, 32<<20, 4<<10, true), "lsm.slowdown.micros")
	large := obstest.Counter(t, runPacedProgram(t, 32<<20, 64<<10, true), "lsm.slowdown.micros")
	if small == 0 || large == 0 {
		t.Fatalf("paced %dµs at 4 KiB, %dµs at 64 KiB: pacing never engaged", small, large)
	}
	if ratio := float64(max(small, large)) / float64(min(small, large)); ratio > 1.5 {
		t.Fatalf("paced %dµs at 4 KiB against %dµs at 64 KiB (%.2fx apart, want <= 1.5x)", small, large, ratio)
	}
}

// TestPacingAvoidsHardStalls: the program that pacing spreads out runs
// into the hard stall more often with pacing switched off.
func TestPacingAvoidsHardStalls(t *testing.T) {
	on := obstest.Counter(t, runPacedProgram(t, 8<<20, 4<<10, true), "lsm.stall.episodes")
	off := obstest.Counter(t, runPacedProgram(t, 8<<20, 4<<10, false), "lsm.stall.episodes")
	if off <= on {
		t.Fatalf("%d hard-stall episodes with pacing off, %d with it on: want more off", off, on)
	}
}

// TestSlowdownDisabledForPaperConfig: the checkpoint configuration
// disables compaction, so neither admission-control tier may ever fire —
// the paper-reproduction write path is byte-identical.
func TestSlowdownDisabledForPaperConfig(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := CheckpointOptions(fs)
	opts.WriteBufferSize = 8 << 10
	opts.MaxImmutableMemtables = 1
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	payload := bytes.Repeat([]byte("c"), 512)
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("pc%04d", i)), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	waits, micros := obstest.Counter(t, db.Obs(), "lsm.slowdown.count"), obstest.Counter(t, db.Obs(), "lsm.slowdown.micros")
	if waits != 0 || micros != 0 {
		t.Fatalf("slowdown tier fired (%d waits) with compaction disabled", waits)
	}
	if sub := obstest.Counter(t, db.Obs(), "lsm.compaction.subcompactions"); sub != 0 {
		t.Fatalf("subcompactions ran (%d) with compaction disabled", sub)
	}
}

// TestCompactionCleansPartialOutputsOnError: a mid-merge write failure
// must not leak the open output handle or leave partial SSTables on disk,
// and the close/getTable error paths must release their iterators. After
// the failed compaction, the directory may hold only live tables.
func TestCompactionCleansPartialOutputsOnError(t *testing.T) {
	for _, rule := range []faultfs.Rule{
		// Fail an SSTable write partway through the merge output.
		{Op: faultfs.OpWrite, Path: ".sst", Nth: 3},
		// Fail the creation of a merge output file.
		{Op: faultfs.OpCreate, Path: ".sst", Nth: 1},
	} {
		rule := rule
		t.Run(rule.Op.String(), func(t *testing.T) {
			ffs := faultfs.New(vfs.NewMemFS())
			opts := DefaultOptions(ffs)
			smallTreeOpts(&opts)
			opts.DisableCompaction = true // drive the failing compaction manually
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte("e"), 300)
			for i := 0; i < 300; i++ {
				if err := db.Put([]byte(fmt.Sprintf("ep%04d", i%120)), payload); err != nil {
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
				t.Fatal("compaction with injected table fault should fail")
			}
			ffs.ClearRules()

			// No new .sst may remain: the partial/orphan outputs of the
			// failed merge must have been closed and deleted.
			names, err = ffs.List("db")
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range names {
				if len(n) > 4 && n[len(n)-4:] == ".sst" && !live[n] {
					t.Fatalf("failed compaction leaked output table %s", n)
				}
			}
			db.Close()

			// The tree is untouched: reopen and read everything back.
			opts.FS = ffs
			opts.Runtime = nil
			db2, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			for i := 0; i < 120; i++ {
				if _, err := db2.Get([]byte(fmt.Sprintf("ep%04d", i))); err != nil {
					t.Fatalf("ep%04d after failed compaction: %v", i, err)
				}
			}
		})
	}
}

// TestMemtableReadersDuringWrites: Get and iterators read the memtable
// without the DB lock while a writer inserts under it. The skiplist
// links are atomic for exactly this; under -race (make check) a plain
// link would be reported here.
func TestMemtableReadersDuringWrites(t *testing.T) {
	db := openTestDB(t, vfs.NewMemFS(), func(o *Options) {
		o.WriteBufferSize = 64 << 20 // everything stays in one memtable
	})
	defer db.Close()
	const n = 2000
	key := func(i int) []byte { return []byte(fmt.Sprintf("mr%05d", i)) }
	var written atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for written.Load() < n {
				hi := int(written.Load())
				if hi == 0 {
					continue
				}
				i := (hi - 1) * (r + 1) / 3
				if v, err := db.Get(key(i)); err != nil || !bytes.Equal(v, key(i)) {
					t.Errorf("get %s with %d written: %q, %v", key(i), hi, v, err)
					return
				}
				it, err := db.NewIterator()
				if err != nil {
					t.Error(err)
					return
				}
				seen := 0
				for it.SeekToFirst(); it.Valid(); it.Next() {
					seen++
				}
				if err := it.Close(); err != nil || seen < hi {
					t.Errorf("scan saw %d entries with %d written: %v", seen, hi, err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
		written.Store(int64(i + 1))
	}
	wg.Wait()
}
