package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"lsmio/internal/obs/obstest"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

func testConfig(nodes int) Config {
	cfg := VikingConfig(nodes)
	return cfg
}

// runOnCluster executes body as a single simulation process on node 0.
func runOnCluster(t *testing.T, cfg Config, body func(c *Cluster, fs *ClientFS)) *Cluster {
	t.Helper()
	k := sim.NewKernel()
	c := NewCluster(k, cfg)
	k.Spawn("client", func(p *sim.Proc) {
		body(c, c.Client(0))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStripeRunsCoverRangeExactly(t *testing.T) {
	fn := func(offRaw, nRaw uint32, count8 uint8, sizeShift uint8) bool {
		stripeCount := int(count8%8) + 1
		stripeSize := int64(1) << (10 + sizeShift%8) // 1K .. 128K
		l := &layout{id: 1, stripeSize: stripeSize, stripeCount: stripeCount,
			osts: make([]int, stripeCount)}
		for i := range l.osts {
			l.osts[i] = i * 3 % 45
		}
		off := int64(offRaw % (1 << 24))
		n := int64(nRaw%(1<<22)) + 1
		runs := l.stripeRuns(off, n)
		var total int64
		for _, r := range runs {
			if r.n <= 0 {
				return false
			}
			total += r.n
		}
		return total == n
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStripeRunsMapping(t *testing.T) {
	l := &layout{id: 1, stripeSize: 64, stripeCount: 4, osts: []int{10, 11, 12, 13}}
	// Write [0, 256): chunks 0..3 land on OSTs 10..13, one 64-byte run each
	// at object offset 0.
	runs := l.stripeRuns(0, 256)
	if len(runs) != 4 {
		t.Fatalf("runs = %+v", runs)
	}
	for i, r := range runs {
		if r.ostIdx != 10+i || r.objOff != 0 || r.n != 64 {
			t.Fatalf("run %d = %+v", i, r)
		}
	}
	// Write [256, 512): same OSTs, object offset 64 (second stripe round).
	runs = l.stripeRuns(256, 256)
	for i, r := range runs {
		if r.ostIdx != 10+i || r.objOff != 64 {
			t.Fatalf("second round run %d = %+v", i, r)
		}
	}
	// A large write coalesces per-OST: [0, 512) gives 4 runs of 128 bytes.
	runs = l.stripeRuns(0, 512)
	if len(runs) != 4 {
		t.Fatalf("coalesced runs = %+v", runs)
	}
	for _, r := range runs {
		if r.n != 128 {
			t.Fatalf("coalesced run = %+v", r)
		}
	}
	// Unaligned tail.
	runs = l.stripeRuns(60, 10)
	if len(runs) != 2 || runs[0].n != 4 || runs[1].n != 6 {
		t.Fatalf("unaligned runs = %+v", runs)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
		f, err := fs.Create("dir/data.bin")
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 3<<20)
		rand.New(rand.NewSource(1)).Read(payload)
		if _, err := f.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()

		g, err := fs.Open("dir/data.bin")
		if err != nil {
			t.Fatal(err)
		}
		got, err := vfs.ReadAll(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("data corrupted through the PFS")
		}
		g.Close()
	})
}

func TestWritesAreAsyncUntilBarrier(t *testing.T) {
	var afterWrite, afterBarrier sim.Time
	runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
		f, _ := fs.Create("f")
		f.Write(make([]byte, 8<<20))
		afterWrite = c.Kernel().Now()
		fs.Barrier()
		afterBarrier = c.Kernel().Now()
		f.Close()
	})
	if afterBarrier <= afterWrite {
		t.Fatalf("barrier did not wait: write=%v barrier=%v", afterWrite, afterBarrier)
	}
	// 8 MB over 4 OSTs at 500 MB/s is ~4 ms of device time; the client-side
	// path alone is ~16 ms (stream bw) so the barrier wait is the seek tail.
	if afterBarrier.Sub(afterWrite) > 100*time.Millisecond {
		t.Fatalf("barrier wait implausibly long: %v", afterBarrier.Sub(afterWrite))
	}
}

func TestSingleWriterNoLockSwitches(t *testing.T) {
	c := runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
		f, _ := fs.Create("solo")
		buf := make([]byte, 1<<20)
		for i := 0; i < 32; i++ {
			f.Write(buf)
		}
		fs.Barrier()
		f.Close()
	})
	if n := obstest.Counter(t, c.Obs(), "pfs.lock_switches"); n != 0 {
		t.Fatalf("single writer caused %d lock switches", n)
	}
}

func TestSharedFileInterleavingCausesLockSwitches(t *testing.T) {
	k := sim.NewKernel()
	cfg := testConfig(2)
	cfg.DefaultStripeCount = 1 // both ranks hit the same OST object
	c := NewCluster(k, cfg)
	var created vfs.File
	k.Spawn("creator", func(p *sim.Proc) {
		f, err := c.Client(0).Create("shared")
		if err != nil {
			t.Error(err)
			return
		}
		created = f
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	created.Close()
	for rank := 0; rank < 2; rank++ {
		rank := rank
		k.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
			fs := c.Client(rank)
			f, err := fs.Open("shared")
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 64<<10)
			for i := 0; i < 50; i++ {
				// Interleaved segmented layout: rank r writes segment i
				// slot r.
				off := int64(i*2+rank) * int64(len(buf))
				f.WriteAt(buf, off)
				p.Sleep(time.Millisecond) // keep ranks interleaving
			}
			fs.Barrier()
			f.Close()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n := obstest.Counter(t, c.Obs(), "pfs.lock_switches"); n < 50 {
		t.Fatalf("interleaved shared-file writers caused only %d lock switches", n)
	}
}

func TestLayoutRoundRobinAllocation(t *testing.T) {
	runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
		f1, _ := fs.CreateStriped("a", 4, 1<<20)
		f2, _ := fs.CreateStriped("b", 4, 1<<20)
		f1.Close()
		f2.Close()
		_, _, osts1, err := c.DescribeLayout("a")
		if err != nil {
			t.Fatal(err)
		}
		_, _, osts2, err := c.DescribeLayout("b")
		if err != nil {
			t.Fatal(err)
		}
		if osts1[0] == osts2[0] {
			t.Fatalf("consecutive files start on the same OST: %v %v", osts1, osts2)
		}
		count, size, _, _ := c.DescribeLayout("a")
		if count != 4 || size != 1<<20 {
			t.Fatalf("layout = %d/%d", count, size)
		}
	})
}

func TestSharedFileKeepsCreatorLayout(t *testing.T) {
	runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
		f, _ := fs.CreateStriped("shared", 7, 64<<10)
		f.Close()
		g, err := fs.Open("shared")
		if err != nil {
			t.Fatal(err)
		}
		g.Close()
		count, size, _, _ := c.DescribeLayout("shared")
		if count != 7 || size != 64<<10 {
			t.Fatalf("layout = %d/%d", count, size)
		}
	})
}

func TestSequentialSmallWritesCoalesce(t *testing.T) {
	// Contiguous 64 KB writes on one handle merge into large RPCs in the
	// client write-back cache, so they cost about the same as 8 MB writes
	// (Lustre dirty-page behaviour).
	elapsed := func(opSize int) time.Duration {
		var d time.Duration
		runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
			f, _ := fs.Create("f")
			buf := make([]byte, opSize)
			total := 64 << 20
			for written := 0; written < total; written += opSize {
				f.Write(buf)
			}
			fs.Barrier()
			f.Close()
			d = c.Kernel().Now().Duration()
		})
		return d
	}
	small, large := elapsed(64<<10), elapsed(8<<20)
	if small > large*3/2 {
		t.Fatalf("sequential 64K ops (%v) should coalesce to ~8M-op cost (%v)", small, large)
	}
}

func TestScatteredSmallWritesAreSlow(t *testing.T) {
	// Non-contiguous 64 KB writes cannot coalesce: each one becomes its
	// own RPC and seeks on the OST — the access pattern the LSM-tree
	// exists to avoid.
	elapsed := func(strided bool) time.Duration {
		var d time.Duration
		runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
			f, _ := fs.Create("f")
			const op = 64 << 10
			const count = 256
			buf := make([]byte, op)
			for i := 0; i < count; i++ {
				off := int64(i) * op
				if strided {
					// Permuted 4 MB-spaced offsets: far outside the
					// OST's reorder window, so every RPC seeks.
					off = int64((i*67)%count) * (4 << 20)
				}
				f.WriteAt(buf, off)
			}
			fs.Barrier()
			f.Close()
			d = c.Kernel().Now().Duration()
		})
		return d
	}
	seq, scattered := elapsed(false), elapsed(true)
	if scattered < 3*seq {
		t.Fatalf("scattered writes (%v) should be far slower than sequential (%v)", scattered, seq)
	}
}

func TestReadsQueueBehindWrites(t *testing.T) {
	runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
		f, _ := fs.Create("f")
		f.Write(make([]byte, 32<<20))
		// Immediately read: must wait for the outstanding writes on the
		// same OSTs to drain first.
		before := c.Kernel().Now()
		buf := make([]byte, 1<<20)
		f.ReadAt(buf, 0)
		readTime := c.Kernel().Now().Sub(before)
		f.Close()
		// A pure 1 MB read is ~2-5 ms; queued behind ~64 MB-equivalent of
		// device work it must take visibly longer than an uncontended read.
		if readTime < 3*time.Millisecond {
			t.Fatalf("read did not queue behind writes: %v", readTime)
		}
	})
}

func TestMetadataOpsAreCharged(t *testing.T) {
	c := runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
		f, _ := fs.Create("a")
		f.Close()
		fs.Stat("a")
		fs.List(".")
		fs.Rename("a", "b")
		fs.Remove("b")
	})
	if n := obstest.Counter(t, c.Obs(), "pfs.metadata_ops"); n < 5 {
		t.Fatalf("metadata ops = %d", n)
	}
	if c.Kernel().Now() == 0 {
		t.Fatal("metadata ops charged no time")
	}
}

func TestDirtyLagBackpressure(t *testing.T) {
	cfg := testConfig(1)
	cfg.MaxDirtyLag = time.Millisecond // tiny window forces stalls
	c := runOnCluster(t, cfg, func(c *Cluster, fs *ClientFS) {
		f, _ := fs.Create("f")
		for i := 0; i < 16; i++ {
			f.Write(make([]byte, 4<<20))
		}
		fs.Barrier()
		f.Close()
	})
	if obstest.Counter(t, c.Obs(), "pfs.client_stalls") == 0 {
		t.Fatal("expected client stalls with a tiny dirty window")
	}
}

func TestMkdirAllAndList(t *testing.T) {
	runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
		if err := fs.MkdirAll("x/y/z"); err != nil {
			t.Fatal(err)
		}
		f, _ := fs.Create("x/y/z/file")
		f.Close()
		names, err := fs.List("x/y/z")
		if err != nil || len(names) != 1 || names[0] != "file" {
			t.Fatalf("list: %v %v", names, err)
		}
		if !fs.Exists("x/y/z/file") || fs.Exists("x/nope") {
			t.Fatal("exists checks failed")
		}
	})
}

func TestWriteBackCoalescing(t *testing.T) {
	// 64 sequential 64K writes must reach the wire as few large RPCs
	// (MaxRPCSize = 4 MB), not 64 small ones.
	c := runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
		f, _ := fs.Create("seq")
		buf := make([]byte, 64<<10)
		for i := 0; i < 64; i++ { // 4 MB total
			f.Write(buf)
		}
		fs.Barrier()
		f.Close()
	})
	// 4 MB over stripe count 4 = 4 runs (one per OST) at most a couple of
	// flush boundaries.
	if n := obstest.Counter(t, c.Obs(), "pfs.write_ops"); n > 12 {
		t.Fatalf("sequential writes produced %d RPCs; coalescing broken", n)
	}
	if n := c.Stats().BytesWritten; n != 4<<20 {
		t.Fatalf("bytes written = %d", n)
	}
}

func TestNonContiguousWritesFlushEagerly(t *testing.T) {
	c := runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
		f, _ := fs.Create("scatter")
		buf := make([]byte, 64<<10)
		for i := 0; i < 16; i++ {
			f.WriteAt(buf, int64(i)*(8<<20)) // 8 MB apart: never contiguous
		}
		fs.Barrier()
		f.Close()
	})
	if n := obstest.Counter(t, c.Obs(), "pfs.write_ops"); n < 16 {
		t.Fatalf("non-contiguous writes coalesced: %d RPCs", n)
	}
}

func TestReadAheadServesSequentialReads(t *testing.T) {
	c := runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
		f, _ := fs.Create("ra")
		f.Write(make([]byte, 8<<20))
		f.Sync()
		buf := make([]byte, 64<<10)
		for off := int64(0); off < 8<<20; off += 64 << 10 {
			f.ReadAt(buf, off)
		}
		f.Close()
	})
	// 8 MB of sequential 64K reads with 4 MB read-ahead: ~2-4 read RPC
	// batches (per-OST runs), not 128.
	if n := obstest.Counter(t, c.Obs(), "pfs.read_ops"); n > 24 {
		t.Fatalf("sequential reads issued %d RPCs; read-ahead broken", n)
	}
}

func TestRandomReadsBypassReadAhead(t *testing.T) {
	c := runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
		f, _ := fs.Create("rnd")
		f.Write(make([]byte, 8<<20))
		f.Sync()
		buf := make([]byte, 4<<10)
		// Far-apart, descending offsets: never sequential.
		for i := 31; i >= 0; i-- {
			f.ReadAt(buf, int64(i)*(256<<10))
		}
		f.Close()
	})
	// Each random read is its own RPC (plus the initial write RPCs).
	if n := obstest.Counter(t, c.Obs(), "pfs.read_ops"); n < 32 {
		t.Fatalf("random reads coalesced unexpectedly: %d RPCs", n)
	}
}

func TestOSTStreamCacheAbsorbsFewStreams(t *testing.T) {
	// Two interleaved sequential files: within the stream cache, so only
	// the initial positioning seeks appear.
	cfg := testConfig(1)
	cfg.DefaultStripeCount = 1
	c := runOnCluster(t, cfg, func(c *Cluster, fs *ClientFS) {
		f1, _ := fs.Create("s1")
		f2, _ := fs.Create("s2")
		buf := make([]byte, 1<<20)
		for i := 0; i < 8; i++ {
			f1.Write(buf)
			f2.Write(buf)
		}
		fs.Barrier()
		f1.Close()
		f2.Close()
	})
	if n := obstest.Counter(t, c.Obs(), "pfs.seeks"); n > 4 {
		t.Fatalf("two interleaved streams caused %d seeks", n)
	}
}

func TestOSTStreamCacheThrashesWithManyStreams(t *testing.T) {
	// Six interleaved sequential files on one OST exceed the cache
	// (3 streams): every switch seeks.
	cfg := testConfig(1)
	cfg.DefaultStripeCount = 1
	cfg.NumOSTs = 1
	c := runOnCluster(t, cfg, func(c *Cluster, fs *ClientFS) {
		files := make([]vfs.File, 6)
		for i := range files {
			files[i], _ = fs.Create(fmt.Sprintf("t%d", i))
		}
		buf := make([]byte, 1<<20)
		for round := 0; round < 4; round++ {
			for _, f := range files {
				f.Write(buf)
				f.Sync() // force each extent out while interleaving
			}
		}
		for _, f := range files {
			f.Close()
		}
	})
	if n := obstest.Counter(t, c.Obs(), "pfs.seeks"); n < 12 {
		t.Fatalf("stream-cache thrash produced only %d seeks", n)
	}
}

func TestClusterDeterminism(t *testing.T) {
	run := func() (sim.Time, map[string]int64) {
		var end sim.Time
		c := runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
			f, _ := fs.Create("d")
			for i := 0; i < 32; i++ {
				f.Write(make([]byte, 128<<10))
			}
			fs.Barrier()
			f.Close()
			end = c.Kernel().Now()
		})
		return end, c.Obs().Snapshot().Counters
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || !maps.Equal(s1, s2) {
		t.Fatalf("non-deterministic: %v/%+v vs %v/%+v", e1, s1, e2, s2)
	}
}

func TestDefaultLayoutStripesOverFourOSTs(t *testing.T) {
	runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
		f, _ := fs.Create("u")
		f.Write(make([]byte, 16<<20))
		fs.Barrier()
		f.Close()
		count, _, osts, err := c.DescribeLayout("u")
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[int]bool{}
		for _, o := range osts {
			if o < 0 || o >= 45 {
				t.Fatalf("OST %d outside the cluster's 45", o)
			}
			distinct[o] = true
		}
		if count != 4 || len(distinct) != 4 { // default stripe count
			t.Fatalf("stripe count %d over %d distinct OSTs %v, want 4", count, len(distinct), osts)
		}
	})
}

func TestNVMeConfigRemovesSeekPenalty(t *testing.T) {
	scatterTime := func(cfg Config) time.Duration {
		var d time.Duration
		runOnCluster(t, cfg, func(c *Cluster, fs *ClientFS) {
			f, _ := fs.Create("f")
			buf := make([]byte, 64<<10)
			for i := 0; i < 128; i++ {
				f.WriteAt(buf, int64((i*67)%128)*(8<<20))
			}
			fs.Barrier()
			f.Close()
			d = c.Kernel().Now().Duration()
		})
		return d
	}
	hdd := scatterTime(VikingConfig(1))
	nvme := scatterTime(NVMeConfig(1))
	if nvme*5 > hdd {
		t.Fatalf("NVMe scattered writes (%v) should be >5x faster than HDD (%v)", nvme, hdd)
	}
}

// A closed cluster refuses every call with vfs.ErrClosed: through its
// clients, and on files opened before the close, one of them with
// writes still in its write-back extent. None of them reads the bytes a
// later cluster wrote into the pages the closed one handed back.
func TestClosedClusterRefusesEveryCall(t *testing.T) {
	var files []vfs.File
	var fs *ClientFS
	c := runOnCluster(t, testConfig(1), func(c *Cluster, cfs *ClientFS) {
		fs = cfs
		for _, name := range []string{"a", "dir/b"} {
			f, err := cfs.Create(name)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Write(bytes.Repeat([]byte{0xA5}, 3<<20+100)); err != nil {
				t.Error(err)
			}
			files = append(files, f)
		}
		if err := files[0].Sync(); err != nil {
			t.Error(err)
		}
	})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); !errors.Is(err, vfs.ErrClosed) {
		t.Errorf("second Close: %v, want vfs.ErrClosed", err)
	}
	// A second cluster takes the pages back and fills them.
	runOnCluster(t, testConfig(1), func(_ *Cluster, cfs *ClientFS) {
		f, err := cfs.Create("a")
		if err == nil {
			_, err = f.Write(bytes.Repeat([]byte{0x5A}, 8<<20))
		}
		if err != nil {
			t.Error(err)
		}
	})

	check := func(call string, err error) {
		t.Helper()
		if !errors.Is(err, vfs.ErrClosed) {
			t.Errorf("%s after Close: %v, want vfs.ErrClosed", call, err)
		}
	}
	_, err := fs.Create("c")
	check("Create", err)
	_, err = fs.CreateStriped("c", 2, 1<<20)
	check("CreateStriped", err)
	_, err = fs.Open("a")
	check("Open", err)
	check("Remove", fs.Remove("a"))
	check("Rename", fs.Rename("a", "z"))
	check("MkdirAll", fs.MkdirAll("d"))
	_, err = fs.List("dir")
	check("List", err)
	_, err = fs.Stat("a")
	check("Stat", err)
	check("Barrier", fs.Barrier())
	_, err = fs.Scrub("")
	check("Scrub", err)
	if fs.Exists("a") || fs.Exists("dir") {
		t.Error("Exists after Close reports a file")
	}
	for i, f := range files {
		buf := make([]byte, 1<<20)
		n, err := f.ReadAt(buf, 0)
		check(fmt.Sprintf("file %d ReadAt", i), err)
		if n != 0 || !bytes.Equal(buf, make([]byte, len(buf))) {
			t.Errorf("file %d ReadAt after Close read %d bytes into its buffer", i, n)
		}
		_, err = f.Seek(0, 0)
		check("Seek", err)
		n, err = f.Read(buf)
		check("Read", err)
		if n != 0 {
			t.Errorf("file %d Read after Close read %d bytes", i, n)
		}
		_, err = f.Write([]byte{1})
		check("Write", err)
		_, err = f.WriteAt([]byte{1}, 0)
		check("WriteAt", err)
		_, err = f.Size()
		check("Size", err)
		check("Sync", f.Sync())
		check("Truncate", f.Truncate(0))
		check("Close", f.Close())
	}
}

// ReadCovering books exactly what ReadAt of its window books: after each
// of a series of sieved reads the virtual clock and the read counters
// match ReadAt's, so does the cost of the plain sequential read that
// follows (the read-ahead state), and only the requested bytes are
// copied, and copied right.
func TestReadCoveringBooksItsWindow(t *testing.T) {
	const stripe = 64 << 10
	data := pattern(20*stripe + 1000)
	type step struct{ off, n, start, end int64 }
	steps := []step{
		{stripe, stripe, 0, 4 * stripe},                  // a piece inside the window
		{4 * stripe, stripe, 4 * stripe, 8 * stripe},     // sequential: read-ahead
		{5 * stripe, stripe, 4 * stripe, 8 * stripe},     // inside the read-ahead window
		{12 * stripe, 1000, 12 * stripe, 14 * stripe},    // a jump
		{20 * stripe, 1000, 16 * stripe, 24 * stripe},    // a window past the end
		{20*stripe + 500, 500, 20 * stripe, 24 * stripe}, // the file's last bytes
	}
	type point struct {
		now          sim.Time
		bytes, reads int64
	}
	trace := func(cover bool) []point {
		var got []point
		runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
			f, err := fs.CreateStriped("sieved", 4, stripe)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.WriteAt(data, 0); err != nil {
				t.Error(err)
				return
			}
			if err := f.Sync(); err != nil {
				t.Error(err)
				return
			}
			p := c.cur()
			mark := func() {
				got = append(got, point{p.Now(), obstest.Counter(t, c.Obs(), "pfs.bytes_read"), obstest.Counter(t, c.Obs(), "pfs.read_ops")})
			}
			mark()
			for _, s := range steps {
				if cover {
					buf := bytes.Repeat([]byte{0xee}, int(s.n)+2)
					n, err := f.(*pfsFile).ReadCovering(buf[1:1+s.n], s.off, s.start, s.end)
					want := data[min(s.off, int64(len(data))):min(s.off+s.n, int64(len(data)))]
					if (err != nil && err != io.EOF) || n != len(want) || !bytes.Equal(buf[1:1+n], want) {
						t.Errorf("ReadCovering(%+v) = %d, %v; the bytes match: %v", s, n, err, bytes.Equal(buf[1:1+n], want))
					}
					if buf[0] != 0xee || buf[len(buf)-1] != 0xee || (n < int(s.n) && buf[1+n] != 0xee) {
						t.Errorf("ReadCovering(%+v) wrote outside the bytes it read", s)
					}
				} else if _, err := f.ReadAt(make([]byte, s.end-s.start), s.start); err != nil && err != io.EOF {
					t.Errorf("ReadAt of %+v's window: %v", s, err)
				}
				mark()
			}
			// The next sequential read: it costs what the read-ahead state
			// left behind.
			if _, err := f.ReadAt(make([]byte, stripe), 8*stripe); err != nil {
				t.Error(err)
			}
			mark()
		})
		return got
	}
	want, got := trace(false), trace(true)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("after step %d: ReadCovering left %+v, ReadAt of the window %+v", i, got[i], want[i])
		}
	}
}

// A dead OST that serves only window bytes outside the requested piece
// fails ReadCovering as it fails ReadAt of the window; outside the window
// it fails neither.
func TestReadCoveringFailsOnADeadOSTInItsWindow(t *testing.T) {
	const stripe = 64 << 10
	runOnCluster(t, testConfig(1), func(c *Cluster, fs *ClientFS) {
		f, err := fs.CreateStriped("sieved", 4, stripe)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.WriteAt(pattern(8*stripe), 0); err != nil {
			t.Error(err)
			return
		}
		if err := f.Sync(); err != nil {
			t.Error(err)
			return
		}
		c.SetOSTHealth(c.layouts["sieved"].osts[3], OSTDead, 0)
		var dead *DeadOSTError
		if _, err := f.ReadAt(make([]byte, 4*stripe), 0); !errors.As(err, &dead) {
			t.Errorf("ReadAt of the window: %v, want a DeadOSTError", err)
		}
		if _, err := f.(*pfsFile).ReadCovering(make([]byte, stripe), 0, 0, 4*stripe); !errors.As(err, &dead) {
			t.Errorf("ReadCovering: %v, want a DeadOSTError", err)
		}
		if _, err := f.(*pfsFile).ReadCovering(make([]byte, stripe), 0, 0, 3*stripe); err != nil {
			t.Errorf("ReadCovering of a window the dead OST does not serve: %v", err)
		}
		if _, err := f.(*pfsFile).ReadCovering(make([]byte, stripe), 0, stripe, 4*stripe); err == nil {
			t.Error("ReadCovering of a piece outside its window succeeded")
		}
	})
}
