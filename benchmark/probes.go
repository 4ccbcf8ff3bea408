package main

// Per-layer probes: short, fixed-size measurements of single layers,
// made with direct calls on the same scratch filesystem after a traced
// round's epochs. They are reported, never gated.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"lsmio/internal/iosched"
	"lsmio/internal/lsm"
	"lsmio/internal/obs"
	"lsmio/internal/sim"
	"lsmio/internal/snappy"
	"lsmio/internal/vfs"
)

const (
	probeReps     = 3        // repetitions of each timed section; the median is reported
	probeFill     = 32 << 20 // bytes put into a memtable, then flushed
	probeBigValue = 64 << 10
	probeSet      = 32 << 20 // the read probes' data set: four times the block cache
	probeHotSet   = 4 << 20  // the part of it the hit probe reads: half the block cache
	probeValue    = 4 << 10
	probeGets     = 4096
)

func probeKey(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

func mbps(bytes int64, d time.Duration) float64 { return ratio(float64(bytes)/1e6, d.Seconds()) }

// medianOf times fn reps times and returns the median duration.
func medianOf(reps int, fn func(rep int) (time.Duration, error)) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		d, err := fn(r)
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// runProbes fills out with every probe metric. root is the round's
// scratch directory.
func runProbes(root string, seed int64, out map[string]float64) error {
	dir := filepath.Join(root, "probes")
	defer os.RemoveAll(dir)
	fs, err := scratchFS(dir)
	if err != nil {
		return err
	}
	state := uint64(seed)*0x9E3779B97F4A7C15 | 1
	random := make([]byte, probeFill)
	fillRandom(random, &state)
	squashy := make([]byte, probeFill)
	fillCompressible(squashy, &state)

	for _, p := range []func() error{
		func() error { return probeFillFlush(fs, "plain", random, false, out) },
		func() error { return probeFillFlush(fs, "wal-snappy", squashy, true, out) },
		func() error { return probeCompact(fs, random, out) },
		func() error { return probeReads(fs, squashy, seed, out) },
		func() error { return probeSnappy(squashy, out) },
		func() error { probeHotCalls(out); return nil },
		func() error { return probeSim(out) },
	} {
		if err := p(); err != nil {
			return err
		}
	}
	return nil
}

// probeFillFlush times putting probeFill bytes of 64 KiB values into a
// memtable that does not rotate (memtable insert, plus the WAL append
// when featured), then flushing it (table build, plus snappy when
// featured).
func probeFillFlush(fs vfs.FS, name string, data []byte, featured bool, out map[string]float64) error {
	opts := lsm.CheckpointOptions(fs)
	opts.WriteBufferSize = 4 * probeFill
	putKey, flushKey := "lsm.probe.put_MBps", "lsm.probe.flush_MBps"
	if featured {
		opts.DisableWAL, opts.DisableCompression = false, false
		opts.Compression = lsm.CompressionSnappy
		opts.BlockSize = 4 << 10
		putKey, flushKey = "lsm.probe.put_wal_MBps", "lsm.probe.flush_snappy_MBps"
	}
	db, err := lsm.Open(name, opts)
	if err != nil {
		return err
	}
	defer db.Close()
	var flush []float64
	put, err := medianOf(probeReps, func(rep int) (time.Duration, error) {
		t := time.Now()
		for off, i := 0, 0; off < len(data); off, i = off+probeBigValue, i+1 {
			if err := db.Put(probeKey(rep<<20|i), data[off:off+probeBigValue]); err != nil {
				return 0, err
			}
		}
		d := time.Since(t)
		t = time.Now()
		if err := db.Flush(); err != nil {
			return 0, err
		}
		flush = append(flush, float64(time.Since(t)))
		return d, nil
	})
	if err != nil {
		return err
	}
	out[putKey] = mbps(int64(len(data)), put)
	out[flushKey] = mbps(int64(len(data)), time.Duration(median(flush)))
	return nil
}

// probeCompact times CompactAll over 8 tables whose key ranges all
// overlap (keys interleaved across tables).
func probeCompact(fs vfs.FS, data []byte, out map[string]float64) error {
	const tables, value = 8, 16 << 10
	perTable := len(data) / tables / value
	d, err := medianOf(probeReps, func(rep int) (time.Duration, error) {
		opts := lsm.CheckpointOptions(fs) // background compaction off: the tables stay in L0
		opts.WriteBufferSize = 2 * len(data)
		db, err := lsm.Open(fmt.Sprintf("compact-%d", rep), opts)
		if err != nil {
			return 0, err
		}
		defer db.Close()
		for t := 0; t < tables; t++ {
			for i := 0; i < perTable; i++ {
				off := (t*perTable + i) * value
				if err := db.Put(probeKey(i*tables+t), data[off:off+value]); err != nil {
					return 0, err
				}
			}
			if err := db.Flush(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		if err := db.CompactAll(); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	out["lsm.probe.compact_MBps"] = mbps(int64(tables*perTable*value), d)
	return nil
}

// probeReads loads probeSet bytes of 4 KiB values into 16 tables under
// the engine's default read configuration (snappy, bloom filters, 8 MiB
// block cache) and times point gets, a full scan and a reopen.
func probeReads(fs vfs.FS, data []byte, seed int64, out map[string]float64) error {
	opts := lsm.DefaultOptions(fs)
	opts.DisableCompaction = true // keep the 16 flushed tables
	opts.WriteBufferSize = probeSet / 16
	db, err := lsm.Open("reads", opts)
	if err != nil {
		return err
	}
	defer func() {
		if db != nil {
			db.Close()
		}
	}()
	keys := probeSet / probeValue
	for i := 0; i < keys; i++ {
		off := i * probeValue % len(data)
		if err := db.Put(probeKey(i), data[off:off+probeValue]); err != nil {
			return err
		}
	}
	if err := db.Flush(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	gets := func(key func(i int) []byte, wantFound bool) (time.Duration, error) {
		t := time.Now()
		for i := 0; i < probeGets; i++ {
			k := key(i)
			v, err := db.Get(k)
			found := err == nil && len(v) == probeValue
			if found != wantFound || (err != nil && !errors.Is(err, lsm.ErrNotFound)) {
				return 0, fmt.Errorf("probe get %q: found=%v err=%v", k, found, err)
			}
		}
		return time.Since(t), nil
	}
	hot := probeHotSet / probeValue
	hotKey := func(i int) []byte { return probeKey(i % hot) }
	if _, err := gets(hotKey, true); err != nil { // fills the cache
		return err
	}
	hit, err := medianOf(probeReps, func(int) (time.Duration, error) { return gets(hotKey, true) })
	if err != nil {
		return err
	}
	miss, err := medianOf(probeReps, func(int) (time.Duration, error) {
		return gets(func(int) []byte { return probeKey(rng.Intn(keys)) }, true)
	})
	if err != nil {
		return err
	}
	absent, err := medianOf(probeReps, func(int) (time.Duration, error) {
		return gets(func(int) []byte { return append(probeKey(rng.Intn(keys)), 'x') }, false)
	})
	if err != nil {
		return err
	}
	scan, err := medianOf(probeReps, func(int) (time.Duration, error) {
		t := time.Now()
		it, err := db.NewIterator()
		if err != nil {
			return 0, err
		}
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			n += len(it.Value())
		}
		if err := it.Close(); err != nil {
			return 0, err
		}
		if n != probeSet {
			return 0, fmt.Errorf("probe scan read %d bytes, loaded %d", n, probeSet)
		}
		return time.Since(t), nil
	})
	if err != nil {
		return err
	}
	open, err := medianOf(probeReps, func(int) (time.Duration, error) {
		if err := db.Close(); err != nil {
			return 0, err
		}
		t := time.Now()
		db, err = lsm.Open("reads", opts)
		return time.Since(t), err
	})
	if err != nil {
		return err
	}
	out["lsm.probe.get_hit_us"] = micros(hit) / probeGets
	out["lsm.probe.get_miss_us"] = micros(miss) / probeGets
	out["lsm.probe.get_absent_us"] = micros(absent) / probeGets
	out["lsm.probe.scan_MBps"] = mbps(probeSet, scan)
	out["lsm.probe.open_ms"] = millis(open)
	return nil
}

// probeSnappy times the codec on the ckpt-smallobj payload, in the 4 KiB
// blocks the engine hands it.
func probeSnappy(data []byte, out map[string]float64) error {
	const block = 4 << 10
	data = data[:8<<20]
	var blocks [][]byte
	var encoded int
	enc, err := medianOf(probeReps, func(int) (time.Duration, error) {
		blocks, encoded = blocks[:0], 0
		t := time.Now()
		for off := 0; off < len(data); off += block {
			b := snappy.Encode(nil, data[off:off+block])
			blocks = append(blocks, b)
			encoded += len(b)
		}
		return time.Since(t), nil
	})
	if err != nil {
		return err
	}
	dec, err := medianOf(probeReps, func(int) (time.Duration, error) {
		t := time.Now()
		for _, b := range blocks {
			raw, err := snappy.Decode(nil, b)
			if err != nil || len(raw) != block {
				return 0, fmt.Errorf("probe snappy decode: %d bytes, err %v", len(raw), err)
			}
		}
		return time.Since(t), nil
	})
	if err != nil {
		return err
	}
	out["snappy.encode_MBps"] = mbps(int64(len(data)), enc)
	out["snappy.decode_MBps"] = mbps(int64(len(data)), dec)
	out["snappy.ratio"] = ratio(float64(len(data)), float64(encoded))
	return nil
}

// perCall times n calls of fn and returns nanoseconds per call.
func perCall(n int, fn func()) float64 {
	d, _ := medianOf(probeReps, func(int) (time.Duration, error) {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return time.Since(t), nil
	})
	return float64(d) / float64(n)
}

// probeHotCalls times the calls every hot path pays: the I/O scheduler's
// Acquire (enabled but never waiting, and the nil pass-through) and the
// obs instruments.
func probeHotCalls(out map[string]float64) {
	const n = 200_000
	enabled := iosched.New(iosched.Config{BytesPerSec: 1e18})
	var disabled *iosched.Scheduler
	out["iosched.acquire_ns"] = perCall(n, func() { enabled.Acquire(iosched.Flush, 1) })
	out["iosched.disabled_ns"] = perCall(n, func() { disabled.Acquire(iosched.Flush, 1) })

	reg := obs.NewRegistry()
	c, h := reg.Counter("probe.counter"), reg.Histogram("probe.hist")
	for i := 0; i < 64; i++ { // a registry about as full as a running store's
		reg.Counter(fmt.Sprintf("probe.c%02d", i)).Inc()
		reg.Histogram(fmt.Sprintf("probe.h%02d", i)).Observe(int64(i))
	}
	v := int64(1)
	out["obs.counter_inc_ns"] = perCall(n, func() { c.Inc() })
	out["obs.hist_observe_ns"] = perCall(n, func() { v = v*3%1_000_003 + 1; h.Observe(v) })
	out["obs.snapshot_us"] = perCall(500, func() { reg.Snapshot() }) / 1e3
}

// probeSim times the bare simulation kernel: two processes alternating
// Sleep (one context switch per wake-up), and spawning processes.
func probeSim(out map[string]float64) error {
	const switches, spawns = 50_000, 20_000
	var runErr error
	out["sim.switch_ns"] = perCall(1, func() {
		k := sim.NewKernel()
		for p := 0; p < 2; p++ {
			k.Spawn(fmt.Sprintf("p%d", p), func(pr *sim.Proc) {
				for i := 0; i < switches/2; i++ {
					pr.Sleep(time.Microsecond)
				}
			})
		}
		if err := k.Run(); err != nil {
			runErr = err
		}
	}) / switches
	out["sim.spawn_ns"] = perCall(1, func() {
		k := sim.NewKernel()
		k.Spawn("parent", func(pr *sim.Proc) {
			for i := 0; i < spawns; i++ {
				pr.Join(k.Spawn("child", func(*sim.Proc) {}))
			}
		})
		if err := k.Run(); err != nil {
			runErr = err
		}
	}) / spawns
	return runErr
}
