package bench

import (
	"fmt"
	"time"

	"lsmio/internal/lsm"
	"lsmio/internal/obs"
	"lsmio/internal/pfs"
	"lsmio/internal/sim"
)

// The ext-pipeline experiment measures the two write-path overlaps added
// on top of the serial engine: the table-build pipeline (N encoder
// workers compress/checksum blocks while one writer task owns the file)
// and WAL group commit (one coalesced append+fsync per writer cohort).
// Series, all stripe-4 on the simulated PFS:
//
//	flush-serial    one memtable flush, serial block building (Nodes=1)
//	flush-piped     the same flush with 1, 2 and 4 encoder workers
//	                (Nodes axis = EncodeWorkers)
//	compact-serial  overwrite workload + full background drain at 4
//	                background jobs, serial table writers (Nodes=4)
//	compact-piped   the same with 4 encoder workers per table (Nodes=4)
//	wal-solo        8 concurrent Sync writers, one fsync per write
//	wal-grouped     8 concurrent Sync writers through group commit
//	wal-group-size  mean cohort size (writes per fsync) of that run —
//	                the point's BW field carries the plain ratio
//	io-busy         fraction of the piped flush's wall time the writer
//	                stage spent busy (BW field carries the fraction)
//
// The modeled encode cost (pipeEncodeCostPerMB on the virtual Compute
// clock) is what makes the compute stage visible on the simulator; the
// real runtime pays real compression CPU instead.
const (
	pipeValueSize       = 4 << 10
	pipeWALValueSize    = 1 << 10
	pipeWALWriters      = 8
	pipeEncodeWorkers   = 4
	pipeEncodeCostPerMB = 6 * time.Millisecond
)

// ExtPipeline is the pipelined-table-build / WAL-group-commit extension
// experiment.
func ExtPipeline() Figure {
	f := Figure{
		ID:        "ext-pipeline",
		Title:     "EXTENSION: pipelined table builds and WAL group commit",
		Transfers: []int64{pipeValueSize},
		Phase:     PhaseWrite,
		Series: []Series{
			{Name: "flush-serial"},
			{Name: "flush-piped"},
			{Name: "compact-serial"},
			{Name: "compact-piped"},
			{Name: "wal-solo"},
			{Name: "wal-grouped"},
			{Name: "wal-group-size"},
			{Name: "io-busy"},
		},
		Checks: []Check{
			{
				Desc: "4 encode workers ≥1.3× serial flush throughput",
				Ratio: func(fr *FigureResult) (float64, error) {
					piped, err := fr.BW("flush-piped", pipeValueSize, 4, pipeEncodeWorkers)
					if err != nil {
						return 0, err
					}
					serial, err := fr.BW("flush-serial", pipeValueSize, 4, 1)
					if err != nil {
						return 0, err
					}
					if serial == 0 {
						return 0, fmt.Errorf("bench: zero serial flush throughput")
					}
					return piped / serial, nil
				},
				Min: 1.3, Paper: 0,
			},
			{
				Desc: "piped compaction ≥1.15× serial at 4 background jobs",
				Ratio: func(fr *FigureResult) (float64, error) {
					piped, err := fr.BW("compact-piped", pipeValueSize, 4, 4)
					if err != nil {
						return 0, err
					}
					serial, err := fr.BW("compact-serial", pipeValueSize, 4, 4)
					if err != nil {
						return 0, err
					}
					if serial == 0 {
						return 0, fmt.Errorf("bench: zero serial compaction throughput")
					}
					return piped / serial, nil
				},
				Min: 1.15, Paper: 0,
			},
			{
				Desc: "group commit ≥1.5× per-write fsync throughput (8 sync writers)",
				Ratio: func(fr *FigureResult) (float64, error) {
					grouped, err := fr.BW("wal-grouped", pipeValueSize, 4, pipeWALWriters)
					if err != nil {
						return 0, err
					}
					solo, err := fr.BW("wal-solo", pipeValueSize, 4, pipeWALWriters)
					if err != nil {
						return 0, err
					}
					if solo == 0 {
						return 0, fmt.Errorf("bench: zero solo-sync throughput")
					}
					return grouped / solo, nil
				},
				Min: 1.5, Paper: 0,
			},
			{
				Desc: "mean WAL cohort ≥2 writes per fsync",
				Ratio: func(fr *FigureResult) (float64, error) {
					return fr.BW("wal-group-size", pipeValueSize, 4, pipeWALWriters)
				},
				Min: 2, Paper: 0,
			},
			{
				Desc: "I/O stage busy ≥60% of the piped flush wall time",
				Ratio: func(fr *FigureResult) (float64, error) {
					return fr.BW("io-busy", pipeValueSize, 4, pipeEncodeWorkers)
				},
				Min: 0.6, Paper: 0,
			},
		},
	}
	f.Custom = runPipelineFigure
	return f
}

func runPipelineFigure(f Figure, scale Scale, progress func(string)) (*FigureResult, error) {
	e := newEmitter(f, progress)
	// timed emits a point moving bytes in d.
	timed := func(series string, nodes int, bytes int64, d time.Duration) {
		bw := float64(bytes) / d.Seconds()
		e.point(series, nodes, bw, "%-14s nodes=%d  %10v  (%9.1f MB/s)", series, nodes, d.Round(time.Microsecond), bw/1e6)
	}

	// Flush: serial baseline, then the encoder-worker sweep.
	flushBytes := scale.PerRankBytes
	serialDur, _, snap, err := runPipelineFlush(scale, 0)
	if err != nil {
		return nil, fmt.Errorf("ext-pipeline flush serial: %w", err)
	}
	e.fr.addMetrics("flush-serial", snap)
	timed("flush-serial", 1, flushBytes, serialDur)
	for _, workers := range []int{1, 2, pipeEncodeWorkers} {
		dur, ioBusy, snap, err := runPipelineFlush(scale, workers)
		if err != nil {
			return nil, fmt.Errorf("ext-pipeline flush workers=%d: %w", workers, err)
		}
		e.fr.addMetrics(fmt.Sprintf("flush-piped-%d", workers), snap)
		timed("flush-piped", workers, flushBytes, dur)
		if workers == pipeEncodeWorkers {
			e.point("io-busy", workers, ioBusy, "%-14s nodes=%d  write stage busy %4.1f%% of flush", "io-busy", workers, 100*ioBusy)
		}
	}

	// Compaction: serial vs piped table writers under a 4-job pool.
	compactBytes := 4 * scale.PerRankBytes
	for _, c := range []struct {
		series  string
		workers int
	}{
		{"compact-serial", 0},
		{"compact-piped", pipeEncodeWorkers},
	} {
		dur, snap, err := runPipelineCompaction(scale, c.workers)
		if err != nil {
			return nil, fmt.Errorf("ext-pipeline %s: %w", c.series, err)
		}
		e.fr.addMetrics(c.series, snap)
		timed(c.series, 4, compactBytes, dur)
	}

	// WAL: 8 concurrent Sync writers, per-write fsync vs group commit.
	walBytes := scale.PerRankBytes
	soloDur, _, snap, err := runPipelineWAL(scale, false)
	if err != nil {
		return nil, fmt.Errorf("ext-pipeline wal solo: %w", err)
	}
	e.fr.addMetrics("wal-solo", snap)
	timed("wal-solo", pipeWALWriters, walBytes, soloDur)
	groupDur, meanCohort, snap, err := runPipelineWAL(scale, true)
	if err != nil {
		return nil, fmt.Errorf("ext-pipeline wal grouped: %w", err)
	}
	e.fr.addMetrics("wal-grouped", snap)
	timed("wal-grouped", pipeWALWriters, walBytes, groupDur)
	e.point("wal-group-size", pipeWALWriters, meanCohort, "%-14s nodes=%d  %5.1f writes per fsync", "wal-group-size", pipeWALWriters, meanCohort)

	return e.fr, nil
}

// pipelineFill writes a deterministic incompressible payload (xorshift),
// so block encoding pays its full modeled cost and the device sees the
// raw bytes.
func pipelineFill(p []byte, seed uint64) {
	x := seed*2862933555777941757 + 3037000493
	for i := range p {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p[i] = byte(x)
	}
}

// runPipelineFlush builds one memtable of scale.PerRankBytes and measures
// a single flush on the simulated cluster, returning the flush's virtual
// duration and the fraction of it the pipeline's writer stage was busy.
func runPipelineFlush(scale Scale, workers int) (time.Duration, float64, obs.Snapshot, error) {
	s := newSimRun(pfs.VikingConfig(1))
	totalPuts := int(scale.PerRankBytes / pipeValueSize)

	var dur time.Duration
	var ioBusy float64
	var snap obs.Snapshot
	s.spawn("pipe-flush", func(p *sim.Proc) error {
		opts := lsm.DefaultOptions(s.cluster.Client(0))
		opts.Runtime = s.rtm
		opts.DisableWAL = true
		opts.DisableCompaction = true
		opts.WriteBufferSize = int(2 * scale.PerRankBytes)
		opts.BlockSize = 64 << 10
		opts.BitsPerKey = 10
		opts.EncodeWorkers = workers
		opts.EncodeCostPerMB = pipeEncodeCostPerMB
		db, err := lsm.Open("lsmdb", opts)
		if err != nil {
			return err
		}
		payload := make([]byte, pipeValueSize-24)
		for i := 0; i < totalPuts; i++ {
			pipelineFill(payload, uint64(i)+1)
			if err := db.Put([]byte(fmt.Sprintf("key%08d", i)), payload); err != nil {
				return err
			}
		}
		start := p.Now()
		if err := db.Flush(); err != nil {
			return err
		}
		dur = p.Now().Sub(start)
		snap = db.Obs().Snapshot()
		if dur > 0 {
			ioBusy = float64(snap.Counters["lsm.pipeline.write.busy_micros"]) /
				float64(dur/time.Microsecond)
		}
		return db.Close()
	})
	if err := s.run(); err != nil {
		return 0, 0, obs.Snapshot{}, err
	}
	return dur, ioBusy, snap, nil
}

// runPipelineCompaction drives the overwrite workload from the
// ext-compaction experiment at 4 background jobs with incompressible
// values and measures the whole run (writes + background drain), with
// serial or piped table writers.
func runPipelineCompaction(scale Scale, workers int) (time.Duration, obs.Snapshot, error) {
	payload := make([]byte, pipeValueSize-24)
	pipelineFill(payload, 42)
	total, _, snap, err := runOverwrite(scale, 4, true, payload, func(o *lsm.Options) {
		o.EncodeWorkers = workers
		o.EncodeCostPerMB = pipeEncodeCostPerMB
	})
	return total, snap, err
}

// runPipelineWAL runs 8 concurrent Sync writers against one store and
// measures the virtual time until the last write is acknowledged,
// returning also the mean cohort size (writes per fsync).
func runPipelineWAL(scale Scale, grouped bool) (time.Duration, float64, obs.Snapshot, error) {
	s := newSimRun(pfs.VikingConfig(1))
	totalPuts := int(scale.PerRankBytes / pipeWALValueSize)
	perWriter := totalPuts / pipeWALWriters

	var total time.Duration
	var meanCohort float64
	var snap obs.Snapshot
	s.spawn("wal-setup", func(p *sim.Proc) error {
		opts := lsm.DefaultOptions(s.cluster.Client(0))
		opts.Runtime = s.rtm
		opts.Sync = true
		opts.DisableWALGroupCommit = !grouped
		opts.DisableCompaction = true
		opts.DisableCompression = true
		opts.BitsPerKey = 0
		opts.WriteBufferSize = int(4 * scale.PerRankBytes)
		db, err := lsm.Open("lsmdb", opts)
		if err != nil {
			return err
		}
		finished := 0
		s.ranks("wal-writer", pipeWALWriters, func(p *sim.Proc, w int) error {
			err := func() error {
				payload := make([]byte, pipeWALValueSize-32)
				pipelineFill(payload, uint64(w)+7)
				for i := 0; i < perWriter; i++ {
					key := fmt.Sprintf("w%02dk%06d", w, i)
					if err := db.Put([]byte(key), payload); err != nil {
						return fmt.Errorf("writer %d: %w", w, err)
					}
				}
				return nil
			}()
			finished++
			if finished == pipeWALWriters {
				total = p.Now().Duration()
				snap = db.Obs().Snapshot()
				if syncs := snap.Counters["lsm.wal.syncs"]; syncs > 0 {
					meanCohort = float64(snap.Counters["lsm.puts"]) / float64(syncs)
				}
				if cerr := db.Close(); err == nil {
					err = cerr
				}
			}
			return err
		})
		return nil
	})
	if err := s.run(); err != nil {
		return 0, 0, obs.Snapshot{}, err
	}
	return total, meanCohort, snap, nil
}
