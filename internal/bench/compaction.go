package bench

import (
	"fmt"
	"sort"
	"time"

	"lsmio/internal/lsm"
	"lsmio/internal/obs"
	"lsmio/internal/pfs"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
)

// The ext-compaction experiment measures the parallel background
// pipeline: one writer sustains a compaction-heavy overwrite workload on
// a PFS-backed LSM store while the background pool runs with 1, 2 and 4
// workers. Three series result, all on the "Nodes" axis reinterpreted as
// MaxBackgroundJobs:
//
//	lsm-jobs       sustained write throughput (workload bytes over the
//	               virtual time until all background work has drained)
//	put-p99-smooth p99 Put latency with write-stall smoothing on,
//	               expressed as effective bandwidth (value bytes / p99)
//	put-p99-hard   p99 Put latency with the soft tier disabled, so
//	               writers run full speed into the hard stall
//
// Latencies are inverted into effective bandwidths so the harness's
// ratio checks compare them the right way up: smooth/hard ≥ 2 encodes
// "the smoothed p99 is at most half the hard-stall p99".
const compValueSize = 4 << 10

// ExtCompaction is the parallel-compaction extension experiment.
func ExtCompaction() Figure {
	f := Figure{
		ID:        "ext-compaction",
		Title:     "EXTENSION: parallel compaction pipeline and write-stall smoothing",
		Transfers: []int64{compValueSize},
		Phase:     PhaseWrite,
		Series: []Series{
			{Name: "lsm-jobs"},
			{Name: "put-p99-smooth"},
			{Name: "put-p99-hard"},
		},
		Checks: []Check{
			{
				Desc: "4 background jobs ≥1.3× single-job write throughput",
				Ratio: func(fr *FigureResult) (float64, error) {
					four, err := fr.BW("lsm-jobs", compValueSize, 4, fr.MaxNodes())
					if err != nil {
						return 0, err
					}
					one, err := fr.BW("lsm-jobs", compValueSize, 4, 1)
					if err != nil {
						return 0, err
					}
					if one == 0 {
						return 0, fmt.Errorf("bench: zero single-job throughput")
					}
					return four / one, nil
				},
				Min: 1.3, Paper: 0,
			},
			{
				Desc:  "smoothed p99 put latency ≤0.5× the hard-stall p99 at 4 jobs",
				Ratio: ratioAtMaxNodes("put-p99-smooth", compValueSize, "put-p99-hard", compValueSize, 4),
				Min:   2, Paper: 0,
			},
		},
	}
	f.Custom = runCompactionFigure
	return f
}

func runCompactionFigure(f Figure, scale Scale, progress func(string)) (*FigureResult, error) {
	fr := &FigureResult{Figure: f}
	totalBytes := 4 * scale.PerRankBytes
	for _, jobs := range []int{1, 2, 4} {
		smoothTotal, smoothP99, smoothSnap, err := runCompactionWorkload(scale, jobs, true)
		if err != nil {
			return nil, fmt.Errorf("ext-compaction jobs=%d smooth: %w", jobs, err)
		}
		_, hardP99, hardSnap, err := runCompactionWorkload(scale, jobs, false)
		if err != nil {
			return nil, fmt.Errorf("ext-compaction jobs=%d hard: %w", jobs, err)
		}
		fr.addMetrics(fmt.Sprintf("jobs-%d-smooth", jobs), smoothSnap)
		fr.addMetrics(fmt.Sprintf("jobs-%d-hard", jobs), hardSnap)
		for _, m := range []struct {
			series string
			bytes  float64
			d      time.Duration
		}{
			{"lsm-jobs", float64(totalBytes), smoothTotal},
			{"put-p99-smooth", compValueSize, smoothP99},
			{"put-p99-hard", compValueSize, hardP99},
		} {
			if m.d <= 0 {
				return nil, fmt.Errorf("ext-compaction %s jobs=%d: zero latency", m.series, jobs)
			}
			fr.Points = append(fr.Points, Point{
				Series:      m.series,
				Transfer:    compValueSize,
				StripeCount: 4,
				Nodes:       jobs,
				BW:          m.bytes / m.d.Seconds(),
			})
			if progress != nil {
				progress(fmt.Sprintf("%s %-14s jobs=%d  %10v  (%9.1f MB/s effective)",
					f.ID, m.series, jobs, m.d.Round(time.Microsecond), m.bytes/m.d.Seconds()/1e6))
			}
		}
	}
	return fr, nil
}

// runCompactionWorkload drives one overwrite-heavy workload on the
// simulated cluster and returns the end-to-end virtual time (including
// the final background drain), the p99 Put latency and the engine's
// registry snapshot (flush/compaction/stall instruments).
func runCompactionWorkload(scale Scale, jobs int, smooth bool) (time.Duration, time.Duration, obs.Snapshot, error) {
	k := sim.NewKernel()
	cluster := pfs.NewCluster(k, pfs.VikingConfig(1))
	// A fixed 64 puts per memtable keeps the stall frequency (one
	// rotation every 64 writes) scale-invariant, so the p99 latency sees
	// the admission-control behaviour at every scale.
	buf := 64 * compValueSize
	totalPuts := int(4 * scale.PerRankBytes / compValueSize)
	keyspace := totalPuts / 2 // every key overwritten ~twice: compaction debt

	var total, p99 time.Duration
	var snap obs.Snapshot
	var runErr error
	k.Spawn("lsm-writer", func(p *sim.Proc) {
		runErr = func() error {
			opts := lsm.DefaultOptions(cluster.Client(0))
			opts.Runtime = rt.Sim(k)
			opts.AsyncFlush = true
			opts.MaxBackgroundJobs = jobs
			opts.MaxImmutableMemtables = 4
			opts.WriteBufferSize = buf
			opts.L0CompactionTrigger = 4
			opts.BaseLevelSize = int64(4 * buf)
			opts.LevelSizeMultiplier = 4
			opts.BitsPerKey = 0
			opts.DisableCompression = true
			opts.L0StopTrigger = 12
			if smooth {
				opts.L0SlowdownTrigger = 6
				opts.SlowdownDelay = 2 * time.Millisecond
				opts.SoftPendingCompactionBytes = int64(16 * buf)
			} else {
				opts.L0SlowdownTrigger = -1
				opts.SlowdownDelay = -1
				opts.SoftPendingCompactionBytes = -1
			}
			db, err := lsm.Open("lsmdb", opts)
			if err != nil {
				return err
			}
			payload := make([]byte, compValueSize-24)
			lats := make([]time.Duration, 0, totalPuts)
			for i := 0; i < totalPuts; i++ {
				key := fmt.Sprintf("key%08d", i%keyspace)
				start := p.Now()
				if err := db.Put([]byte(key), payload); err != nil {
					return err
				}
				lats = append(lats, p.Now().Sub(start))
			}
			if err := db.Flush(); err != nil {
				return err
			}
			if err := db.WaitBackground(); err != nil {
				return err
			}
			total = p.Now().Duration()
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			p99 = lats[(len(lats)*99)/100]
			snap = db.Obs().Snapshot()
			return db.Close()
		}()
	})
	if err := k.Run(); err != nil {
		return 0, 0, obs.Snapshot{}, err
	}
	return total, p99, snap, runErr
}
