package bench

import (
	"fmt"
	"time"

	"lsmio/internal/obs"
)

// The ext-compaction experiment measures the parallel background
// pipeline: one writer sustains a compaction-heavy overwrite workload on
// a PFS-backed LSM store while the background pool runs with 1, 2 and 4
// workers. Three series result, all on the "Nodes" axis reinterpreted as
// MaxBackgroundJobs:
//
//	lsm-jobs       sustained write throughput (workload bytes over the
//	               virtual time until all background work has drained)
//	put-p99-smooth p99 Put latency with paced admission on,
//	               expressed as effective bandwidth (value bytes / p99)
//	put-p99-hard   p99 Put latency with pacing disabled, so writers
//	               run full speed into the hard stall
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
	e := newEmitter(f, progress)
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
		e.fr.addMetrics(fmt.Sprintf("jobs-%d-smooth", jobs), smoothSnap)
		e.fr.addMetrics(fmt.Sprintf("jobs-%d-hard", jobs), hardSnap)
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
			e.point(m.series, jobs, m.bytes/m.d.Seconds(), "%-14s jobs=%d  %10v  (%9.1f MB/s effective)",
				m.series, jobs, m.d.Round(time.Microsecond), m.bytes/m.d.Seconds()/1e6)
		}
	}
	return e.fr, nil
}

// runCompactionWorkload drives the overwrite workload with zero-filled
// values and returns the end-to-end virtual time (including the final
// background drain), the p99 Put latency and the engine's registry
// snapshot (flush/compaction/stall instruments).
func runCompactionWorkload(scale Scale, jobs int, smooth bool) (time.Duration, time.Duration, obs.Snapshot, error) {
	total, lats, snap, err := runOverwrite(scale, jobs, smooth, make([]byte, compValueSize-24), nil)
	if err != nil {
		return 0, 0, obs.Snapshot{}, err
	}
	return total, p99(lats), snap, nil
}
