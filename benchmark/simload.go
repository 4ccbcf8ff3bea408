package main

// sim-ior: the paper's Fig. 5 (write) and Fig. 10 (read) sweeps on the
// simulated cluster. Nothing real is written; what is measured is how
// fast the simulator stack runs.

import (
	"fmt"
	"math"
	"strings"
	"time"

	"lsmio/internal/bench"
)

// simScale is one measured sweep; simWarmScale the reduced sweep run
// before it as set-up, so that the measured one starts with a grown
// heap and warm code.
var (
	simScale     = bench.Scale{Nodes: []int{16}, PerRankBytes: 4 << 20, BufferSize: 1 << 20}
	simWarmScale = bench.Scale{Nodes: []int{4}, PerRankBytes: 1 << 20, BufferSize: 256 << 10}
)

type simIOR struct {
	// first holds the first epoch's virtual bandwidths; every later
	// epoch must reproduce them bit for bit.
	first map[string]float64
}

func (*simIOR) durability(seed int64) error { return nil }

// sweep is one timed RunFigure.
type sweep struct {
	wall    time.Duration
	bytes   int64              // simulated payload bytes moved
	stored  int64              // bytes the simulated PFS was asked to write
	virtual float64            // virtual seconds simulated
	series  map[string]float64 // wall seconds per series
	result  *bench.FigureResult
}

func runSweep(fig bench.Figure, scale bench.Scale) (*sweep, error) {
	s := &sweep{series: map[string]float64{}}
	start := time.Now()
	last := start
	fr, err := bench.RunFigure(fig, scale, func(line string) {
		// One line per completed point: "<fig> <series> xfer=...".
		if f := strings.Fields(line); len(f) > 1 {
			now := time.Now()
			s.series[f[1]] += now.Sub(last).Seconds()
			last = now
		}
	})
	s.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	s.result = fr
	for _, p := range fr.Points {
		s.bytes += p.Result.TotalBytes
		s.stored += p.Result.Storage.BytesWritten
		s.virtual += p.Result.WriteSeconds + p.Result.ReadSeconds
		if fig.Phase == bench.PhaseRead {
			s.bytes += p.Result.TotalBytes // written, then read back
		}
	}
	return s, nil
}

// gatedChecks are the figures' own shape checks that hold at simScale.
// The others are sweep-shaped (they need several node counts) or have
// bands calibrated for paper scale (ROADMAP item 4d); their outcomes are
// still covered by the bit-identity requirement.
var gatedChecks = map[string]bool{
	"IOR 1M over 64K at max nodes":                             true,
	"IOR over HDF5 read at max nodes":                          true,
	"collective I/O hurts IOR reads: baseline over collective": true,
}

func (w *simIOR) epoch(seed int64, ep int, dir string, tr *tracer) (*epochResult, error) {
	res := &epochResult{}

	t0 := time.Now()
	// The figures are the paper's: nothing about them comes from the seed
	// (a seeded series order was tried and moved peak RSS by ±15%).
	fig5, fig10 := bench.Fig5(), bench.Fig10()
	for _, f := range []bench.Figure{fig5, fig10} {
		if _, err := runSweep(f, simWarmScale); err != nil {
			return res, fmt.Errorf("warm-up %s: %w", f.ID, err)
		}
	}
	res.setup = time.Since(t0)

	gw := openGoWindow()
	cpu0 := cpuSeconds()
	res.attempted++
	wr, err := runSweep(fig5, simScale)
	if err != nil {
		res.failed++
		return res, err
	}
	res.allocBytes, res.mallocs, _, _ = gw.close()
	res.attempted++
	rd, err := runSweep(fig10, simScale)
	if err != nil {
		res.failed++
		return res, err
	}
	res.cpuSeconds = cpuSeconds() - cpu0

	res.commitLat = []time.Duration{wr.wall}
	res.commitBytes = wr.bytes
	res.allocOver = wr.bytes
	res.restoreLat = []time.Duration{rd.wall}
	res.restoreEach = rd.bytes
	res.storedBytes, res.liveBytes = wr.stored, wr.bytes

	// Correctness: the figures' own shape checks, and determinism.
	got := map[string]float64{}
	gated := 0
	for _, s := range []*sweep{wr, rd} {
		for _, o := range s.result.Evaluate() {
			if !gatedChecks[o.Desc] {
				continue
			}
			gated++
			res.attempted++
			if o.Err != nil || !o.Passed {
				res.failed++
				res.notes = append(res.notes, fmt.Sprintf("shape check failed: %s: got %.3g, want >= %.3g (%v)",
					o.Desc, o.Got, o.Min, o.Err))
			}
		}
		for _, p := range s.result.Points {
			got[fmt.Sprintf("%s/%s/%d", s.result.Figure.ID, p.Series, p.Transfer)] = p.BW
		}
	}
	if gated != len(gatedChecks) {
		res.attempted++
		res.failed++
		res.notes = append(res.notes, fmt.Sprintf("found %d of the %d gated shape checks in the figures", gated, len(gatedChecks)))
	}
	res.attempted++
	if w.first == nil {
		w.first = got
	} else {
		for k, v := range got {
			if math.Float64bits(v) != math.Float64bits(w.first[k]) {
				res.failed++
				res.notes = append(res.notes, fmt.Sprintf("virtual bandwidth of %s changed between sweeps: %v then %v", k, w.first[k], v))
				break
			}
		}
	}
	if res.failed > 0 {
		return res, fmt.Errorf("sim-ior verification failed")
	}

	if tr != nil {
		xfers := 0.0
		for _, s := range []*sweep{wr, rd} {
			for _, p := range s.result.Points {
				n := float64(p.Result.TotalBytes) / float64(p.Transfer)
				if s == rd {
					n *= 2
				}
				xfers += n
			}
		}
		wall := (wr.wall + rd.wall).Seconds()
		res.layer = map[string]float64{
			"sim.ior_posix_wall_s":     wr.series["ior"],
			"sim.ior_lsmio_wall_s":     wr.series["lsmio"],
			"sim.ior_read_wall_s":      rd.wall.Seconds(),
			"sim.ior_xfers_per_s":      ratio(xfers, wall),
			"sim.virtual_s_per_wall_s": ratio(wr.virtual+rd.virtual, wall),
			"go.mallocs_per_step":      float64(res.mallocs),
		}
	}
	return res, nil
}
