// Package bench is the experiment harness that regenerates every figure
// in the paper's evaluation (Figures 5–10) plus Figure 1's growth data:
// for each figure it sweeps node counts over the simulated Viking cluster,
// runs the IOR workload with the right API/collective/stripe settings per
// series, and reports the aggregate bandwidths the paper plots. Shape
// checks encode the paper's stated ratios with tolerance bands; the
// harness evaluates them and EXPERIMENTS.md records the outcome.
package bench

import (
	"encoding/json"
	"fmt"
	"strings"

	"lsmio/internal/ior"
	"lsmio/internal/obs"
	"lsmio/internal/pfs"
	"lsmio/internal/sim"
)

// Scale sets the sweep's node counts and per-rank data volume. The paper
// runs up to 48 nodes; the default scale reproduces that, while tests use
// a reduced scale.
type Scale struct {
	Nodes        []int
	PerRankBytes int64
	// BufferSize is the LSMIO memtable / ADIOS2 BufferChunkSize. The
	// paper uses 32 MB against multi-GB per-rank volumes; scaled runs
	// keep the buffer:volume ratio comparable.
	BufferSize int
}

// PaperScale mirrors the paper's sweep (1→48 nodes, stripe count 4).
func PaperScale() Scale {
	return Scale{
		Nodes:        []int{1, 2, 4, 8, 16, 32, 48},
		PerRankBytes: 32 << 20,
		BufferSize:   8 << 20,
	}
}

// QuickScale is a fast sweep for tests.
func QuickScale() Scale {
	return Scale{
		Nodes:        []int{1, 4, 8},
		PerRankBytes: 4 << 20,
		BufferSize:   1 << 20,
	}
}

// Phase selects which bandwidth a figure plots.
type Phase int

// Phases.
const (
	PhaseWrite Phase = iota
	PhaseRead
)

// Series is one line in a figure.
type Series struct {
	Name string
	// Make builds the IOR parameters for a transfer size and stripe count.
	Make func(transfer int64, stripeCount int, scale Scale) ior.Params
}

// Figure is one reproducible experiment.
type Figure struct {
	ID           string
	Title        string
	Transfers    []int64
	StripeCounts []int
	Phase        Phase
	Series       []Series
	Checks       []Check
	// Cluster overrides the storage-system configuration (default:
	// pfs.VikingConfig). Extension experiments use it to ask what-if
	// questions about differently built file systems (§5.1).
	Cluster func(nodes int) pfs.Config
	// Custom, when set, replaces the standard IOR sweep with a bespoke
	// runner. The burst-staging experiment uses it to drive the ckpt
	// layer directly (its series are stall/latency figures, not IOR
	// bandwidths). Series.Make may be nil on such figures.
	Custom func(f Figure, scale Scale, progress func(string)) (*FigureResult, error)
}

// Point is one measured bandwidth.
type Point struct {
	Series      string
	Transfer    int64
	StripeCount int
	Nodes       int
	BW          float64 // bytes/second (write or read per the figure's phase)
	Result      ior.Result
}

// FigureResult holds a figure's sweep output.
type FigureResult struct {
	Figure Figure
	Points []Point
	// Metrics are per-series (or per-regime, for custom figures) obs
	// registry snapshots, merged across the sweep's runs. They carry the
	// per-op latency histograms (p50/p99/p999 in the JSON rendering)
	// alongside the figure's bandwidth points.
	Metrics map[string]obs.Snapshot
}

// addMetrics merges a run's registry snapshot into the figure's metrics
// under key (counters add, histograms merge bucket-wise).
func (fr *FigureResult) addMetrics(key string, snap obs.Snapshot) {
	if fr.Metrics == nil {
		fr.Metrics = make(map[string]obs.Snapshot)
	}
	if prev, ok := fr.Metrics[key]; ok {
		snap = prev.Merge(snap)
	}
	fr.Metrics[key] = snap
}

// Check is a shape assertion from the paper's text, with a tolerance band.
type Check struct {
	Desc string
	// Ratio extracts the measured ratio from the results.
	Ratio func(fr *FigureResult) (float64, error)
	// Min and Max bound the acceptable band (Max 0 = unbounded above).
	Min, Max float64
	// Paper is the value the paper reports, for the report.
	Paper float64
}

// seriesParams fills the common fields every series shares.
func seriesParams(api ior.API, transfer int64, stripeCount int, scale Scale) ior.Params {
	p := ior.DefaultParams(api, transfer, int(scale.PerRankBytes/transfer))
	p.StripeCount = stripeCount
	p.StripeSize = transfer
	p.WriteBufferSize = scale.BufferSize
	return p
}

func plain(api ior.API) func(int64, int, Scale) ior.Params {
	return func(t int64, sc int, s Scale) ior.Params {
		return seriesParams(api, t, sc, s)
	}
}

func collective(api ior.API) func(int64, int, Scale) ior.Params {
	return func(t int64, sc int, s Scale) ior.Params {
		p := seriesParams(api, t, sc, s)
		p.Collective = true
		return p
	}
}

// RunFigure sweeps one figure at the given scale. progress (optional)
// receives one line per completed point.
func RunFigure(f Figure, scale Scale, progress func(string)) (*FigureResult, error) {
	if f.Custom != nil {
		return f.Custom(f, scale, progress)
	}
	fr := &FigureResult{Figure: f}
	stripes := f.StripeCounts
	if len(stripes) == 0 {
		stripes = []int{4}
	}
	for _, stripeCount := range stripes {
		for _, transfer := range f.Transfers {
			for _, s := range f.Series {
				for _, nodes := range scale.Nodes {
					p := s.Make(transfer, stripeCount, scale)
					if f.Phase == PhaseRead {
						p.DoRead = true
					}
					cfg := pfs.VikingConfig(nodes)
					if f.Cluster != nil {
						cfg = f.Cluster(nodes)
					}
					// The figure's stripe settings also become the
					// directory default, so APIs that create files
					// without an explicit layout (LSMIO stores, BP5
					// subfiles) inherit them — as `lfs setstripe` on the
					// test directory would arrange.
					cfg.DefaultStripeCount = stripeCount
					cfg.DefaultStripeSize = transfer
					cluster := pfs.NewCluster(sim.NewKernel(), cfg)
					res, err := ior.Run(cluster, nodes, p)
					if err != nil {
						return nil, fmt.Errorf("%s/%s t=%d sc=%d n=%d: %w",
							f.ID, s.Name, transfer, stripeCount, nodes, err)
					}
					bw := res.WriteBW
					if f.Phase == PhaseRead {
						bw = res.ReadBW
					}
					fr.addMetrics(s.Name, cluster.Obs().Snapshot())
					// The next point reuses this one's pages.
					cluster.Close()
					fr.Points = append(fr.Points, Point{
						Series:      s.Name,
						Transfer:    transfer,
						StripeCount: stripeCount,
						Nodes:       nodes,
						BW:          bw,
						Result:      res,
					})
					if progress != nil {
						progress(fmt.Sprintf("%s %-12s xfer=%-8s stripes=%-2d n=%-2d  %9.1f MB/s",
							f.ID, s.Name, sizeLabel(transfer), stripeCount, nodes, bw/1e6))
					}
				}
			}
		}
	}
	return fr, nil
}

// BW looks up a point's bandwidth; zero transfer/stripe match any.
func (fr *FigureResult) BW(series string, transfer int64, stripeCount, nodes int) (float64, error) {
	for _, p := range fr.Points {
		if p.Series != series || p.Nodes != nodes {
			continue
		}
		if transfer != 0 && p.Transfer != transfer {
			continue
		}
		if stripeCount != 0 && p.StripeCount != stripeCount {
			continue
		}
		return p.BW, nil
	}
	return 0, fmt.Errorf("bench: no point %s/%d/%d/n%d in %s", series, transfer, stripeCount, nodes, fr.Figure.ID)
}

// MaxNodes returns the largest node count measured.
func (fr *FigureResult) MaxNodes() int {
	max := 0
	for _, p := range fr.Points {
		if p.Nodes > max {
			max = p.Nodes
		}
	}
	return max
}

// PeakBW returns a series' best bandwidth across node counts.
func (fr *FigureResult) PeakBW(series string, transfer int64, stripeCount int) float64 {
	best := 0.0
	for _, p := range fr.Points {
		if p.Series != series {
			continue
		}
		if transfer != 0 && p.Transfer != transfer {
			continue
		}
		if stripeCount != 0 && p.StripeCount != stripeCount {
			continue
		}
		if p.BW > best {
			best = p.BW
		}
	}
	return best
}

func sizeLabel(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprint(n)
	}
}

// Table renders the figure as aligned text, one block per
// (transfer, stripe count) with series as columns.
func (fr *FigureResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", fr.Figure.ID, fr.Figure.Title)
	stripes := fr.Figure.StripeCounts
	if len(stripes) == 0 {
		stripes = []int{4}
	}
	for _, sc := range stripes {
		for _, transfer := range fr.Figure.Transfers {
			fmt.Fprintf(&b, "\n[transfer %s, stripe count %d] bandwidth in MB/s\n",
				sizeLabel(transfer), sc)
			fmt.Fprintf(&b, "%6s", "nodes")
			for _, s := range fr.Figure.Series {
				fmt.Fprintf(&b, " %14s", s.Name)
			}
			b.WriteByte('\n')
			nodes := []int{}
			seen := map[int]bool{}
			for _, p := range fr.Points {
				if !seen[p.Nodes] {
					seen[p.Nodes] = true
					nodes = append(nodes, p.Nodes)
				}
			}
			for _, n := range nodes {
				fmt.Fprintf(&b, "%6d", n)
				for _, s := range fr.Figure.Series {
					bw, err := fr.BW(s.Name, transfer, sc, n)
					if err != nil {
						fmt.Fprintf(&b, " %14s", "-")
						continue
					}
					fmt.Fprintf(&b, " %14.1f", bw/1e6)
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// CSV renders all points as comma-separated rows.
func (fr *FigureResult) CSV() string {
	var b strings.Builder
	b.WriteString("figure,series,transfer,stripe_count,nodes,bandwidth_bytes_per_sec\n")
	for _, p := range fr.Points {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%.0f\n",
			fr.Figure.ID, p.Series, p.Transfer, p.StripeCount, p.Nodes, p.BW)
	}
	return b.String()
}

// JSON renders the figure's series and evaluated checks as an indented
// machine-readable document (the BENCH_*.json format), so the perf
// trajectory can be diffed across revisions.
func (fr *FigureResult) JSON() ([]byte, error) {
	type jsonPoint struct {
		Series      string  `json:"series"`
		Transfer    int64   `json:"transfer"`
		StripeCount int     `json:"stripe_count"`
		Nodes       int     `json:"nodes"`
		BW          float64 `json:"bandwidth_bytes_per_sec"`
	}
	type jsonCheck struct {
		Desc   string  `json:"desc"`
		Got    float64 `json:"got"`
		Min    float64 `json:"min"`
		Max    float64 `json:"max,omitempty"`
		Paper  float64 `json:"paper,omitempty"`
		Passed bool    `json:"passed"`
		Error  string  `json:"error,omitempty"`
	}
	doc := struct {
		Figure  string         `json:"figure"`
		Title   string         `json:"title"`
		Points  []jsonPoint    `json:"points"`
		Checks  []jsonCheck    `json:"checks,omitempty"`
		Metrics map[string]any `json:"metrics,omitempty"`
	}{Figure: fr.Figure.ID, Title: fr.Figure.Title}
	if len(fr.Metrics) > 0 {
		doc.Metrics = make(map[string]any, len(fr.Metrics))
		for key, snap := range fr.Metrics {
			doc.Metrics[key] = snap.Tree()
		}
	}
	for _, p := range fr.Points {
		doc.Points = append(doc.Points, jsonPoint{
			Series:      p.Series,
			Transfer:    p.Transfer,
			StripeCount: p.StripeCount,
			Nodes:       p.Nodes,
			BW:          p.BW,
		})
	}
	for _, o := range fr.Evaluate() {
		jc := jsonCheck{
			Desc: o.Desc, Got: o.Got, Min: o.Min, Max: o.Max,
			Paper: o.Paper, Passed: o.Passed,
		}
		if o.Err != nil {
			jc.Error = o.Err.Error()
		}
		doc.Checks = append(doc.Checks, jc)
	}
	return json.MarshalIndent(doc, "", "  ")
}

// CheckOutcome is one evaluated shape check.
type CheckOutcome struct {
	Desc   string
	Got    float64
	Min    float64
	Max    float64
	Paper  float64
	Passed bool
	Err    error
}

// Evaluate runs the figure's checks.
func (fr *FigureResult) Evaluate() []CheckOutcome {
	out := make([]CheckOutcome, 0, len(fr.Figure.Checks))
	for _, c := range fr.Figure.Checks {
		o := CheckOutcome{Desc: c.Desc, Min: c.Min, Max: c.Max, Paper: c.Paper}
		got, err := c.Ratio(fr)
		if err != nil {
			o.Err = err
		} else {
			o.Got = got
			o.Passed = got >= c.Min && (c.Max == 0 || got <= c.Max)
		}
		out = append(out, o)
	}
	return out
}
