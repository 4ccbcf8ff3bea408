package main

// One round: one workload, one process, one fresh scratch directory.
// This is what the contract's
//
//	<command> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// runs, and what the multi-round runner re-execs itself to run.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// epochResult is what one epoch (fresh store, fixed operation counts)
// of a workload measured. Every workload fills the same fields, so the
// end-to-end metrics are assembled in one place.
type epochResult struct {
	setup time.Duration

	commitLat   []time.Duration // one per committed step (sim-ior: per write sweep)
	commitBytes int64           // payload bytes committed in the epoch
	restoreLat  []time.Duration // one per verified restore / scan pass / read sweep
	restoreEach int64           // payload bytes one restore returns

	cpuSeconds float64 // process user+sys time inside the timed windows
	allocBytes uint64  // heap bytes allocated over the commit phase
	mallocs    uint64  // heap objects allocated over the commit phase
	allocOver  int64   // payload bytes allocBytes is divided by

	storedBytes int64 // bytes in the store directory after Close
	liveBytes   int64 // payload bytes still restorable

	rssPeakMiB float64 // high-water mark of the resident set during the epoch

	attempted, failed int

	layer map[string]float64 // traced epochs: this epoch's per-layer numbers
	spans []span             // traced epochs: the recorded spans (tracer-owned)
	notes []string           // free-form lines for the human report
}

func (e *epochResult) movedBytes() int64 {
	return e.commitBytes + int64(len(e.restoreLat))*e.restoreEach
}

// workload is one of the benchmark's four workloads.
type workload interface {
	// epoch runs one epoch in dir (which it may assume empty and must
	// leave to the caller to remove). tr is nil in an untraced epoch.
	epoch(seed int64, ep int, dir string, tr *tracer) (*epochResult, error)
	// durability runs the untimed crash check, nil for workloads that
	// write nothing real.
	durability(seed int64) error
}

func workloadByName(name string) (workload, error) {
	switch name {
	case "ckpt-llm":
		return ckptLLM(), nil
	case "ckpt-smallobj":
		return ckptSmallObj(), nil
	case "svc-readwrite":
		return svcReadWrite{steps: svcSteps}, nil
	case "sim-ior":
		return &simIOR{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

type roundConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	scratch  string
	out      io.Writer // human-readable progress
}

// roundResult is the contract's result object plus what the runner's
// report wants to show beside it.
type roundResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples map[string]int
	errs    []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// probeReserve is the share of a traced round's time kept for the
// per-layer probes, which run after the workload's epochs.
const probeReserve = 0.25

func runRound(cfg roundConfig) (res *roundResult, err error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	root, err := makeScratch(cfg.scratch)
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(root); rerr != nil && err == nil {
			err = rerr
		}
	}()
	fmt.Fprintf(cfg.out, "workload %s seed %d: closed loop, fixed operation counts per epoch, epochs for %.0f s\n",
		cfg.workload, cfg.seed, cfg.seconds)
	fmt.Fprintf(cfg.out, "scratch %s (%s); flush policy: no fsync per write, durable at WriteBarrier(sync=true); "+
		"Sync is counted but absorbed, so data stays in the page cache as on tmpfs\n", root, fsType(root))

	var tr *tracer
	budget := cfg.seconds
	if cfg.trace {
		tr = newTracer()
		budget *= 1 - probeReserve
	}

	res = &roundResult{Metrics: map[string]metric{}, samples: map[string]int{}}
	var plain, traced []*epochResult
	var start time.Time
	var epochWall time.Duration
	// Epoch -1 is the warm-up: a whole epoch whose measurements are
	// dropped. It grows the heap and the page cache to their working
	// size; on this VM the first touch of a page costs several times a
	// later one, and pages freed for more than a moment go cold again,
	// so only running the real thing warms what the real thing uses.
	for ep := -1; ; ep++ {
		if ep == 0 {
			start = time.Now()
		}
		// Whole epochs only: start another while at least half of one
		// still fits, so rounds average the requested length.
		if ep > 0 && time.Since(start)+epochWall/2 > time.Duration(budget*float64(time.Second)) {
			break
		}
		var etr *tracer
		if cfg.trace && ep >= 0 && ep%2 == 1 {
			etr = tr
			tr.reset()
		}
		dir := filepath.Join(root, fmt.Sprintf("epoch-%03d", ep+1))
		resetPeakRSS()
		t0 := time.Now()
		e, eerr := w.epoch(cfg.seed, ep, dir, etr)
		if rerr := os.RemoveAll(dir); rerr != nil && eerr == nil {
			eerr = rerr
		}
		epochWall = time.Since(t0)
		if ep < 0 {
			if eerr != nil {
				return nil, fmt.Errorf("warm-up epoch: %w", eerr)
			}
			fmt.Fprintf(cfg.out, "warm-up epoch %.2f s\n", epochWall.Seconds())
			continue
		}
		if e != nil {
			e.rssPeakMiB = peakRSSMiB()
			res.Attempted += e.attempted
			res.Failed += e.failed
			for _, n := range e.notes {
				fmt.Fprintln(cfg.out, n)
			}
		}
		if eerr != nil {
			// The failed operation is already counted by the epoch;
			// an epoch that could not even start counts as one.
			if e == nil || e.failed == 0 {
				res.Attempted++
				res.Failed++
			}
			res.errs = append(res.errs, fmt.Sprintf("epoch %d: %v", ep, eerr))
			break
		}
		c, r := durs(e.commitLat, millis), durs(e.restoreLat, millis)
		label := ""
		if etr != nil {
			label = " (traced)"
			traced = append(traced, e)
		} else {
			plain = append(plain, e)
		}
		fmt.Fprintf(cfg.out, "epoch %d%s: set-up %.3f s; %d commits, %.1f MB/s, p50 %.2f ms; %d restores, p50 %.2f ms; peak RSS %.0f MiB\n",
			ep, label, e.setup.Seconds(),
			len(c), ratio(float64(e.commitBytes)/1e6, sum(c)/1e3), median(c), len(r), median(r), e.rssPeakMiB)
	}

	res.Attempted++
	if derr := w.durability(cfg.seed); derr != nil {
		res.Failed++
		res.errs = append(res.errs, fmt.Sprintf("durability check: %v", derr))
	} else {
		fmt.Fprintln(cfg.out, "durability check: acknowledged step intact after Crash()")
	}

	if len(plain) == 0 {
		res.errs = append(res.errs, "no epoch completed")
		res.Failed++
		return res, nil
	}
	e2e := endToEnd(plain, res.samples)
	if !cfg.trace {
		res.fill(endToEndMetrics, e2e)
	} else {
		layer := map[string]float64{}
		if len(traced) > 0 {
			layer = medianLayers(traced)
			last := traced[len(traced)-1]
			layer["trace.spans"] = float64(len(last.spans))
			if n := tr.dropped.Load(); n > 0 {
				fmt.Fprintf(cfg.out, "WARNING: the span buffer was full; %d spans of the last traced epoch are missing from every per-layer number\n", n)
			}
			layer["trace.overhead_pct"] = 100 * (1 - ratio(endToEnd(traced, nil)["commit_MBps"], e2e["commit_MBps"]))
			if bl := timeBudget(cfg.workload, last); bl != "" {
				fmt.Fprint(cfg.out, bl)
			}
			if cfg.traceOut != "" {
				if werr := writeSpans(cfg.traceOut, last.spans); werr != nil {
					return nil, werr
				}
				fmt.Fprintf(cfg.out, "wrote %d spans to %s\n", len(last.spans), cfg.traceOut)
			}
		}
		layer["go.heap_peak_MiB"] = heapPeakMiB()
		if perr := runProbes(root, cfg.seed, layer); perr != nil {
			res.Attempted++
			res.Failed++
			res.errs = append(res.errs, fmt.Sprintf("probes: %v", perr))
		}
		res.fill(perLayerMetrics, layer)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// fill copies the values of defs into the result. A value that is not a
// number (a median of no samples) cannot be reported as measured: it
// reads 0 and counts as a failed operation.
func (r *roundResult) fill(defs []metricDef, values map[string]float64) {
	for _, m := range defs {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.Attempted++
			r.Failed++
			r.errs = append(r.errs, fmt.Sprintf("metric %s has no value", m.Name))
			v = 0
		}
		r.Metrics[m.Name] = metric{v, m.Unit}
	}
}

// endToEnd assembles the end-to-end metrics from a round's epochs.
// samples (optional) receives the sample count behind each metric.
func endToEnd(epochs []*epochResult, samples map[string]int) map[string]float64 {
	var commit, restore, setup, mbps, cpu, alloc, stored, cycle, rss []float64
	var restoreEach int64
	for _, e := range epochs {
		c, r := durs(e.commitLat, millis), durs(e.restoreLat, millis)
		commit, restore = append(commit, c...), append(restore, r...)
		setup = append(setup, e.setup.Seconds())
		mbps = append(mbps, ratio(float64(e.commitBytes)/1e6, sum(c)/1e3))
		cpu = append(cpu, ratio(e.cpuSeconds, float64(e.movedBytes())/(1<<30)))
		alloc = append(alloc, ratio(float64(e.allocBytes), float64(e.allocOver)))
		stored = append(stored, ratio(float64(e.storedBytes), float64(e.liveBytes)))
		cycle = append(cycle, (median(c)+median(r))/1e3)
		rss = append(rss, e.rssPeakMiB)
		restoreEach = e.restoreEach
	}
	out := map[string]float64{
		"commit_MBps":           median(mbps),
		"commit_p50_ms":         median(commit),
		"restore_MBps":          ratio(float64(restoreEach)/1e6, median(restore)/1e3),
		"restore_p50_ms":        median(restore),
		"cpu_s_per_GiB":         median(cpu),
		"alloc_B_per_payload_B": median(alloc),
		"stored_B_per_live_B":   median(stored),
		"sim_wall_s":            median(cycle),
		"rss_peak_MiB":          median(rss),
		"setup_s":               median(setup),
	}
	if samples != nil {
		for _, n := range []string{"commit_MBps", "cpu_s_per_GiB", "alloc_B_per_payload_B", "stored_B_per_live_B", "sim_wall_s", "rss_peak_MiB", "setup_s"} {
			samples[n] = len(epochs)
		}
		samples["commit_p50_ms"] = len(commit)
		samples["restore_p50_ms"], samples["restore_MBps"] = len(restore), len(restore)
	}
	return out
}

// medianLayers takes, per metric, the median over the traced epochs.
// Epochs have fixed operation counts, so a count's median is the count.
func medianLayers(epochs []*epochResult) map[string]float64 {
	vals := map[string][]float64{}
	for _, e := range epochs {
		for k, v := range e.layer {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// printResult writes the contract's last line.
func (r *roundResult) lastLine() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of floats and strings always marshals
	}
	return string(b)
}

// ---- process-level measurements ---------------------------------------

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's high-water mark of this process's
// resident set (Linux: writing 5 to clear_refs), so that every epoch
// reports its own peak and the round the median of them: a maximum over
// the whole process moves with a single unlucky garbage-collection
// cycle. Where the reset is not available the mark simply keeps
// growing and peakRSSMiB degrades to ru_maxrss so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMiB is the process's resident-set high-water mark (ru_maxrss)
// since the last reset.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func heapPeakMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapSys) / (1 << 20)
}

// goWindow measures the Go runtime's work between open and close.
type goWindow struct{ ms runtime.MemStats }

func openGoWindow() *goWindow {
	w := &goWindow{}
	runtime.ReadMemStats(&w.ms)
	return w
}

func (w *goWindow) close() (allocBytes, mallocs uint64, gcCount uint32, gcPause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - w.ms.TotalAlloc, ms.Mallocs - w.ms.Mallocs,
		ms.NumGC - w.ms.NumGC, time.Duration(ms.PauseTotalNs - w.ms.PauseTotalNs)
}
