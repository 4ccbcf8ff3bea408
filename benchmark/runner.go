package main

// The multi-round runner: rounds of every workload, interleaved, each in
// a fresh child process (this binary with -seconds), medians over the
// rounds, and the reports built from them.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

type runner struct {
	seed      int64
	rounds    int
	seconds   float64
	scratch   string
	traceOut  string
	jsonOut   string
	workloads []string
	out       io.Writer
}

// samplesLine is the line a round prints just before its result object:
// the number of samples behind each end-to-end metric.
func (r *roundResult) samplesLine() string {
	var b strings.Builder
	b.WriteString("samples")
	for _, m := range endToEndMetrics {
		fmt.Fprintf(&b, " %s=%d", m.Name, r.samples[m.Name])
	}
	return b.String()
}

func parseSamplesLine(line string) map[string]int {
	out := map[string]int{}
	for _, f := range strings.Fields(line)[1:] {
		if name, n, ok := strings.Cut(f, "="); ok {
			out[name], _ = strconv.Atoi(n) // a malformed count shows as 0 in the report
		}
	}
	return out
}

// runChild runs one round in a child process, echoing its report
// indented, and returns its result object.
func (r *runner) runChild(workload string, seed int64, trace bool, traceOut string) (*roundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(r.seconds, 'g', -1, 64),
		"-scratch", r.scratch, "-trace=" + strconv.FormatBool(trace),
	}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last, samples string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "{"):
			last = line
		case strings.HasPrefix(line, "samples "):
			samples = line
		default:
			fmt.Fprintln(r.out, "    "+line)
		}
	}
	werr := cmd.Wait()
	if last == "" {
		return nil, fmt.Errorf("round %s seed %d printed no result (%v)", workload, seed, werr)
	}
	res := &roundResult{}
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return nil, fmt.Errorf("round %s seed %d: bad result line: %w", workload, seed, err)
	}
	if samples != "" {
		res.samples = parseSamplesLine(samples)
	}
	return res, nil
}

// setResult is one set: every workload's rounds.
type setResult struct {
	rounds map[string][]*roundResult // by workload
}

func (s *setResult) median(workload, metric string) float64 {
	var vs []float64
	for _, r := range s.rounds[workload] {
		vs = append(vs, r.Metrics[metric].Value)
	}
	return median(vs)
}

// failed sums attempted and failed operations over the set.
func (s *setResult) failed() (attempted, failed int) {
	for _, rs := range s.rounds {
		for _, r := range rs {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	return attempted, failed
}

// runSet runs the rounds of every workload, interleaved so that slow
// drift of the machine lands on all workloads alike.
func (r *runner) runSet(trace bool) (*setResult, error) {
	set := &setResult{rounds: map[string][]*roundResult{}}
	for round := 0; round < r.rounds; round++ {
		for _, w := range r.workloads {
			fmt.Fprintf(r.out, "round %d/%d  %s\n", round+1, r.rounds, w)
			out := ""
			if trace {
				out = r.traceOut
				if out == "" {
					out = filepath.Join(r.scratch, "spans")
				}
				out += "." + w + ".csv"
			}
			res, err := r.runChild(w, r.seed+int64(round), trace, out)
			if err != nil {
				return nil, err
			}
			set.rounds[w] = append(set.rounds[w], res)
		}
	}
	return set, nil
}

func (r *runner) header() {
	fmt.Fprintf(r.out, "lsmio wall-clock benchmark: seed %d, %d rounds of %.0f s per workload, one child process per round\n",
		r.seed, r.rounds, r.seconds)
	fmt.Fprintln(r.out, "load shape: closed loop; ckpt-* and sim-ior one client, svc-readwrite two; operation counts per epoch are fixed")
}

// checkFailures turns failed operations into the command's error.
func checkFailures(set *setResult) error {
	if attempted, failed := set.failed(); failed > 0 {
		return fmt.Errorf("%d of %d operations failed", failed, attempted)
	}
	return nil
}

// report is the default mode: every end-to-end metric of every workload.
func (r *runner) report() error {
	r.header()
	set, err := r.runSet(false)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "\n%-14s %-22s %12s %-6s %-7s %6s %7s %8s\n",
		"workload", "metric", "median", "unit", "better", "bound", "rounds", "samples")
	for _, w := range r.workloads {
		for _, m := range endToEndMetrics {
			n := 0
			for _, rr := range set.rounds[w] {
				n += rr.samples[m.Name]
			}
			fmt.Fprintf(r.out, "%-14s %-22s %12.4f %-6s %-7s %5.0f%% %7d %8d\n",
				w, m.Name, set.median(w, m.Name), m.Unit, m.Better, 100*m.Bound, len(set.rounds[w]), n)
		}
	}
	attempted, failed := set.failed()
	fmt.Fprintf(r.out, "\noperations attempted %d, failed %d\n", attempted, failed)
	if err := r.writeJSON(set, endToEndMetrics); err != nil {
		return err
	}
	return checkFailures(set)
}

// traced is -trace: one traced round per workload, every per-layer
// metric. The rounds themselves print the time budgets.
func (r *runner) traced() error {
	r.rounds = 1
	r.header()
	set, err := r.runSet(true)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "\n%-28s %-6s", "per-layer metric", "unit")
	for _, w := range r.workloads {
		fmt.Fprintf(r.out, " %14s", w)
	}
	fmt.Fprintln(r.out)
	for _, m := range perLayerMetrics {
		fmt.Fprintf(r.out, "%-28s %-6s", m.Name, m.Unit)
		for _, w := range r.workloads {
			fmt.Fprintf(r.out, " %14.6g", set.median(w, m.Name))
		}
		fmt.Fprintln(r.out)
	}
	if err := r.writeJSON(set, perLayerMetrics); err != nil {
		return err
	}
	return checkFailures(set)
}

// selfcheck runs two sets of the same code and seeds back to back and
// holds their medians to the benchmark's own bounds.
func (r *runner) selfcheck() error {
	r.header()
	var sets [2]*setResult
	for i := range sets {
		fmt.Fprintf(r.out, "set %d of 2\n", i+1)
		s, err := r.runSet(false)
		if err != nil {
			return err
		}
		if err := checkFailures(s); err != nil {
			return err
		}
		sets[i] = s
	}
	fmt.Fprintf(r.out, "\n%-14s %-22s %12s %12s %9s %6s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	bad := 0
	for _, w := range r.workloads {
		for _, m := range endToEndMetrics {
			a, b := sets[0].median(w, m.Name), sets[1].median(w, m.Name)
			diff := ratio(b-a, a)
			verdict := ""
			if math.Abs(diff) > m.Bound {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Fprintf(r.out, "%-14s %-22s %12.4f %12.4f %+8.2f%% %5.0f%%%s\n",
				w, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics differ between two sets of the same code by more than their bound", bad)
	}
	fmt.Fprintln(r.out, "\nselfcheck: both sets agree within every bound")
	return nil
}

// writeJSON writes the set's medians and per-round values to -json.
func (r *runner) writeJSON(set *setResult, defs []metricDef) error {
	if r.jsonOut == "" {
		return nil
	}
	type jsonMetric struct {
		Median float64   `json:"median"`
		Unit   string    `json:"unit"`
		Better string    `json:"better"`
		Bound  float64   `json:"bound,omitempty"`
		Rounds []float64 `json:"rounds"`
	}
	type jsonWorkload struct {
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}
	doc := struct {
		Seed      int64                   `json:"seed"`
		Seconds   float64                 `json:"round_seconds"`
		Workloads map[string]jsonWorkload `json:"workloads"`
	}{Seed: r.seed, Seconds: r.seconds, Workloads: map[string]jsonWorkload{}}
	for _, w := range r.workloads {
		jw := jsonWorkload{Metrics: map[string]jsonMetric{}}
		for _, rr := range set.rounds[w] {
			jw.Attempted += rr.Attempted
			jw.Failed += rr.Failed
		}
		for _, m := range defs {
			jm := jsonMetric{Median: set.median(w, m.Name), Unit: m.Unit, Better: m.Better, Bound: m.Bound}
			for _, rr := range set.rounds[w] {
				jm.Rounds = append(jm.Rounds, rr.Metrics[m.Name].Value)
			}
			jw.Metrics[m.Name] = jm
		}
		doc.Workloads[w] = jw
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(r.jsonOut, append(b, '\n'), 0o644)
}
