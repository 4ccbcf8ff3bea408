// Command benchpairs measures the working tree against a base revision.
// It checks the base out as a git worktree under .bench_scratch/, runs
// one round in each tree N times, alternating the trees and swapping
// which goes first in every pair, and prints, for every metric: both
// medians, both interquartile ranges, the ratio, the pairs the working
// tree wins and a verdict. A round is one of two things:
//
//   - with -workload, one run of a BENCHMARK.json workload with that
//     file's own command; the metrics are its end-to-end metrics, judged
//     against their bounds. Every round is listed with its correct/failed
//     counts; a round that is not correct still counts.
//   - with -bench, one run of the Go benchmarks matching a regexp in the
//     packages -pkg names, from test binaries built once per tree; the
//     metrics are every unit the benchmarks report (ns/op, MB/s, B/op,
//     allocs/op and any of their own).
//
// Usage, from the root of the checkout:
//
//	go run ./cmd/benchpairs -base <rev> -workload ckpt-smallobj [-n 10] [-seconds 20]
//	go run ./cmd/benchpairs -base <rev> -bench CkptCommit [-pkg ./ckpt] [-benchtime 10x] [-n 10]
//
// or `make pairs BASE=<rev> WORKLOAD=<name> N=10`, `make pairs BASE=<rev>
// BENCH=<regexp> [PKG=<packages>] N=10`.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json this tool reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	EndToEnd   []metric `json:"end_to_end"`
}

// metric is one number the rounds report: its name, the direction that
// is better ("lower" or "higher") and the relative bound past which the
// head is worse (0: none, see verdict).
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// round is one run's result: the workload's result object, as the
// benchmark prints it on its last line, or the Go benchmarks' numbers in
// Metrics. err is set when the run produced none.
type round struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	err       error
}

type value struct {
	Value float64 `json:"value"`
}

// sides are the two trees a pair runs: 0 the base, 1 the working tree.
var sides = [2]string{"base", "head"}

func main() {
	base := flag.String("base", "", "revision to compare the working tree against (required)")
	workload := flag.String("workload", "", "BENCHMARK.json workload to run (this or -bench is required)")
	bench := flag.String("bench", "", "regexp of the Go benchmarks to run (this or -workload is required)")
	pkg := flag.String("pkg", "./...", "with -bench: the packages whose benchmarks run")
	benchtime := flag.String("benchtime", "", "with -bench: go test's -benchtime (default its own, 1s)")
	n := flag.Int("n", 10, "number of pairs")
	seconds := flag.Int("seconds", 0, "with -workload: seconds per round (default: BENCHMARK.json's run_seconds)")
	flag.Parse()
	if *base == "" || (*workload == "") == (*bench == "") || *n < 1 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	err := withBase(*base, func(tree string) error {
		if *bench != "" {
			return runBench(ctx, tree, *base, *bench, strings.Fields(*pkg), *benchtime, *n, os.Stdout)
		}
		return runWorkload(ctx, tree, *base, *workload, *n, *seconds, os.Stdout)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

// withBase checks base out as a worktree under .bench_scratch/, calls fn
// with its path and removes it again.
func withBase(base string, fn func(tree string) error) error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("%w (run from the root of the checkout)", err)
	}
	tree := filepath.Join(".bench_scratch", "pairs-base")
	// A worktree left by an interrupted run is replaced.
	_ = exec.Command("git", "worktree", "remove", "--force", tree).Run()
	if msg, err := exec.Command("git", "worktree", "add", "--detach", tree, base).CombinedOutput(); err != nil {
		return fmt.Errorf("git worktree add %s: %v: %s", base, err, msg)
	}
	defer func() {
		if msg, err := exec.Command("git", "worktree", "remove", "--force", tree).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "benchpairs: removing %s: %v: %s", tree, err, msg)
		}
	}()
	return fn(tree)
}

// alternate runs n pairs of rounds, the base tree first in odd pairs and
// the working tree first in even ones, and returns each side's rounds.
func alternate(ctx context.Context, n int, runOne func(side, pair int) round) ([2][]round, error) {
	rounds := [2][]round{make([]round, n), make([]round, n)}
	for i := 0; i < n; i++ {
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			r := runOne(side, i)
			if ctx.Err() != nil {
				return rounds, ctx.Err()
			}
			rounds[side][i] = r
			fmt.Fprintf(os.Stderr, "pair %d/%d %s: %s\n", i+1, n, sides[side], r.summary())
		}
	}
	return rounds, nil
}

func runWorkload(ctx context.Context, tree, base, workload string, n, seconds int, out io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if seconds <= 0 {
		seconds = sp.RunSeconds
	}
	dirs := [2]string{tree, "."}
	rounds, err := alternate(ctx, n, func(side, i int) round {
		args := append(append([]string(nil), sp.Command[1:]...),
			"--workload", workload, "--seed", strconv.Itoa(i+1),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		return runRound(ctx, dirs[side], sp.Command[0], args)
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%s: base %s against the working tree, %d pairs of %d s rounds (seeds 1..%d)\n\n",
		workload, base, n, seconds, n)
	fmt.Fprintf(out, "%-4s %-5s %-8s %-9s %-6s\n", "pair", "side", "correct", "attempted", "failed")
	for i := 0; i < n; i++ {
		for side := range sides {
			r := rounds[side][i]
			if r.err != nil {
				fmt.Fprintf(out, "%-4d %-5s error: %v\n", i+1, sides[side], r.err)
				continue
			}
			fmt.Fprintf(out, "%-4d %-5s %-8v %-9d %-6d\n", i+1, sides[side], r.Correct, r.Attempted, r.Failed)
		}
	}
	fmt.Fprintln(out)
	return report(out, sp.EndToEnd, rounds)
}

// runRound runs one round in dir and parses the result object from the
// last line of its output.
func runRound(ctx context.Context, dir, name string, args []string) round {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return round{err: fmt.Errorf("%v: %s", err, lastLine(stderr.Bytes()))}
	}
	var r round
	if err := json.Unmarshal([]byte(lastLine(stdout.Bytes())), &r); err != nil {
		return round{err: fmt.Errorf("no result object: %v", err)}
	}
	return r
}

// runBench builds one test binary per package with test files in each
// tree, runs the benchmarks matching re in every one of them per round,
// and reports every benchmark and unit they print.
func runBench(ctx context.Context, tree, base, re string, pkgs []string, benchtime string, n int, out io.Writer) error {
	list, err := exec.Command("go", append([]string{"list", "-f",
		"{{if or .TestGoFiles .XTestGoFiles}}{{.Dir}}{{end}}"}, pkgs...)...).Output()
	if err != nil {
		return fmt.Errorf("go list %s: %w", strings.Join(pkgs, " "), err)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	var rels []string // package directories, relative to the root of either tree
	for _, dir := range strings.Fields(string(list)) {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		rels = append(rels, rel)
	}
	if len(rels) == 0 {
		return fmt.Errorf("no package with tests in %s", strings.Join(pkgs, " "))
	}
	bins := filepath.Join(root, ".bench_scratch", "pairs-bin")
	defer os.RemoveAll(bins)
	dirs := [2]string{filepath.Join(root, tree), root}
	for side, dir := range dirs {
		for i, rel := range rels {
			if _, err := os.Stat(filepath.Join(dir, rel)); err != nil {
				continue // the package is new in the working tree
			}
			cmd := exec.CommandContext(ctx, "go", "test", "-c", "-o", binPath(bins, side, i), "./"+filepath.ToSlash(rel))
			cmd.Dir = dir
			if msg, err := cmd.CombinedOutput(); err != nil {
				return fmt.Errorf("go test -c ./%s in the %s tree: %v: %s", rel, sides[side], err, msg)
			}
		}
	}
	args := []string{"-test.run", "^$", "-test.bench", re, "-test.benchmem", "-test.timeout", "30m"}
	if benchtime != "" {
		args = append(args, "-test.benchtime", benchtime)
	}
	var order []string // metric names as first printed
	seen := make(map[string]bool)
	rounds, err := alternate(ctx, n, func(side, _ int) round {
		r := round{Metrics: make(map[string]value)}
		for i, rel := range rels {
			bin := binPath(bins, side, i)
			if _, err := os.Stat(bin); err != nil {
				continue
			}
			cmd := exec.CommandContext(ctx, bin, args...)
			cmd.Dir = filepath.Join(dirs[side], rel)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				r.err = fmt.Errorf("%s: %v: %s", rel, err, lastLine(append(stdout.Bytes(), stderr.Bytes()...)))
				return r
			}
			for _, res := range parseBench(&stdout) {
				for _, v := range res.values {
					name := res.name + " " + v.unit
					if len(rels) > 1 {
						name = filepath.ToSlash(rel) + "." + name
					}
					r.Metrics[name] = value{v.value}
					if !seen[name] {
						seen[name] = true
						order = append(order, name)
					}
				}
			}
		}
		return r
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "go test -bench %q in %s: base %s against the working tree, %d pairs\n\n",
		re, strings.Join(pkgs, " "), base, n)
	metrics := make([]metric, len(order))
	for i, name := range order {
		metrics[i] = metric{Name: name, Better: unitBetter(name)}
	}
	return report(out, metrics, rounds)
}

func binPath(bins string, side, pkg int) string {
	return filepath.Join(bins, sides[side], strconv.Itoa(pkg)+".test")
}

// benchResult is one result line of `go test -bench`: the benchmark's
// name, without the -GOMAXPROCS suffix, and its numbers in the order
// printed.
type benchResult struct {
	name   string
	values []benchValue
}

type benchValue struct {
	value float64
	unit  string
}

// parseBench reads the result lines of `go test -bench` output:
//
//	BenchmarkCkptCommit-2   	      38	  29812345 ns/op	1125.50 MB/s	42600000 B/op	     123 allocs/op
//
// A benchmark that logs prints its name on a line of its own and its
// numbers, after the log, on a line that starts with the iteration
// count. Every other line is skipped.
func parseBench(r io.Reader) []benchResult {
	var out []benchResult
	pending := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		name := pending
		if strings.HasPrefix(f[0], "Benchmark") {
			name, f = trimProcs(f[0]), f[1:]
			pending = name
		}
		if name == "" || len(f) < 3 || len(f)%2 == 0 {
			continue
		}
		if _, err := strconv.ParseInt(f[0], 10, 64); err != nil {
			continue
		}
		res := benchResult{name: name}
		for i := 1; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				res.values = nil
				break
			}
			res.values = append(res.values, benchValue{v, f[i+1]})
		}
		if res.values != nil {
			out = append(out, res)
			pending = ""
		}
	}
	return out
}

// trimProcs drops the -GOMAXPROCS suffix go test adds to a benchmark's
// name.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// unitBetter is the direction a benchmark metric improves in: a rate
// (a unit per second) up, anything else (time, bytes, allocations per
// op) down.
func unitBetter(name string) string {
	if strings.HasSuffix(name, "/s") {
		return "higher"
	}
	return "lower"
}

// report prints, for every metric, both medians and IQRs, the ratio, the
// pairs the head wins and a verdict. It fails when a round produced no
// result.
func report(out io.Writer, metrics []metric, rounds [2][]round) error {
	width := len("metric")
	for _, m := range metrics {
		width = max(width, len(m.Name))
	}
	fmt.Fprintf(out, "%-*s %12s %10s %12s %10s %7s %6s  %s\n",
		width, "metric", "base p50", "base IQR", "head p50", "head IQR", "ratio", "wins", "verdict")
	for _, m := range metrics {
		var bs, hs []float64
		wins, losses, pairs := 0, 0, 0
		for i := range rounds[0] {
			b, bok := rounds[0][i].value(m.Name)
			h, hok := rounds[1][i].value(m.Name)
			if bok {
				bs = append(bs, b)
			}
			if hok {
				hs = append(hs, h)
			}
			if bok && hok {
				pairs++
				switch {
				case better(m.Better, h, b):
					wins++
				case better(m.Better, b, h):
					losses++
				}
			}
		}
		if len(bs) == 0 || len(hs) == 0 {
			fmt.Fprintf(out, "%-*s %s\n", width, m.Name, "not reported")
			continue
		}
		bm, hm := quantile(bs, 0.5), quantile(hs, 0.5)
		biqr, hiqr := quantile(bs, 0.75)-quantile(bs, 0.25), quantile(hs, 0.75)-quantile(hs, 0.25)
		ratio := math.NaN()
		if bm != 0 {
			ratio = hm / bm
		}
		fmt.Fprintf(out, "%-*s %12.4g %10.3g %12.4g %10.3g %7.3f %3d/%-2d  %s\n",
			width, m.Name, bm, biqr, hm, hiqr, ratio, wins, pairs,
			verdict(m.Better, m.Bound, bm, hm, biqr, wins, losses, pairs))
	}
	for side := range rounds {
		for _, r := range rounds[side] {
			if r.err != nil {
				return errors.New("some rounds produced no result")
			}
		}
	}
	return nil
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

func (r round) value(name string) (float64, bool) {
	if r.err != nil {
		return 0, false
	}
	m, ok := r.Metrics[name]
	return m.Value, ok
}

func (r round) summary() string {
	if r.err != nil {
		return "error: " + r.err.Error()
	}
	if v, ok := r.Metrics["commit_MBps"]; ok {
		return fmt.Sprintf("correct=%v attempted=%d failed=%d commit_MBps=%.4g",
			r.Correct, r.Attempted, r.Failed, v.Value)
	}
	return fmt.Sprintf("%d numbers", len(r.Metrics))
}

// better reports whether a beats b in the metric's direction.
func better(direction string, a, b float64) bool {
	if direction == "lower" {
		return a < b
	}
	return a > b
}

// verdict judges the head median against the base median: "better" when
// the head wins at least nine pairs in ten and its median moved by more
// than the base's IQR; "worse" past the metric's bound, or, for a metric
// without one (bound 0), by the mirror of the rule for better; "same"
// otherwise.
func verdict(direction string, bound, bm, hm, biqr float64, wins, losses, pairs int) string {
	if bm == 0 && hm == 0 {
		return "same (both zero)"
	}
	moved := math.Abs(hm-bm) > biqr
	if bound <= 0 {
		if 10*losses >= 9*pairs && moved && better(direction, bm, hm) {
			return "WORSE"
		}
	} else {
		limit := bm * (1 - bound)
		worse := hm < limit
		if direction == "lower" {
			limit = bm * (1 + bound)
			worse = hm > limit
		}
		if worse {
			return fmt.Sprintf("WORSE (bound %.4g)", limit)
		}
	}
	if 10*wins >= 9*pairs && moved && better(direction, hm, bm) {
		return "better"
	}
	return "same"
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
