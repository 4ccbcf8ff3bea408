// Command benchpairs measures the working tree against a base revision
// with BENCHMARK.json's own command. It checks the base out as a git
// worktree under .bench_scratch/, runs one round of a workload in each
// tree N times, alternating the trees and swapping which goes first in
// every pair, and prints, for every end-to-end metric BENCHMARK.json
// declares: both medians, both interquartile ranges, the ratio, the pairs
// the working tree wins and a verdict against the metric's bound. Every
// round is listed with its correct/failed counts; a round that is not
// correct still counts.
//
// Usage, from the root of the checkout:
//
//	go run ./cmd/benchpairs -base <rev> -workload ckpt-smallobj [-n 10] [-seconds 20]
//
// or `make pairs BASE=<rev> WORKLOAD=<name> N=10`.
package main

import (
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
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// round is one run's result object, as the benchmark prints it on its
// last line; err is set when the run produced none.
type round struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	err error
}

func main() {
	base := flag.String("base", "", "revision to compare the working tree against (required)")
	workload := flag.String("workload", "", "BENCHMARK.json workload to run (required)")
	n := flag.Int("n", 10, "number of pairs")
	seconds := flag.Int("seconds", 0, "seconds per round (default: BENCHMARK.json's run_seconds)")
	flag.Parse()
	if *base == "" || *workload == "" || *n < 1 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *base, *workload, *n, *seconds, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, base, workload string, n, seconds int, out io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("%w (run from the root of the checkout)", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if seconds <= 0 {
		seconds = sp.RunSeconds
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

	dirs := [2]string{tree, "."} // 0: base, 1: the working tree
	names := [2]string{"base", "head"}
	rounds := [2][]round{make([]round, n), make([]round, n)}
	for i := 0; i < n; i++ {
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			args := append(append([]string(nil), sp.Command[1:]...),
				"--workload", workload, "--seed", strconv.Itoa(i+1),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			r := runRound(ctx, dirs[side], sp.Command[0], args)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			rounds[side][i] = r
			fmt.Fprintf(os.Stderr, "pair %d/%d %s: %s\n", i+1, n, names[side], r.summary())
		}
	}

	fmt.Fprintf(out, "%s: base %s against the working tree, %d pairs of %d s rounds (seeds 1..%d)\n\n",
		workload, base, n, seconds, n)
	fmt.Fprintf(out, "%-4s %-5s %-8s %-9s %-6s\n", "pair", "side", "correct", "attempted", "failed")
	for i := 0; i < n; i++ {
		for side := range names {
			r := rounds[side][i]
			if r.err != nil {
				fmt.Fprintf(out, "%-4d %-5s error: %v\n", i+1, names[side], r.err)
				continue
			}
			fmt.Fprintf(out, "%-4d %-5s %-8v %-9d %-6d\n", i+1, names[side], r.Correct, r.Attempted, r.Failed)
		}
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-22s %12s %10s %12s %10s %7s %6s  %s\n",
		"metric", "base p50", "base IQR", "head p50", "head IQR", "ratio", "wins", "verdict")
	for _, m := range sp.EndToEnd {
		var bs, hs []float64
		wins, pairs := 0, 0
		for i := 0; i < n; i++ {
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
				if better(m.Better, h, b) {
					wins++
				}
			}
		}
		if len(bs) == 0 || len(hs) == 0 {
			fmt.Fprintf(out, "%-22s %s\n", m.Name, "not reported")
			continue
		}
		bm, hm := quantile(bs, 0.5), quantile(hs, 0.5)
		biqr, hiqr := quantile(bs, 0.75)-quantile(bs, 0.25), quantile(hs, 0.75)-quantile(hs, 0.25)
		ratio := math.NaN()
		if bm != 0 {
			ratio = hm / bm
		}
		fmt.Fprintf(out, "%-22s %12.4g %10.3g %12.4g %10.3g %7.3f %3d/%-2d  %s\n",
			m.Name, bm, biqr, hm, hiqr, ratio, wins, pairs, verdict(m.Better, m.Bound, bm, hm, biqr, wins, pairs))
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
	return fmt.Sprintf("correct=%v attempted=%d failed=%d commit_MBps=%.4g",
		r.Correct, r.Attempted, r.Failed, r.Metrics["commit_MBps"].Value)
}

// better reports whether a beats b in the metric's direction.
func better(direction string, a, b float64) bool {
	if direction == "lower" {
		return a < b
	}
	return a > b
}

// verdict judges the head median against the base median: "worse" past
// the metric's bound, "better" when the head wins at least nine pairs in
// ten and its median moved by more than the base's IQR, "same" otherwise.
func verdict(direction string, bound, bm, hm, biqr float64, wins, pairs int) string {
	if bm == 0 && hm == 0 {
		return "same (both zero)"
	}
	limit := bm * (1 - bound)
	worse := hm < limit
	if direction == "lower" {
		limit = bm * (1 + bound)
		worse = hm > limit
	}
	switch {
	case worse:
		return fmt.Sprintf("WORSE (bound %.4g)", limit)
	case 10*wins >= 9*pairs && math.Abs(hm-bm) > biqr && better(direction, hm, bm):
		return "better"
	default:
		return "same"
	}
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
