// Command benchmark is the repository's wall-clock benchmark: four
// workloads on a real filesystem, end-to-end metrics with regression
// bounds, and a traced run that attributes time to layers. README.md in
// this directory documents every metric, workload and flag.
//
// With -seconds it runs one round of one workload in this process and
// prints the contract's result object as its last line (this is what
// BENCHMARK.json's command does). Without, it runs rounds of every
// workload in child processes and prints a report.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// normalizeArgs lets the boolean -trace flag also take its value as a
// separate argument ("--trace 0", "--trace 1"), the form the benchmark
// contract calls it with.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "false":
				out = append(out, "-trace=false")
				i++
				continue
			case "1", "true":
				out = append(out, "-trace=true")
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload to run ("+strings.Join(workloadNames, ", ")+"); default all")
	seed := fl.Int64("seed", 1, "seed of the generated inputs: size mix, payload bytes, key order")
	rounds := fl.Int("rounds", 3, "rounds per workload; a metric is the median of its rounds")
	secs := fl.Float64("seconds", 0, "run ONE round of -workload for this long in this process and print the result object")
	trace := fl.Bool("trace", false, "traced run: per-layer metrics, span file, time budget")
	traceOut := fl.String("trace-out", "", "file the traced run writes its spans to (default <scratch>/spans.<workload>.csv)")
	jsonOut := fl.String("json", "", "also write the report as JSON to this file")
	scratch := fl.String("scratch", ".bench_scratch", "directory for the stores under test; every round removes what it creates there")
	selfcheck := fl.Bool("selfcheck", false, "run two full sets back to back and compare their medians against the bounds")
	if err := fl.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fl.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fl.Arg(0))
		return 2
	}
	if *workload != "" {
		if _, err := workloadByName(*workload); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}

	if *secs > 0 {
		if *workload == "" {
			fmt.Fprintln(os.Stderr, "benchmark: -seconds needs -workload")
			return 2
		}
		res, err := runRound(roundConfig{
			workload: *workload, seed: *seed, seconds: *secs,
			trace: *trace, traceOut: *traceOut, scratch: *scratch, out: os.Stdout,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		for _, e := range res.errs {
			fmt.Println("FAILED:", e)
		}
		fmt.Println(res.samplesLine())
		fmt.Println(res.lastLine())
		if !res.Correct {
			return 1
		}
		return 0
	}

	r := runner{
		seed: *seed, rounds: *rounds, seconds: roundSeconds,
		scratch: *scratch, traceOut: *traceOut, jsonOut: *jsonOut,
		workloads: workloadNames, out: os.Stdout,
	}
	if *workload != "" {
		r.workloads = []string{*workload}
	}
	var err error
	switch {
	case *selfcheck:
		err = r.selfcheck()
	case *trace:
		err = r.traced()
	default:
		err = r.report()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}
