// Command lsmio-bench regenerates the LSMIO paper's evaluation figures on
// the simulated Viking cluster and evaluates the paper's headline ratios
// against tolerance bands.
//
// Usage:
//
//	lsmio-bench [-fig all|1|5..10|ext|ext-nvme|ext-burst|ext-degraded|ext-compaction|ext-restore|ext-service|ext-pipeline|ext-stability] [-scale paper|quick] [-csv dir] [-json dir] [-q]
//
// -fig also matches by prefix up to a dash: `-fig ext` runs the eight
// extension figures in one process.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"lsmio/internal/bench"
	"lsmio/internal/histdata"
)

func main() {
	figFlag := flag.String("fig", "all", "figure to run: all, 1, 5..10, ext (all eight ext-*), ext-nvme, ext-burst, ext-degraded, ext-compaction, ext-restore, ext-service, ext-pipeline, ext-stability")
	scaleFlag := flag.String("scale", "paper", "sweep scale: paper (1..48 nodes) or quick")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV files")
	jsonDir := flag.String("json", "", "directory to write per-figure BENCH_<fig>.json files")
	quiet := flag.Bool("q", false, "suppress per-point progress lines")
	flag.Parse()

	var scale bench.Scale
	switch *scaleFlag {
	case "paper":
		scale = bench.PaperScale()
	case "quick":
		scale = bench.QuickScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	wantFig := func(id string) bool {
		if *figFlag == "all" {
			return true
		}
		return "fig"+*figFlag == id || *figFlag == id || strings.HasPrefix(id, *figFlag+"-")
	}

	if *figFlag == "all" || *figFlag == "1" || *figFlag == "fig1" {
		fmt.Println("== fig1: compute vs I/O growth of the #1 system ==")
		fmt.Println(histdata.Table())
	}

	progress := func(line string) {
		if !*quiet {
			fmt.Println("  " + line)
		}
	}

	failed := 0
	for _, fig := range bench.Figures() {
		if !wantFig(fig.ID) {
			continue
		}
		fr, err := bench.RunFigure(fig, scale, progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", fig.ID, err)
			os.Exit(1)
		}
		fmt.Println(fr.Table())
		outcomes := fr.Evaluate()
		if len(outcomes) > 0 {
			fmt.Println("shape checks (paper value, accepted band, measured):")
			for _, o := range outcomes {
				status := "PASS"
				if o.Err != nil {
					status = "ERR "
					failed++
				} else if !o.Passed {
					status = "FAIL"
					failed++
				}
				fmt.Println(outcomeLine(status, o))
			}
			fmt.Println()
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, fig.ID+".csv")
			if err := os.WriteFile(path, []byte(fr.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
		if *jsonDir != "" {
			if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			blob, err := fr.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*jsonDir, "BENCH_"+fig.ID+".json")
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	if failed > 0 {
		fmt.Printf("%d shape check(s) outside their band\n", failed)
		os.Exit(1)
	}
	if *figFlag == "all" || strings.HasPrefix(*figFlag, "fig") || *figFlag != "1" {
		fmt.Println("all requested figures completed")
	}
}

// outcomeLine formats one shape check's result. Bounds print at their
// own precision (a 1.15 floor is not "1.1"), and a check the paper gives
// no value for says so instead of "0.0x".
func outcomeLine(status string, o bench.CheckOutcome) string {
	if o.Err != nil {
		return fmt.Sprintf("  [%s] %-62s %v", status, o.Desc, o.Err)
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	band := ">= " + num(o.Min)
	if o.Max > 0 {
		band = num(o.Min) + ".." + num(o.Max)
	}
	paper := "–"
	if o.Paper != 0 {
		paper = fmt.Sprintf("%.1fx", o.Paper)
	}
	return fmt.Sprintf("  [%s] %-62s paper %s band %s got %.2fx", status, o.Desc, paper, band, o.Got)
}
