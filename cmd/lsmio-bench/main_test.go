package main

import (
	"errors"
	"strings"
	"testing"

	"lsmio/internal/bench"
)

// TestOutcomeLinePrintsBoundsExactly: a floor prints as written, so a
// pass at 1.09x against a 1.05 floor cannot read as a miss of "1.1", and
// a check without a paper value prints "paper –".
func TestOutcomeLinePrintsBoundsExactly(t *testing.T) {
	cases := []struct {
		o    bench.CheckOutcome
		want []string
	}{
		{bench.CheckOutcome{Desc: "piped", Min: 1.15, Got: 1.2, Passed: true}, []string{"paper – ", "band >= 1.15 ", "got 1.20x"}},
		{bench.CheckOutcome{Desc: "cov", Min: 1.05, Got: 1.09, Passed: true}, []string{"band >= 1.05 "}},
		{bench.CheckOutcome{Desc: "storm", Min: 1.02, Got: 1.2, Passed: true}, []string{"band >= 1.02 "}},
		{bench.CheckOutcome{Desc: "fig", Min: 1.05, Max: 4, Paper: 1.5, Got: 2}, []string{"paper 1.5x ", "band 1.05..4 "}},
	}
	for _, c := range cases {
		got := outcomeLine("PASS", c.o)
		for _, w := range c.want {
			if !strings.Contains(got, w) {
				t.Errorf("outcomeLine(%+v) = %q, missing %q", c.o, got, w)
			}
		}
	}
	if got := outcomeLine("ERR ", bench.CheckOutcome{Desc: "x", Err: errors.New("no data")}); !strings.HasSuffix(got, "no data") {
		t.Errorf("error outcome = %q", got)
	}
}

// TestOutcomeLineFlagsNearEdgePasses: a pass within 10% of its floor or
// cap says how far inside the bound it lies; a wider pass and a failure
// do not.
func TestOutcomeLineFlagsNearEdgePasses(t *testing.T) {
	cases := []struct {
		o    bench.CheckOutcome
		want string
	}{
		{bench.CheckOutcome{Desc: "piped", Min: 1.15, Got: 1.188, Passed: true}, " (3.3% over its bar)"},
		{bench.CheckOutcome{Desc: "cost", Min: 0.95, Max: 1.2, Got: 1.14, Passed: true}, " (5.0% under its cap)"},
		{bench.CheckOutcome{Desc: "wide", Min: 1.3, Got: 1.685, Passed: true}, ""},
		{bench.CheckOutcome{Desc: "miss", Min: 1.02, Got: 1.0}, ""},
	}
	for _, c := range cases {
		got := outcomeLine("PASS", c.o)
		if c.want == "" {
			if strings.Contains(got, "(") {
				t.Errorf("outcomeLine(%+v) = %q, want no margin note", c.o, got)
			}
		} else if !strings.HasSuffix(got, c.want) {
			t.Errorf("outcomeLine(%+v) = %q, want suffix %q", c.o, got, c.want)
		}
	}
}
