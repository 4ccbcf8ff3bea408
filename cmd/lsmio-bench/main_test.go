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
