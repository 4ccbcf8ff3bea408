package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the
// catalogue in metrics.go identical, and both inside the contract's
// limits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(raw))
	}
	var got benchmarkFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: roundSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	if !reflect.DeepEqual(got, want) {
		b, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the catalogue in metrics.go; the catalogue says:\n%s", b)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for i, w := range workloadDefs {
		check(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workloadDefs[%d] is %q, workloadNames[%d] is %q", i, w.Name, i, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if n := len(endToEndMetrics); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range endToEndMetrics {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's pattern", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayerMetrics {
		check(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "ckpt-llm", "--seed", "7", "--seconds", "20", "--trace", "1"})
	want := []string{"--workload", "ckpt-llm", "--seed", "7", "--seconds", "20", "-trace=true"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q", got)
	}
	got = normalizeArgs([]string{"-trace", "-seed", "3"})
	if want := []string{"-trace", "-seed", "3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("a bare -trace must stay a bare flag, got %q", got)
	}
}
