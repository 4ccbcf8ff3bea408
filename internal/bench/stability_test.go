package bench

import "testing"

// TestExtStabilityFigureRuns runs the sustained-load A/B at quick scale
// and asserts the full stability gate: the scheduler must cut windowed
// throughput variance and p999 drift, keep the mean-throughput cost
// within 5%, and improve the storm-phase commit p99. This is the same
// bar `make figures` enforces via the figure's shape checks.
func TestExtStabilityFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained-load stability sweep skipped in -short mode")
	}
	fig, ok := FigureByID("ext-stability")
	if !ok {
		t.Fatal("ext-stability missing from catalogue")
	}
	fr, err := RunFigure(fig, QuickScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(fig.Series); len(fr.Points) != want {
		t.Fatalf("points=%d, want %d", len(fr.Points), want)
	}
	for _, key := range []string{"sched-on", "sched-off"} {
		if _, ok := fr.Metrics[key]; !ok {
			t.Fatalf("figure metrics missing %q snapshot", key)
		}
	}
	if _, ok := fr.Metrics["sched-on"].Counters["iosched.foreground.grants"]; !ok {
		t.Fatal("sched-on metrics carry no iosched instruments")
	}
	for _, o := range fr.Evaluate() {
		if o.Err != nil {
			t.Fatalf("check %q errored: %v", o.Desc, o.Err)
		}
		if !o.Passed {
			t.Errorf("check %q failed: got %.3f, want [%.2f, %.2f]", o.Desc, o.Got, o.Min, o.Max)
		}
	}
}
