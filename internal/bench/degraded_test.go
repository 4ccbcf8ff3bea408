package bench

import "testing"

func TestExtDegradedFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank degradation sweep skipped in -short mode")
	}
	fig := ExtDegraded()
	scale := Scale{Nodes: []int{1, 4}, PerRankBytes: 2 << 20, BufferSize: 512 << 10}
	var lines int
	fr, err := RunFigure(fig, scale, func(string) { lines++ })
	if err != nil {
		t.Fatal(err)
	}
	// 4 mode points + 2 p99 points per node count, one progress line each.
	if want := 6 * len(scale.Nodes); len(fr.Points) != want || lines != want {
		t.Fatalf("points=%d progress=%d, want %d", len(fr.Points), lines, want)
	}
	healthy, err := fr.BW("healthy", kb64, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := fr.BW("dead-1", kb64, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The dead-1 runner itself validates restore + scrub; here we only
	// require the run to stay usable, not collapse.
	if dead < 0.3*healthy {
		t.Fatalf("dead-1 %.1f MB/s collapsed vs healthy %.1f MB/s", dead/1e6, healthy/1e6)
	}
	hedged, err := fr.BW("slow-1", kb64, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	unhedged, err := fr.BW("slow-1-nohedge", kb64, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if hedged < unhedged {
		t.Fatalf("hedging made the slow-OST run slower: %.1f vs %.1f MB/s",
			hedged/1e6, unhedged/1e6)
	}
	for _, o := range fr.Evaluate() {
		if o.Err != nil {
			t.Fatalf("check %q errored: %v", o.Desc, o.Err)
		}
	}
}
