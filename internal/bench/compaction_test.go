package bench

import "testing"

func TestExtCompactionFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("compaction pipeline sweep skipped in -short mode")
	}
	fig := ExtCompaction()
	scale := Scale{Nodes: []int{1, 4}, PerRankBytes: 2 << 20, BufferSize: 512 << 10}
	var lines int
	fr, err := RunFigure(fig, scale, func(string) { lines++ })
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * 3; len(fr.Points) != want || lines != want {
		t.Fatalf("points=%d progress=%d, want %d", len(fr.Points), lines, want)
	}
	four, err := fr.BW("lsm-jobs", compValueSize, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	one, err := fr.BW("lsm-jobs", compValueSize, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The full ≥1.3× acceptance bar belongs to the paper-scale run; at
	// this reduced scale the parallel pool must still come out ahead.
	if four < 1.05*one {
		t.Fatalf("4-job throughput %.1f MB/s not ahead of single-job %.1f MB/s",
			four/1e6, one/1e6)
	}
	smooth, err := fr.BW("put-p99-smooth", compValueSize, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := fr.BW("put-p99-hard", compValueSize, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if smooth < hard {
		t.Fatalf("smoothing worsened p99: smooth %.1f vs hard %.1f MB/s effective",
			smooth/1e6, hard/1e6)
	}
	for _, o := range fr.Evaluate() {
		if o.Err != nil {
			t.Fatalf("check %q errored: %v", o.Desc, o.Err)
		}
	}
}
