package bench

import "testing"

func TestExtBurstFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank simulation sweep skipped in -short mode")
	}
	fig := ExtBurst()
	scale := Scale{Nodes: []int{1, 4}, PerRankBytes: 2 << 20, BufferSize: 512 << 10}
	var lines int
	fr, err := RunFigure(fig, scale, func(string) { lines++ })
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * len(scale.Nodes); len(fr.Points) != want || lines != want {
		t.Fatalf("points=%d progress=%d, want %d", len(fr.Points), lines, want)
	}
	staged, err := fr.BW("burst-staged", kb64, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sync, err := fr.BW("sync", kb64, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The full ≥5× acceptance bar belongs to the paper-scale run; at
	// this reduced scale the staged commit must still clearly beat the
	// synchronous one.
	if staged < 1.5*sync {
		t.Fatalf("staged effective BW %.1f not ahead of sync %.1f", staged/1e6, sync/1e6)
	}
	durable, err := fr.BW("burst-durable", kb64, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	syncTotal, err := fr.BW("sync-total", kb64, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if durable < syncTotal/1.5 {
		t.Fatalf("time-to-durable blew up: durable %.1f vs sync-total %.1f MB/s",
			durable/1e6, syncTotal/1e6)
	}
	for _, o := range fr.Evaluate() {
		if o.Err != nil {
			t.Fatalf("check %q errored: %v", o.Desc, o.Err)
		}
	}
}
