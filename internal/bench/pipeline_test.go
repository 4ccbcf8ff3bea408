package bench

import "testing"

func TestExtPipelineFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline sweep skipped in -short mode")
	}
	fig := ExtPipeline()
	scale := Scale{Nodes: []int{1, 4}, PerRankBytes: 1 << 20, BufferSize: 256 << 10}
	var lines int
	fr, err := RunFigure(fig, scale, func(string) { lines++ })
	if err != nil {
		t.Fatal(err)
	}
	// 1 flush-serial + 3 flush-piped + 1 io-busy + 2 compact + 2 wal +
	// 1 wal-group-size.
	if want := 10; len(fr.Points) != want || lines != want {
		t.Fatalf("points=%d progress=%d, want %d", len(fr.Points), lines, want)
	}
	piped, err := fr.BW("flush-piped", pipeValueSize, 4, pipeEncodeWorkers)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := fr.BW("flush-serial", pipeValueSize, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The full ≥1.3× acceptance bar belongs to the quick/paper-scale run
	// (make figures); at test scale just require a real speedup.
	if piped <= serial {
		t.Fatalf("piped flush (%.1f MB/s) not faster than serial (%.1f MB/s)", piped/1e6, serial/1e6)
	}
	cohort, err := fr.BW("wal-group-size", pipeValueSize, 4, pipeWALWriters)
	if err != nil {
		t.Fatal(err)
	}
	if cohort < 2 {
		t.Fatalf("mean WAL cohort %.2f, want >= 2", cohort)
	}
	for _, key := range []string{"flush-serial", "wal-grouped"} {
		snap, ok := fr.Metrics[key]
		if !ok || snap.Empty() {
			t.Fatalf("figure JSON would miss the %s registry snapshot", key)
		}
	}
}
