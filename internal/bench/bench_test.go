package bench

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"lsmio/internal/ior"
)

func tinyScale() Scale {
	return Scale{Nodes: []int{1, 2}, PerRankBytes: 256 << 10, BufferSize: 128 << 10}
}

func TestFigureCatalogueComplete(t *testing.T) {
	want := []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "ext-nvme", "ext-burst", "ext-degraded", "ext-compaction", "ext-restore", "ext-service", "ext-pipeline", "ext-stability"}
	figs := Figures()
	if len(figs) != len(want) {
		t.Fatalf("%d figures, want %d", len(figs), len(want))
	}
	for i, id := range want {
		if figs[i].ID != id {
			t.Fatalf("figure %d = %s, want %s", i, figs[i].ID, id)
		}
		if len(figs[i].Series) == 0 || len(figs[i].Transfers) == 0 {
			t.Fatalf("figure %s has no series/transfers", id)
		}
	}
}

func TestRunFigureProducesAllPoints(t *testing.T) {
	fig := Figure{
		ID:        "test",
		Title:     "smoke",
		Transfers: []int64{64 << 10},
		Phase:     PhaseWrite,
		Series: []Series{
			{Name: "ior", Make: plain(ior.APIPosix)},
			{Name: "lsmio", Make: plain(ior.APILSMIO)},
		},
	}
	var progressLines int
	fr, err := RunFigure(fig, tinyScale(), func(string) { progressLines++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Points) != 4 { // 2 series x 2 node counts
		t.Fatalf("points = %d", len(fr.Points))
	}
	if progressLines != 4 {
		t.Fatalf("progress lines = %d", progressLines)
	}
	for _, p := range fr.Points {
		if p.BW <= 0 {
			t.Fatalf("point %+v has no bandwidth", p)
		}
	}
	if bw, err := fr.BW("ior", 64<<10, 4, 2); err != nil || bw <= 0 {
		t.Fatalf("BW lookup: %v %v", bw, err)
	}
	if _, err := fr.BW("bogus", 0, 0, 2); err == nil {
		t.Fatal("BW lookup of missing series should error")
	}
	if fr.MaxNodes() != 2 {
		t.Fatalf("MaxNodes = %d", fr.MaxNodes())
	}
	if fr.PeakBW("lsmio", 0, 0) <= 0 {
		t.Fatal("PeakBW = 0")
	}
}

func TestTableAndCSVRender(t *testing.T) {
	fig := Figure{
		ID:        "render",
		Title:     "render test",
		Transfers: []int64{64 << 10},
		Phase:     PhaseWrite,
		Series:    []Series{{Name: "ior", Make: plain(ior.APIPosix)}},
	}
	fr, err := RunFigure(fig, tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	table := fr.Table()
	if !strings.Contains(table, "render test") || !strings.Contains(table, "ior") {
		t.Fatalf("table:\n%s", table)
	}
	csv := fr.CSV()
	if !strings.Contains(csv, "figure,series,") || strings.Count(csv, "\n") != 3 {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestChecksEvaluate(t *testing.T) {
	fig := Figure{
		ID:        "checks",
		Title:     "check eval",
		Transfers: []int64{64 << 10},
		Phase:     PhaseWrite,
		Series:    []Series{{Name: "ior", Make: plain(ior.APIPosix)}},
		Checks: []Check{
			{
				Desc:  "trivially true",
				Ratio: ratioAtMaxNodes("ior", 64<<10, "ior", 64<<10, 4),
				Min:   0.99, Max: 1.01, Paper: 1,
			},
			{
				Desc:  "missing series errors",
				Ratio: ratioAtMaxNodes("ghost", 64<<10, "ior", 64<<10, 4),
				Min:   1,
			},
		},
	}
	fr, err := RunFigure(fig, tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := fr.Evaluate()
	if len(out) != 2 {
		t.Fatalf("outcomes = %d", len(out))
	}
	if !out[0].Passed || out[0].Err != nil {
		t.Fatalf("check 0: %+v", out[0])
	}
	if out[1].Err == nil {
		t.Fatal("check 1 should error")
	}
}

// BenchmarkSimIORSweep is one Fig. 5 + Fig. 10 sweep at the benchmark
// harness's sim-ior scale, after the same reduced warm-up sweep. Profile
// the simulator with
//
//	go test -run '^$' -bench SimIORSweep -cpuprofile cpu.out ./internal/bench
func BenchmarkSimIORSweep(b *testing.B) {
	figs := []Figure{Fig5(), Fig10()}
	sweep := func(scale Scale) {
		for _, f := range figs {
			if _, err := RunFigure(f, scale, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	sweep(Scale{Nodes: []int{4}, PerRankBytes: 1 << 20, BufferSize: 256 << 10})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(Scale{Nodes: []int{16}, PerRankBytes: 4 << 20, BufferSize: 1 << 20})
	}
}

// A figure point that follows a closed one takes the closed point's
// pages from vfs's page pool, so the simulated file costs it no fresh
// allocation. The point is Fig. 5's IOR baseline at 1 MiB transfers,
// 4 ranks x 8 MiB; its rank buffers alone are 0.125 bytes per payload
// byte. Measured 0.13 (0.32-0.44 under -race, where sync.Pool drops a
// quarter of what it is given at random); a point whose cluster is not
// closed allocates every page again: 1.13. The GC is off while it
// runs: a collection empties the pool.
func TestFigurePointAllocationRatchet(t *testing.T) {
	const limit = 0.75
	f := Fig5()
	f.Series = f.Series[:1]
	f.Transfers = []int64{1 << 20}
	scale := Scale{Nodes: []int{4}, PerRankBytes: 8 << 20, BufferSize: 1 << 20}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, err := RunFigure(f, scale, nil); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fr, err := RunFigure(f, scale, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	payload := fr.Points[0].Result.TotalBytes
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(payload)
	t.Logf("second point: %.3f bytes allocated per payload byte (%d B payload)", perByte, payload)
	if perByte > limit {
		t.Errorf("%.3f bytes allocated per payload byte, limit %.2f: the point did not reuse the pages of the one before", perByte, limit)
	}
}

func TestScalesAreSane(t *testing.T) {
	p := PaperScale()
	if p.Nodes[len(p.Nodes)-1] != 48 {
		t.Fatalf("paper scale max nodes = %d", p.Nodes[len(p.Nodes)-1])
	}
	q := QuickScale()
	if q.PerRankBytes >= p.PerRankBytes {
		t.Fatal("quick scale should be smaller than paper scale")
	}
	if p.PerRankBytes%(1<<20) != 0 {
		t.Fatal("per-rank bytes must be transfer-aligned")
	}
}
