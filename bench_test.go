package lsmio_test

// Benchmark harness: one testing.B benchmark per paper table/figure
// (running the figure's sweep at a reduced scale and reporting the
// series' aggregate bandwidths as custom metrics), plus ablation
// benchmarks for each design choice DESIGN.md calls out. The full
// paper-scale regeneration is `go run ./cmd/lsmio-bench`.

import (
	"fmt"
	"testing"

	"lsmio"
	"lsmio/internal/bench"
	"lsmio/internal/histdata"
	"lsmio/internal/ior"
	"lsmio/internal/pfs"
	"lsmio/internal/sim"
)

// benchScale is small enough for test runs but keeps every mechanism
// (memtable rotation, stripe interleave, lock migration) active.
func benchScale() bench.Scale {
	return bench.Scale{
		Nodes:        []int{8},
		PerRankBytes: 2 << 20,
		BufferSize:   512 << 10,
	}
}

// runFigureBench sweeps one figure per iteration and reports each series'
// bandwidth in MB/s.
func runFigureBench(b *testing.B, fig bench.Figure) {
	b.Helper()
	var last *bench.FigureResult
	for i := 0; i < b.N; i++ {
		fr, err := bench.RunFigure(fig, benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		last = fr
	}
	if last != nil {
		for _, s := range last.Figure.Series {
			bw := last.PeakBW(s.Name, last.Figure.Transfers[0], 0)
			b.ReportMetric(bw/1e6, s.Name+"_MB/s")
		}
	}
}

func BenchmarkFig01GrowthData(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := histdata.ComputeGrowth(histdata.Figure1())
		if g.ComputeFactor < 1000 {
			b.Fatal("growth data corrupted")
		}
	}
}

func BenchmarkFig05BaselineVsLSMIO(b *testing.B)   { runFigureBench(b, bench.Fig5()) }
func BenchmarkFig06HDF5ADIOS2VsLSMIO(b *testing.B) { runFigureBench(b, bench.Fig6()) }
func BenchmarkFig07PluginTrio(b *testing.B)        { runFigureBench(b, bench.Fig7()) }
func BenchmarkFig08StripeCounts(b *testing.B)      { runFigureBench(b, bench.Fig8()) }
func BenchmarkFig09Collective(b *testing.B)        { runFigureBench(b, bench.Fig9()) }
func BenchmarkFig10Reads(b *testing.B)             { runFigureBench(b, bench.Fig10()) }

// ---------------------------------------------------------------------
// Ablations: the engine-level design choices the paper's §3.1.1 toggles,
// measured as real (wall-clock) put+barrier throughput on the in-memory
// filesystem. b.SetBytes makes `go test -bench` report real MB/s.

const (
	ablationValue = 16 << 10
	ablationPuts  = 256
)

func ablationStore(b *testing.B, mutate func(*lsmio.StoreOptions)) lsmio.Store {
	b.Helper()
	opts := lsmio.StoreOptions{
		FS:              lsmio.NewMemFS(),
		WriteBufferSize: 1 << 20,
	}
	if mutate != nil {
		mutate(&opts)
	}
	st, err := lsmio.OpenStore(fmt.Sprintf("ablate-%d", b.N), opts)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func runAblation(b *testing.B, mutate func(*lsmio.StoreOptions)) {
	b.Helper()
	value := make([]byte, ablationValue)
	for i := range value {
		value[i] = byte(i * 7)
	}
	b.SetBytes(ablationValue * ablationPuts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := ablationStore(b, mutate)
		b.StartTimer()
		for j := 0; j < ablationPuts; j++ {
			if err := st.Put(fmt.Sprintf("key-%06d", j), value, false); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.WriteBarrier(true); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
}

// BenchmarkAblationWAL compares the paper's headline customization:
// write-ahead log disabled (default here) versus enabled.
func BenchmarkAblationWAL(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { runAblation(b, nil) })
	b.Run("enabled", func(b *testing.B) {
		runAblation(b, func(o *lsmio.StoreOptions) { o.EnableWAL = true })
	})
}

// BenchmarkAblationSync compares asynchronous flushing (barrier-based
// durability) with fully synchronous writes.
func BenchmarkAblationSync(b *testing.B) {
	b.Run("async", func(b *testing.B) {
		runAblation(b, func(o *lsmio.StoreOptions) { o.Async = true })
	})
	b.Run("sync-flush", func(b *testing.B) { runAblation(b, nil) })
}

// BenchmarkAblationBufferSize sweeps the memtable size (the knob the
// paper ties to ADIOS2's BufferChunkSize).
func BenchmarkAblationBufferSize(b *testing.B) {
	for _, size := range []int{256 << 10, 1 << 20, 4 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			runAblation(b, func(o *lsmio.StoreOptions) { o.WriteBufferSize = size })
		})
	}
}

// BenchmarkAblationBlockSize sweeps the SSTable block size.
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			runAblation(b, func(o *lsmio.StoreOptions) { o.BlockSize = size })
		})
	}
}

// BenchmarkAblationCompression compares raw blocks (the paper's choice
// for checkpoint data) with the two block codecs (snappy, flate).
func BenchmarkAblationCompression(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { runAblation(b, nil) })
	b.Run("snappy", func(b *testing.B) {
		runAblation(b, func(o *lsmio.StoreOptions) {
			o.EnableCompression = true
			o.Codec = lsmio.CompressionSnappy
		})
	})
	b.Run("flate", func(b *testing.B) {
		runAblation(b, func(o *lsmio.StoreOptions) {
			o.EnableCompression = true
			o.Codec = lsmio.CompressionFlate
		})
	})
}

// BenchmarkAblationCompaction compares compaction off (write-once
// checkpoints) with leveled compaction on.
func BenchmarkAblationCompaction(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { runAblation(b, nil) })
	b.Run("enabled", func(b *testing.B) {
		runAblation(b, func(o *lsmio.StoreOptions) { o.EnableCompaction = true })
	})
}

// BenchmarkAblationBackend compares the rocks-style local store (no WAL)
// with the level-style store (WAL + WriteBatch aggregation, §3.1.2).
func BenchmarkAblationBackend(b *testing.B) {
	b.Run("rocks", func(b *testing.B) {
		runAblation(b, func(o *lsmio.StoreOptions) { o.Backend = lsmio.BackendRocks })
	})
	b.Run("level", func(b *testing.B) {
		runAblation(b, func(o *lsmio.StoreOptions) { o.Backend = lsmio.BackendLevel })
	})
}

// BenchmarkAblationMMap compares per-block table writes with mmap-style
// coalesced segments.
func BenchmarkAblationMMap(b *testing.B) {
	b.Run("off", func(b *testing.B) { runAblation(b, nil) })
	b.Run("on", func(b *testing.B) {
		runAblation(b, func(o *lsmio.StoreOptions) { o.UseMMap = true })
	})
}

// BenchmarkAblationBatchRead compares the paper's current read path
// (synchronous point lookups, §4.5) with the §5.1 batch-read proposal
// (one sequential sweep), on the simulated cluster.
func BenchmarkAblationBatchRead(b *testing.B) {
	run := func(b *testing.B, batch bool) {
		const nodes = 8
		for i := 0; i < b.N; i++ {
			cluster := pfs.NewCluster(sim.NewKernel(), pfs.VikingConfig(nodes))
			p := ior.DefaultParams(ior.APILSMIO, 64<<10, 16)
			p.WriteBufferSize = 512 << 10
			p.DoRead = true
			p.LSMIOBatchRead = batch
			res, err := ior.Run(cluster, nodes, p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.ReadBW/1e6, "read_MB/s")
		}
	}
	b.Run("point-gets", func(b *testing.B) { run(b, false) })
	b.Run("batch-scan", func(b *testing.B) { run(b, true) })
}
