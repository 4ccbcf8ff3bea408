package ckpt

import (
	"fmt"
	"math/rand"
	"testing"

	"lsmio/internal/core"
	"lsmio/internal/lsm"
	"lsmio/internal/vfs"
)

// benchStepBytes is one benchmark step: the ckpt-llm workload's 128 MiB
// step scaled to a quarter, with every object size scaled alike.
const benchStepBytes = 32 << 20

// benchClass is one band of a benchmark step's object-size mix: share of
// the step's bytes in objects of min..max bytes.
type benchClass struct {
	name     string
	share    float64
	min, max int
}

// benchStep returns one step of the ckpt-llm object-size mix (Gossman et
// al., PAPERS.md; benchmark/gen.go) scaled by a quarter: 60% of the
// bytes in tensors of 2–8 MiB, 35% in shards of 64–512 KiB and 5% in
// metadata objects of 256 B–16 KiB, incompressible, in shuffled order.
func benchStep() (vars []fixtureWrite, total int64) {
	return benchMix([]benchClass{
		{"tensor", 0.60, 2 << 20, 8 << 20},
		{"shard", 0.35, 64 << 10, 512 << 10},
		{"meta", 0.05, 256, 16 << 10},
	}, false)
}

// benchSmallObjStep returns one step of the ckpt-smallobj mix: objects of
// 4–64 KiB, every 64 random bytes followed by their copy (which snappy
// halves), in shuffled order. The step is benchStepBytes, the size of
// BenchmarkCkptRestore's; the object sizes are the workload's own, since
// at a quarter of them most objects would share a 4 KiB block.
func benchSmallObjStep() (vars []fixtureWrite, total int64) {
	return benchMix([]benchClass{{"obj", 1, 4 << 10, 64 << 10}}, true)
}

// benchMix draws benchStepBytes of objects of the classes.
func benchMix(classes []benchClass, compressible bool) (vars []fixtureWrite, total int64) {
	rng := rand.New(rand.NewSource(1))
	var out []fixtureWrite
	for _, c := range classes {
		for left := int(c.share * benchStepBytes); left > 0; {
			n := min(left, c.min+rng.Intn(c.max-c.min))
			data := make([]byte, n)
			if compressible {
				for off := 0; off < n; off += 128 {
					rng.Read(data[off:min(off+64, n)])
					copy(data[min(off+64, n):], data[off:min(off+64, n)])
				}
			} else {
				rng.Read(data)
			}
			out = append(out, fixtureWrite{fmt.Sprintf("%s.%04d", c.name, len(out)), data})
			left -= n
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for _, v := range out {
		total += int64(len(v.data))
	}
	return out, total
}

// paperBenchOptions are the paper's options (no WAL, no codec, no cache,
// no compaction; asynchronous flushes; 32 MiB memtable, 64 KiB blocks),
// as the ckpt-llm workload's.
func paperBenchOptions() core.StoreOptions {
	return core.StoreOptions{
		Backend: core.BackendRocks, FS: vfs.NewMemFS(), Async: true,
		WriteBufferSize: 32 << 20, BlockSize: 64 << 10,
	}
}

// smallObjBenchOptions are the ckpt-smallobj workload's: WAL, snappy,
// block cache and compaction on, 4 MiB memtable, 4 KiB blocks.
func smallObjBenchOptions() core.StoreOptions {
	return core.StoreOptions{
		Backend: core.BackendRocks, FS: vfs.NewMemFS(), Async: true,
		WriteBufferSize: 4 << 20, BlockSize: 4 << 10,
		EnableWAL: true, EnableCompression: true, EnableCache: true, EnableCompaction: true,
		Codec: lsm.CompressionSnappy,
	}
}

// openBenchStore opens a checkpoint store with so on a MemFS, keeping
// the newest two steps.
func openBenchStore(b *testing.B, so core.StoreOptions) (*Store, *core.Manager) {
	mgr, err := core.NewManager("app", core.ManagerOptions{Store: so})
	if err != nil {
		b.Fatal(err)
	}
	return New(mgr, Options{Keep: 2}), mgr
}

func commitBenchStep(b *testing.B, s *Store, step int64, vars []fixtureWrite) {
	c, err := s.Begin(step)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range vars {
		if err := c.Write(v.name, v.data); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Commit(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCkptCommit is the commit path of ckpt-llm per layer: one op
// writes and commits a 32 MiB step (Write of every variable, then
// Commit's barriers, manifest and retention), reported as payload MB/s,
// B/op and allocs/op. The MemFS's own page copies count in B/op.
func BenchmarkCkptCommit(b *testing.B) {
	vars, total := benchStep()
	s, mgr := openBenchStore(b, paperBenchOptions())
	defer mgr.Close()
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commitBenchStep(b, s, int64(i+1), vars)
	}
}

// BenchmarkCkptRestore is the restore path of ckpt-llm per layer: one op
// restores and verifies a committed 32 MiB step with two readers, as the
// workload does.
func BenchmarkCkptRestore(b *testing.B) {
	benchmarkRestore(b, paperBenchOptions(), benchStep)
}

// BenchmarkCkptRestoreSmallObj is the restore path of ckpt-smallobj: the
// same, on that workload's options and object-size mix. The step is four
// times the block cache.
func BenchmarkCkptRestoreSmallObj(b *testing.B) {
	benchmarkRestore(b, smallObjBenchOptions(), benchSmallObjStep)
}

func benchmarkRestore(b *testing.B, so core.StoreOptions, step func() ([]fixtureWrite, int64)) {
	vars, total := step()
	s, mgr := openBenchStore(b, so)
	defer mgr.Close()
	commitBenchStep(b, s, 1, vars)
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step, state, _, err := s.Restore(RestoreOptions{Parallel: 2})
		if err != nil || step != 1 || len(state) != len(vars) {
			b.Fatalf("restore = step %d, %d variables, %v", step, len(state), err)
		}
	}
}
