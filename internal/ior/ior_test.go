package ior

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"lsmio/internal/pfs"
	"lsmio/internal/sim"
)

func smallCluster(nodes int) *pfs.Cluster {
	cfg := pfs.VikingConfig(nodes)
	return pfs.NewCluster(sim.NewKernel(), cfg)
}

// smallParams keeps the data volume tiny so correctness tests are fast.
func smallParams(api API) Params {
	p := DefaultParams(api, 64<<10, 4) // 4 segments of 64 KB per rank
	p.DoRead = true
	p.Verify = true
	p.WriteBufferSize = 256 << 10
	return p
}

func TestAllAPIsWriteReadVerify(t *testing.T) {
	for _, api := range []API{APIPosix, APIHDF5, APIADIOS2, APILSMIO, APILSMIOPlugin} {
		for _, nodes := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/n%d", api, nodes), func(t *testing.T) {
				cluster := smallCluster(nodes)
				res, err := Run(cluster, nodes, smallParams(api))
				if err != nil {
					t.Fatal(err)
				}
				if res.WriteBW <= 0 || res.ReadBW <= 0 {
					t.Fatalf("bandwidths: write=%v read=%v", res.WriteBW, res.ReadBW)
				}
				if res.TotalBytes != int64(nodes)*4*64<<10 {
					t.Fatalf("total bytes = %d", res.TotalBytes)
				}
			})
		}
	}
}

func TestCollectiveWriteReadVerify(t *testing.T) {
	for _, api := range []API{APIPosix, APIHDF5} {
		for _, nodes := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/n%d", api, nodes), func(t *testing.T) {
				cluster := smallCluster(nodes)
				p := smallParams(api)
				p.Collective = true
				res, err := Run(cluster, nodes, p)
				if err != nil {
					t.Fatal(err)
				}
				if res.WriteBW <= 0 || res.ReadBW <= 0 {
					t.Fatalf("bandwidths: %+v", res)
				}
			})
		}
	}
}

func TestFilePerProcess(t *testing.T) {
	for _, api := range []API{APIPosix, APIHDF5} {
		t.Run(string(api), func(t *testing.T) {
			cluster := smallCluster(4)
			p := smallParams(api)
			p.FilePerProc = true
			res, err := Run(cluster, 4, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.WriteBW <= 0 || res.ReadBW <= 0 {
				t.Fatalf("bandwidths: %+v", res)
			}
		})
	}
}

func TestLevelBackendLSMIO(t *testing.T) {
	cluster := smallCluster(2)
	p := smallParams(APILSMIO)
	p.LSMIOBackend = "level"
	res, err := Run(cluster, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteBW <= 0 || res.ReadBW <= 0 {
		t.Fatalf("bandwidths: %+v", res)
	}
}

func TestTransferSmallerThanBlock(t *testing.T) {
	cluster := smallCluster(2)
	p := smallParams(APIPosix)
	p.BlockSize = 4 * p.TransferSize // 4 transfers per block
	res, err := Run(cluster, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesPerRank != p.BlockSize*int64(p.SegmentCount) {
		t.Fatalf("bytes per rank = %d", res.BytesPerRank)
	}
}

func TestParamValidation(t *testing.T) {
	cluster := smallCluster(1)
	p := smallParams(APIPosix)
	p.TransferSize = 0
	if _, err := Run(cluster, 1, p); err == nil {
		t.Fatal("zero transfer size should error")
	}
	p = smallParams(APIPosix)
	p.BlockSize = p.TransferSize * 3 / 2
	if _, err := Run(cluster, 1, p); err == nil {
		t.Fatal("non-multiple block size should error")
	}
	p = smallParams("bogus")
	if _, err := Run(cluster, 1, p); err == nil {
		t.Fatal("unknown API should error")
	}
}

func TestSegmentedLayoutInterleavesRanks(t *testing.T) {
	e := &env{p: &Params{TransferSize: 64 << 10, BlockSize: 64 << 10}, nodes: 4}
	// Segment 0: ranks at 0, 64K, 128K, 192K. Segment 1 starts at 256K.
	if got := e.fileOffsetFor(2, 0, 0); got != 128<<10 {
		t.Fatalf("rank2 seg0 = %d", got)
	}
	if got := e.fileOffsetFor(0, 1, 0); got != 256<<10 {
		t.Fatalf("rank0 seg1 = %d", got)
	}
	e.p.FilePerProc = true
	if got := e.fileOffsetFor(2, 1, 0); got != 64<<10 {
		t.Fatalf("fpp rank2 seg1 = %d", got)
	}
}

// TestWriteReadBandwidthOrdering sanity-checks the model at a small scale:
// LSMIO must beat the interleaved shared-file baseline once ranks exceed
// the stripe count.
func TestLSMIOBeatsBaselinePastStripeCount(t *testing.T) {
	const nodes = 8 // stripe count 4
	base, err := Run(smallCluster(nodes), nodes, func() Params {
		p := DefaultParams(APIPosix, 64<<10, 16)
		return p
	}())
	if err != nil {
		t.Fatal(err)
	}
	lsmio, err := Run(smallCluster(nodes), nodes, func() Params {
		p := DefaultParams(APILSMIO, 64<<10, 16)
		p.WriteBufferSize = 1 << 20
		return p
	}())
	if err != nil {
		t.Fatal(err)
	}
	if lsmio.WriteBW <= base.WriteBW {
		t.Fatalf("LSMIO (%.1f MB/s) should beat baseline (%.1f MB/s) at %d nodes",
			lsmio.WriteBW/1e6, base.WriteBW/1e6, nodes)
	}
}

func TestLSMIOBatchRead(t *testing.T) {
	cluster := smallCluster(4)
	p := smallParams(APILSMIO)
	p.LSMIOBatchRead = true
	res, err := Run(cluster, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadBW <= 0 {
		t.Fatalf("read bandwidth: %+v", res)
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// TestCollectiveWriteAllocationRatchet: a collective posix N-to-1 write
// (8 ranks x 4 MiB in 1 MiB transfers) allocates at most a stated
// multiple of its payload. The floor is the same run with 1 KiB
// transfers, measured in the same build: it has the same ranks, messages
// and I/O calls, so it carries the per-operation cost and leaves the
// per-byte cost to be compared. Measured: 1.75 B/B, which is each page of
// the simulated file once (1), the pieces the exchange sends (0.5:
// ranks 4-7 ship theirs to aggregators 0-3) and the ranks' transfer
// buffers (0.25).
func TestCollectiveWriteAllocationRatchet(t *testing.T) {
	const nodes, segments, limit = 8, 4, 2.0
	run := func(xfer int64) float64 {
		cluster := smallCluster(nodes)
		p := DefaultParams(APIPosix, xfer, segments)
		p.Collective = true
		return allocated(func() {
			if _, err := Run(cluster, nodes, p); err != nil {
				t.Fatal(err)
			}
		})
	}
	floor := run(1 << 10)
	payload := float64(nodes * segments << 20)
	perByte := (run(1<<20) - floor) / payload
	t.Logf("%d ranks x %d MiB in 1 MiB transfers: %.3f B allocated per payload byte beyond the 1 KiB run's %.0f B",
		nodes, segments, perByte, floor)
	if perByte > limit {
		t.Errorf("%.3f B allocated per payload byte, limit %.2f: a copy is back on the simulated data path", perByte, float64(limit))
	}
}

// TestVerifyCatchesCorruption is the mutation check of Verify: one byte
// of the stored file flipped between the write and the read phase must
// fail the read-back.
func TestVerifyCatchesCorruption(t *testing.T) {
	const nodes = 4
	cluster := smallCluster(nodes)
	p := smallParams(APIPosix)
	p.DoRead = false
	if _, err := Run(cluster, nodes, p); err != nil {
		t.Fatal(err)
	}
	f, err := cluster.Store().Open(p.TestFile)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	off := int64(3*p.BlockSize + 1000) // rank 3, segment 0
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	p.DoWrite, p.DoRead = false, true
	_, err = Run(cluster, nodes, p)
	if err == nil || !strings.Contains(err.Error(), "rank 3 seg 0: data verification failed") {
		t.Fatalf("read-back of a corrupted file: %v, want rank 3's verification error", err)
	}
}

// TestDeterminism runs the same experiment twice on fresh clusters and
// demands identical virtual-time results — the property that makes every
// number in EXPERIMENTS.md exactly reproducible.
func TestDeterminism(t *testing.T) {
	run := func() Result {
		cluster := smallCluster(4)
		p := smallParams(APILSMIO)
		res, err := Run(cluster, 4, p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.WriteSeconds != b.WriteSeconds || a.ReadSeconds != b.ReadSeconds {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}
