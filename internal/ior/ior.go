// Package ior reimplements the IOR parallel I/O benchmark on the
// simulated cluster: the same block/transfer/segment access-pattern
// generator, N-to-1 shared-file and file-per-process layouts, optional
// collective I/O, write and read-back phases, and the same measurement
// rule the paper uses (first MPI barrier → last I/O operation → second
// MPI barrier).
//
// Five API backends mirror the paper's comparison: posix (the IOR
// baseline), hdf5, adios2, lsmio (the paper's library driven through its
// K/V API) and lsmio-plugin (LSMIO behind the ADIOS2 plugin interface).
package ior

import (
	"encoding/binary"
	"fmt"

	"lsmio/internal/core"
	"lsmio/internal/mpisim"
	"lsmio/internal/pfs"
	"lsmio/internal/rt"
)

// API selects the I/O backend.
type API string

// Backends.
const (
	APIPosix       API = "posix"
	APIHDF5        API = "hdf5"
	APIADIOS2      API = "adios2"
	APILSMIO       API = "lsmio"
	APILSMIOPlugin API = "lsmio-plugin"
)

// Params mirrors the IOR command line options the paper exercises.
type Params struct {
	API API
	// TransferSize is the bytes moved per I/O call; the paper sets it
	// equal to BlockSize (Appendix A.1.6).
	TransferSize int64
	// BlockSize is each rank's contiguous extent per segment.
	BlockSize int64
	// SegmentCount repeats the block pattern; per-rank data volume is
	// BlockSize * SegmentCount.
	SegmentCount int
	// FilePerProc switches from N-to-1 shared file to N-to-N.
	FilePerProc bool
	// Collective enables two-phase (ROMIO-style) I/O for posix and hdf5.
	Collective bool
	// StripeCount / StripeSize configure the file's Lustre layout.
	StripeCount int
	StripeSize  int64
	// DoWrite / DoRead select the phases; Verify checks data content on
	// read-back.
	DoWrite bool
	DoRead  bool
	Verify  bool
	// Fsync drains device queues inside the measured write phase (IOR -e).
	Fsync bool
	// TestFile is the base path on the PFS.
	TestFile string
	// WriteBufferSize sets LSMIO's memtable and ADIOS2's BufferChunkSize
	// (the paper uses 32 MB for both).
	WriteBufferSize int
	// LSMIOBackend picks the rocks- or level-style local store.
	LSMIOBackend core.Backend
	// LSMIOBatchRead reads back via one sequential batch sweep instead of
	// per-key point lookups (the paper's §5.1 read optimization).
	LSMIOBatchRead bool
}

// DefaultParams returns the paper's headline configuration for a given
// transfer size: transfer == block, N-to-1, stripe count 4.
func DefaultParams(api API, transfer int64, segments int) Params {
	return Params{
		API:             api,
		TransferSize:    transfer,
		BlockSize:       transfer,
		SegmentCount:    segments,
		StripeCount:     4,
		StripeSize:      transfer,
		DoWrite:         true,
		DoRead:          false,
		Fsync:           true,
		TestFile:        "testfile",
		WriteBufferSize: 32 << 20,
	}
}

func (p *Params) normalize() error {
	if p.TransferSize <= 0 || p.BlockSize <= 0 || p.SegmentCount <= 0 {
		return fmt.Errorf("ior: transfer/block/segments must be positive")
	}
	if p.BlockSize%p.TransferSize != 0 {
		return fmt.Errorf("ior: block size must be a multiple of transfer size")
	}
	if p.TestFile == "" {
		p.TestFile = "testfile"
	}
	if p.WriteBufferSize <= 0 {
		p.WriteBufferSize = 32 << 20
	}
	if p.StripeCount <= 0 {
		p.StripeCount = 4
	}
	if p.StripeSize <= 0 {
		p.StripeSize = p.TransferSize
	}
	return nil
}

// Result reports aggregate bandwidths in bytes/second, as IOR does.
type Result struct {
	Nodes        int
	WriteBW      float64
	ReadBW       float64
	WriteSeconds float64
	ReadSeconds  float64
	BytesPerRank int64
	TotalBytes   int64
	Storage      pfs.Stats // cumulative cluster stats after the run
}

// backend is one rank's API driver. Offsets are file offsets for the
// shared-file layout and per-own-file offsets for file-per-process.
type backend interface {
	// setupWrite prepares files for the write phase (outside the timed
	// region, like IOR's open outside -O useO_DIRECT ... timing).
	setupWrite() error
	// writeAt stores one transfer.
	writeAt(seg int, off int64, data []byte) error
	// finishWrite completes the write phase inside the timed region
	// (PerformPuts/close/write barrier, per API).
	finishWrite() error
	// setupRead prepares the read phase.
	setupRead() error
	// readAt loads one transfer.
	readAt(seg int, off int64, dst []byte) error
	// finishRead completes the read phase.
	finishRead() error
}

// env is what a backend needs from the harness.
type env struct {
	p     *Params
	rank  *mpisim.Rank
	fs    *pfs.ClientFS
	rt    rt.Runtime // the run's one rt.Sim: every store and engine runs on it
	nodes int
}

// fileOffset computes where (seg, transfer t) of this rank lands.
// IOR's segmented layout: segment s holds rank blocks back to back.
func (e *env) fileOffset(seg, t int) int64 {
	if e.p.FilePerProc {
		return int64(seg)*e.p.BlockSize + int64(t)*e.p.TransferSize
	}
	n := int64(e.nodes)
	return int64(seg)*n*e.p.BlockSize +
		int64(e.rank.Rank())*e.p.BlockSize +
		int64(t)*e.p.TransferSize
}

// pattern fills buf with a deterministic byte pattern that depends on the
// rank and the offset, so read-back verification is meaningful. It is an
// xorshift64 stream stored a word at a time: generating the payload took
// about half of the simulator's CPU time at one step per byte, and
// nothing in the virtual-time model reads payload content. The seed's
// constant keeps rank 0's first transfer from being all zeros, which a
// lost write would also read as.
func pattern(buf []byte, rank int, globalOff int64) {
	x := uint64(globalOff)*2654435761 + uint64(rank)*97 + 0x9e3779b97f4a7c15
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], next())
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(next())
	}
}

// Run executes one IOR experiment on a fresh MPI world over the cluster.
func Run(cluster *pfs.Cluster, nodes int, p Params) (Result, error) {
	if err := p.normalize(); err != nil {
		return Result{}, err
	}
	k := cluster.Kernel()
	rtm := rt.Sim(k)
	world := mpisim.NewWorld(k, cluster.Fabric(), nodes)

	res := Result{Nodes: nodes}
	res.BytesPerRank = p.BlockSize * int64(p.SegmentCount)
	res.TotalBytes = res.BytesPerRank * int64(nodes)
	xfersPerBlock := int(p.BlockSize / p.TransferSize)

	var firstErr error
	fail := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}

	world.Launch(func(r *mpisim.Rank) {
		e := &env{
			p:     &p,
			rank:  r,
			fs:    cluster.Client(r.Rank()),
			rt:    rtm,
			nodes: nodes,
		}
		b, err := newBackend(e)
		if err != nil {
			fail(err)
			return
		}
		buf := make([]byte, p.TransferSize)

		if p.DoWrite {
			if err := b.setupWrite(); err != nil {
				fail(fmt.Errorf("rank %d setupWrite: %w", r.Rank(), err))
				return
			}
			r.Barrier()
			t0 := r.MaxTime(r.Now())
			for seg := 0; seg < p.SegmentCount; seg++ {
				for t := 0; t < xfersPerBlock; t++ {
					off := e.fileOffset(seg, t)
					pattern(buf, r.Rank(), off)
					if err := b.writeAt(seg, off, buf); err != nil {
						fail(fmt.Errorf("rank %d write seg %d: %w", r.Rank(), seg, err))
						return
					}
				}
			}
			if err := b.finishWrite(); err != nil {
				fail(fmt.Errorf("rank %d finishWrite: %w", r.Rank(), err))
				return
			}
			r.Barrier()
			t1 := r.MaxTime(r.Now())
			if r.Rank() == 0 {
				res.WriteSeconds = t1.Sub(t0).Seconds()
			}
		}

		if p.DoRead {
			if err := b.setupRead(); err != nil {
				fail(fmt.Errorf("rank %d setupRead: %w", r.Rank(), err))
				return
			}
			r.Barrier()
			t0 := r.MaxTime(r.Now())
			dst := make([]byte, p.TransferSize)
			want := make([]byte, p.TransferSize)
			for seg := 0; seg < p.SegmentCount; seg++ {
				for t := 0; t < xfersPerBlock; t++ {
					off := e.fileOffset(seg, t)
					if err := b.readAt(seg, off, dst); err != nil {
						fail(fmt.Errorf("rank %d read seg %d: %w", r.Rank(), seg, err))
						return
					}
					if p.Verify {
						pattern(want, r.Rank(), off)
						if string(dst) != string(want) {
							fail(fmt.Errorf("rank %d seg %d: data verification failed", r.Rank(), seg))
							return
						}
					}
				}
			}
			if err := b.finishRead(); err != nil {
				fail(fmt.Errorf("rank %d finishRead: %w", r.Rank(), err))
				return
			}
			r.Barrier()
			t1 := r.MaxTime(r.Now())
			if r.Rank() == 0 {
				res.ReadSeconds = t1.Sub(t0).Seconds()
			}
		}
	})
	err := k.Run()
	// A rank that fails bails out of the collective pattern, so the
	// kernel typically reports a deadlock too; the root cause is the
	// rank's own error.
	if firstErr != nil {
		return Result{}, firstErr
	}
	if err != nil {
		return Result{}, err
	}
	if res.WriteSeconds > 0 {
		res.WriteBW = float64(res.TotalBytes) / res.WriteSeconds
	}
	if res.ReadSeconds > 0 {
		res.ReadBW = float64(res.TotalBytes) / res.ReadSeconds
	}
	res.Storage = cluster.Stats()
	return res, nil
}
