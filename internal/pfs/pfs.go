// Package pfs simulates a Lustre-like parallel file system: a metadata
// server (MDS), object storage servers (OSS) fronting object storage
// targets (OSTs) built from RAID-ed 7.2k-rpm disks, RAID-0 striping across
// OSTs, client-side write-back caching with bounded dirty data, and
// per-object extent locks whose ownership migrates between writing clients.
//
// It implements vfs.FS per compute node, so unmodified storage code (the
// LSM engine, the HDF5- and ADIOS2-like writers) runs against it; file
// bytes are really stored (in memory) while every operation charges
// virtual time to the calling simulation process through the
// discrete-event kernel.
//
// The performance model is mechanistic rather than curve-fit:
//
//   - Each OST is a serial device with sequential bandwidth, a positioning
//     (seek) penalty whenever a request is not contiguous with the previous
//     one, and a fixed per-request overhead. Requests are serviced in
//     arrival order via a busy-until clock.
//   - Writes from a client complete asynchronously (Lustre write-back
//     pages): the client pays only CPU + network, and is stalled when the
//     device lags more than MaxDirtyLag behind (the dirty-page limit).
//     Sync/Barrier waits for device completion.
//   - A write to a (file, OST) object by a client that is not the current
//     extent-lock holder pays a lock-migration penalty — the mechanism
//     behind shared-file (N-to-1) write collapse on Lustre once more ranks
//     than stripes write a file.
//   - Reads are synchronous and also flow through the OST clock.
//
// See DESIGN.md §5 for the simulation-vs-reality boundary.
package pfs

import (
	"time"
)

// Config describes the cluster's storage system and cost model.
type Config struct {
	// ComputeNodes is the number of client (compute) nodes.
	ComputeNodes int
	// NumOSTs and NumOSSs shape the storage backend. OST i is served by
	// OSS (i mod NumOSSs).
	NumOSTs int
	NumOSSs int

	// DefaultStripeCount and DefaultStripeSize are applied to files whose
	// creator does not set an explicit layout (lfs setstripe equivalent).
	DefaultStripeCount int
	DefaultStripeSize  int64

	// OSTSeqWriteBW / OSTSeqReadBW are per-OST streaming bandwidths in
	// bytes/second (a 10-disk NLSAS RAID array).
	OSTSeqWriteBW float64
	OSTSeqReadBW  float64
	// WriteSeek / ReadSeek are charged when a request is not contiguous
	// with the previous request serviced by the OST.
	WriteSeek time.Duration
	ReadSeek  time.Duration
	// OSTOpOverhead is the fixed per-request service cost.
	OSTOpOverhead time.Duration
	// CoalesceWindow is the gap (bytes, either direction) within which a
	// request still counts as continuing a stream (elevator/merge
	// behaviour of the block layer and controller cache).
	CoalesceWindow int64
	// OSTStreamCache is how many concurrent sequential streams an OST's
	// controller tracks before stream switches start costing seeks.
	OSTStreamCache int
	// ReadAhead is the client read-ahead window: sequential reads on a
	// handle fetch this much per RPC and later reads within the window
	// are served from the client cache.
	ReadAhead int64
	// LockSwitch is the extent-lock migration penalty paid by a write when
	// another client was the last writer of the same (file, OST) object.
	LockSwitch time.Duration

	// OSSBandwidth is the per-OSS backend bandwidth (bytes/second).
	OSSBandwidth float64

	// MDSOpTime is the metadata service time per namespace operation.
	MDSOpTime time.Duration

	// ClientRPCOverhead is the client-side fixed cost per I/O RPC.
	ClientRPCOverhead time.Duration
	// ClientStreamBW models the client's per-byte data-path cost (page
	// cache copy + checksum + RPC build), bytes/second.
	ClientStreamBW float64
	// MaxDirtyLag bounds how far a client may run ahead of the devices
	// before being stalled (the dirty-pages limit expressed as time).
	MaxDirtyLag time.Duration
	// MaxRPCSize is the client write-back coalescing limit: contiguous
	// writes on one file handle merge into RPCs of up to this size before
	// hitting the wire (Lustre's max_pages_per_rpc behaviour).
	MaxRPCSize int64

	// NetLatency / NetBandwidth / NetMaxPacket configure the fabric.
	NetLatency   time.Duration
	NetBandwidth float64
	NetMaxPacket int64

	// RetryMax is how many times a failed OST RPC is retried when the
	// failure is transient (injected via Cluster.InjectFaults). 0 uses the
	// default (5); negative disables retries. Permanent failures are never
	// retried.
	RetryMax int
	// RetryBaseDelay is the first retry's backoff; each further retry
	// doubles it, capped at RetryMaxDelay. A deterministic jitter in
	// [50%, 150%) is applied, charged on the virtual clock.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
}

// VikingConfig models the University of York Viking system from the
// paper's Table 4: 45 OSTs of 10×8 TB 7,200 rpm NLSAS disks behind 2 OSSs,
// with up to 48 client nodes. Cost constants are calibrated so the
// benchmark harness reproduces the paper's relative results (EXPERIMENTS.md
// records the calibration).
func VikingConfig(computeNodes int) Config {
	return Config{
		ComputeNodes:       computeNodes,
		NumOSTs:            45,
		NumOSSs:            2,
		DefaultStripeCount: 4,
		DefaultStripeSize:  1 << 20,
		OSTSeqWriteBW:      500e6,
		OSTSeqReadBW:       550e6,
		WriteSeek:          5 * time.Millisecond,
		ReadSeek:           3 * time.Millisecond,
		OSTOpOverhead:      100 * time.Microsecond,
		CoalesceWindow:     1 << 20,
		OSTStreamCache:     3,
		ReadAhead:          4 << 20,
		LockSwitch:         900 * time.Microsecond,
		OSSBandwidth:       6e9,
		MDSOpTime:          200 * time.Microsecond,
		ClientRPCOverhead:  15 * time.Microsecond,
		ClientStreamBW:     500e6,
		MaxDirtyLag:        64 * time.Millisecond,
		MaxRPCSize:         4 << 20,
		NetLatency:         20 * time.Microsecond,
		NetBandwidth:       10e9,
		NetMaxPacket:       4 << 20,
	}
}

// NVMeConfig models the same cluster re-equipped with an NVMe flash tier
// (the "differently constructed file systems" question the paper's §5.1
// raises): near-zero positioning cost, much higher per-OST bandwidth, and
// a higher OSS backend to match. Extent-lock semantics are unchanged —
// they are a file-system property, not a media property.
func NVMeConfig(computeNodes int) Config {
	cfg := VikingConfig(computeNodes)
	cfg.OSTSeqWriteBW = 3e9
	cfg.OSTSeqReadBW = 3.5e9
	cfg.WriteSeek = 30 * time.Microsecond
	cfg.ReadSeek = 20 * time.Microsecond
	cfg.OSTOpOverhead = 25 * time.Microsecond
	cfg.OSTStreamCache = 64 // flash does not care about stream count
	cfg.OSSBandwidth = 20e9
	return cfg
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ComputeNodes <= 0 {
		out.ComputeNodes = 1
	}
	if out.NumOSTs <= 0 {
		out.NumOSTs = 4
	}
	if out.NumOSSs <= 0 {
		out.NumOSSs = 1
	}
	if out.DefaultStripeCount <= 0 {
		out.DefaultStripeCount = 1
	}
	if out.DefaultStripeCount > out.NumOSTs {
		out.DefaultStripeCount = out.NumOSTs
	}
	if out.DefaultStripeSize <= 0 {
		out.DefaultStripeSize = 1 << 20
	}
	if out.OSTSeqWriteBW <= 0 {
		out.OSTSeqWriteBW = 500e6
	}
	if out.OSTSeqReadBW <= 0 {
		out.OSTSeqReadBW = out.OSTSeqWriteBW
	}
	if out.OSSBandwidth <= 0 {
		out.OSSBandwidth = 6e9
	}
	if out.ClientStreamBW <= 0 {
		out.ClientStreamBW = 500e6
	}
	if out.MaxDirtyLag <= 0 {
		out.MaxDirtyLag = 64 * time.Millisecond
	}
	if out.NetBandwidth <= 0 {
		out.NetBandwidth = 10e9
	}
	if out.NetLatency <= 0 {
		out.NetLatency = 20 * time.Microsecond
	}
	if out.CoalesceWindow <= 0 {
		out.CoalesceWindow = 1 << 20
	}
	if out.MaxRPCSize <= 0 {
		out.MaxRPCSize = 4 << 20
	}
	if out.OSTStreamCache <= 0 {
		out.OSTStreamCache = 3
	}
	if out.ReadAhead <= 0 {
		out.ReadAhead = 4 << 20
	}
	if out.RetryMax == 0 {
		out.RetryMax = 5
	} else if out.RetryMax < 0 {
		out.RetryMax = 0
	}
	if out.RetryBaseDelay <= 0 {
		out.RetryBaseDelay = 500 * time.Microsecond
	}
	if out.RetryMaxDelay <= 0 {
		out.RetryMaxDelay = 50 * time.Millisecond
	}
	return out
}

// Stats holds the bytes the cluster's clients wrote, the one count the
// repository benchmark reads from it; every count, this one included,
// is a `pfs.*` instrument of the cluster's registry (Cluster.Obs).
type Stats struct {
	BytesWritten int64
}
