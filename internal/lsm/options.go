// Package lsm is a log-structured merge-tree storage engine written from
// scratch, playing the role RocksDB plays in the LSMIO paper (Bulut &
// Wright, SC-W 2023). It implements the full write and read life cycle the
// paper relies on: a skiplist memtable, an optional write-ahead log,
// block-based sorted-string tables with prefix compression, restart points
// and bloom filters, a versioned manifest, leveled compaction, write
// batches, merging iterators and an optional block cache.
//
// Every knob the paper turns on RocksDB is an Option here: the write-ahead
// log, compression, the block cache and compaction can each be disabled;
// writes can be synchronous or asynchronous; and the write buffer and block
// sizes are configurable (§3.1.1 of the paper).
//
// All I/O goes through vfs.FS, so the engine runs identically on the real
// OS filesystem and on the simulated Lustre parallel file system.
package lsm

import (
	"fmt"
	"time"

	"lsmio/internal/iosched"
	"lsmio/internal/obs"
	"lsmio/internal/rt"
	"lsmio/internal/vfs"
)

// CompressionCodec names a block-compression algorithm.
type CompressionCodec string

// Available codecs.
const (
	// CompressionSnappy is the LZ77-family codec RocksDB defaults to
	// (implemented from scratch in internal/snappy).
	CompressionSnappy CompressionCodec = "snappy"
)

// Fixed sizes no caller sets.
const (
	// blockRestartInterval is the number of keys between restart points
	// of a data block.
	blockRestartInterval = 16
	// cacheSize is the block cache capacity in bytes, when the cache is
	// enabled.
	cacheSize = 8 << 20
)

// Options configures a DB. The zero value is not usable; start from
// DefaultOptions.
type Options struct {
	// FS is the filesystem the database lives on.
	FS vfs.FS
	// Runtime is what the engine locks, waits, spawns background work
	// and reads time on: rt.Real() (the default) or the simulator's.
	Runtime rt.Runtime
	// Obs is the metrics/trace registry the engine records into, under
	// the `lsm.` prefix. Nil creates a private registry clocked by the
	// Runtime; callers that manage several subsystems (core.Manager)
	// inject a shared one so a single snapshot covers the whole stack.
	Obs *obs.Registry
	// IOSched is the shared I/O-bandwidth scheduler. When set, WAL
	// appends buy Foreground tokens and every table-build byte buys
	// Flush or Compaction tokens before hitting the filesystem, so the
	// engine's background I/O is paced against the other consumers
	// (burst drain, parity scrub) instead of free-running.
	// MaxBackgroundJobs remains purely a concurrency cap. Nil disables
	// scheduling (all I/O free-running, the pre-PR-10 behavior).
	IOSched *iosched.Scheduler

	// WriteBufferSize is the memtable capacity in bytes. When a memtable
	// reaches this size it becomes immutable and is flushed to an SSTable.
	// The paper uses 32 MB to mirror ADIOS2's BufferChunkSize.
	WriteBufferSize int
	// BlockSize is the uncompressed size of an SSTable data block.
	BlockSize int
	// BitsPerKey sizes the per-table bloom filter; 0 disables filters.
	BitsPerKey int

	// DisableWAL turns off the write-ahead log (the paper's headline
	// RocksDB customization for checkpoint data: durability comes from the
	// explicit write barrier instead).
	DisableWAL bool
	// DisableCompression stores blocks raw (the paper disables compression).
	DisableCompression bool
	// Compression names the block codec used when compression is
	// enabled. CompressionSnappy (RocksDB's default) is the only one;
	// Open refuses any other name.
	Compression CompressionCodec
	// DisableCache bypasses the block cache (the paper disables caching).
	DisableCache bool
	// DisableCompaction turns off background compaction (the paper
	// disables compaction: checkpoints are write-once).
	DisableCompaction bool
	// Sync forces an fsync after every WAL write (when the WAL is on).
	// With Sync off, WAL durability is deferred to WriteBarrier/Flush,
	// matching the paper's asynchronous option. SSTables are always synced
	// before the manifest references them, regardless of this setting — a
	// crash must never lose data the manifest claims to hold.
	Sync bool
	// AsyncFlush lets a full memtable be flushed by a background task
	// while new writes proceed into a fresh memtable. With it off, the
	// write that fills the memtable performs the flush inline.
	AsyncFlush bool
	// UseMMap models RocksDB's mmap-write option: table writes bypass the
	// engine's internal buffering. Behaviourally it only changes write
	// granularity; it exists because the paper exposes it.
	UseMMap bool

	// MaxImmutableMemtables bounds the flush backlog in async mode;
	// writers stall when it is reached (RocksDB's write stall).
	MaxImmutableMemtables int

	// L0CompactionTrigger is the number of L0 tables that triggers a
	// compaction into L1 (when compaction is enabled).
	L0CompactionTrigger int
	// LevelSizeMultiplier is the target size ratio between adjacent levels.
	LevelSizeMultiplier int
	// BaseLevelSize is the target size of L1 in bytes.
	BaseLevelSize int64

	// MaxBackgroundJobs caps the number of concurrent background
	// compaction workers (RocksDB's max_background_jobs). Workers run
	// compactions on disjoint levels/key ranges in parallel, and a wide
	// merge is split into that many key-range subcompactions. 1 (the
	// default) reproduces the single-threaded behaviour exactly; the
	// paper-reproduction configs disable compaction altogether, so this
	// knob only matters for the general-workload/ablation paths.
	MaxBackgroundJobs int

	// EncodeWorkers runs the two stages of every table build (flush and
	// compaction output) on tasks of their own: that many encoder tasks
	// compress and checksum data blocks (and build the bloom filter) out
	// of order, feeding one sequential writer task that owns the file
	// offset and index construction. 0 (the default) runs both stages
	// inline in the building task; the output bytes are identical either
	// way.
	EncodeWorkers int
	// EncodeCostPerMB charges the runtime's Compute clock for block
	// encoding (compression + CRC + bloom hashing), per MiB of raw block
	// bytes. On the real runtime Compute is a no-op, so this only shapes
	// the simulated benchmarks, where CPU time is otherwise free and
	// pipelining would show no benefit. 0 (the default) charges nothing,
	// preserving every previously calibrated figure.
	EncodeCostPerMB time.Duration

	// DisableWALGroupCommit pins every cohort to a single writer: each
	// Apply performs its own WAL append+sync. The writer queue (and its
	// ordering guarantees) stays in place; only the coalescing is off.
	// Exists for the ext-pipeline A/B and for bisection.
	DisableWALGroupCommit bool

	// Writers are admitted at the rate the merges absorb, in front of the
	// hard stall. Pacing only engages with compaction enabled — with
	// compaction off nothing would ever drain L0, so slowing writers for
	// it would be pure loss — and only once a merge has been measured.
	// The rate is the L0 headroom left before L0StopTrigger over the time
	// the L0→L1 merge still needs at the measured merge rate; a writer
	// under it never waits, a faster one waits for its bytes (see
	// DESIGN.md §9).
	//
	// L0SlowdownTrigger is the L0 table count from which writes are
	// paced. 0 picks L0CompactionTrigger; negative disables pacing,
	// leaving only the hard stall.
	L0SlowdownTrigger int
	// L0StopTrigger is the L0 table count at which writers block until
	// compaction catches up (LevelDB's kL0_StopWritesTrigger). 0 picks
	// the default (12); negative disables the L0 hard stop, and with it
	// pacing, which is measured against it.
	L0StopTrigger int
}

// DefaultOptions returns options resembling LevelDB/RocksDB defaults, on
// the given filesystem.
func DefaultOptions(fs vfs.FS) Options {
	return Options{
		FS:                    fs,
		Runtime:               rt.Real(),
		WriteBufferSize:       4 << 20,
		BlockSize:             4 << 10,
		BitsPerKey:            10,
		Compression:           CompressionSnappy,
		MaxImmutableMemtables: 2,
		L0CompactionTrigger:   4,
		LevelSizeMultiplier:   10,
		BaseLevelSize:         10 << 20,
		MaxBackgroundJobs:     1,
	}
}

// CheckpointOptions returns the configuration the LSMIO paper uses for the
// checkpoint write path (§3.1.1): WAL, compression, cache and compaction
// all disabled, a 32 MB write buffer, and asynchronous flushing.
func CheckpointOptions(fs vfs.FS) Options {
	o := DefaultOptions(fs)
	o.DisableWAL = true
	o.DisableCompression = true
	o.DisableCache = true
	o.DisableCompaction = true
	o.AsyncFlush = true
	o.WriteBufferSize = 32 << 20
	o.BlockSize = 64 << 10
	return o
}

// check reports a defaulted option set that Open and Repair refuse.
func (o *Options) check() error {
	if o.FS == nil {
		return fmt.Errorf("lsm: Options.FS is required")
	}
	if o.Compression != CompressionSnappy {
		return fmt.Errorf("lsm: unknown compression codec %q", o.Compression)
	}
	return nil
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Runtime == nil {
		out.Runtime = rt.Real()
	}
	if out.WriteBufferSize <= 0 {
		out.WriteBufferSize = 4 << 20
	}
	if out.BlockSize <= 0 {
		out.BlockSize = 4 << 10
	}
	if out.MaxImmutableMemtables <= 0 {
		out.MaxImmutableMemtables = 2
	}
	if out.Compression == "" {
		out.Compression = CompressionSnappy
	}
	if out.L0CompactionTrigger <= 0 {
		out.L0CompactionTrigger = 4
	}
	if out.LevelSizeMultiplier <= 0 {
		out.LevelSizeMultiplier = 10
	}
	if out.BaseLevelSize <= 0 {
		out.BaseLevelSize = 10 << 20
	}
	if out.MaxBackgroundJobs <= 0 {
		out.MaxBackgroundJobs = 1
	}
	if out.EncodeWorkers < 0 {
		out.EncodeWorkers = 0
	}
	if out.L0SlowdownTrigger == 0 {
		out.L0SlowdownTrigger = out.L0CompactionTrigger
	}
	if out.L0StopTrigger == 0 {
		out.L0StopTrigger = 12
	}
	return out
}
