package lsm

import (
	"lsmio/internal/obs"
)

// dbMetrics holds the engine's obs instrument handles, resolved once at
// Open so the hot paths never touch the registry map. All instruments
// live under the `lsm.` prefix; callers read them from DB.Obs().
type dbMetrics struct {
	puts    *obs.Counter
	deletes *obs.Counter
	gets    *obs.Counter
	// getTables is the number of tables a Get probed (0: answered by a
	// memtable).
	getTables *obs.Histogram

	flushes      *obs.Counter
	bytesFlushed *obs.Counter
	flushDur     *obs.Histogram

	compactions    *obs.Counter
	bytesCompacted *obs.Counter
	subcompactions *obs.Counter
	compactionDur  *obs.Histogram

	walBytes *obs.Counter
	// Group-commit telemetry: syncs counts physical WAL fsyncs,
	// groupCommits counts leader rounds, and groupSize is the cohort size
	// distribution (writes coalesced per leader append).
	walSyncs        *obs.Counter
	walGroupCommits *obs.Counter
	walGroupSize    *obs.Histogram

	// Table-build pipeline stage occupancy. Queue depth is sampled at
	// every job submit; the busy counters accumulate microseconds each
	// stage spent doing work (vs waiting), which is how the ext-pipeline
	// figure proves the I/O stage stays saturated.
	pipeBlocks       *obs.Counter
	pipeQueueDepth   *obs.Histogram
	pipeEncodeBusyUS *obs.Counter
	pipeEncodeDur    *obs.Histogram
	pipeWriteBusyUS  *obs.Counter
	pipeWriteDur     *obs.Histogram

	stallWaits *obs.Counter
	stallUS    *obs.Counter
	stallDur   *obs.Histogram

	slowdownWaits *obs.Counter
	slowdownUS    *obs.Counter
	slowdownDur   *obs.Histogram

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter

	trace *obs.Trace
}

// discardMetrics backs standalone tableWriters (repair, direct test
// construction) that have no engine registry: observations land in a
// private registry nobody snapshots.
var discardMetrics = newDBMetrics(obs.NewRegistry())

func newDBMetrics(reg *obs.Registry) dbMetrics {
	s := reg.Scope("lsm")
	return dbMetrics{
		puts:    s.Counter("puts"),
		deletes: s.Counter("deletes"),
		gets:    s.Counter("gets"),

		getTables: s.Histogram("get.tables"),

		flushes:      s.Counter("flush.count"),
		bytesFlushed: s.Counter("flush.bytes"),
		flushDur:     s.Histogram("flush.duration"),

		compactions:    s.Counter("compaction.count"),
		bytesCompacted: s.Counter("compaction.bytes_written"),
		subcompactions: s.Counter("compaction.subcompactions"),
		compactionDur:  s.Histogram("compaction.duration"),

		walBytes:        s.Counter("wal.bytes"),
		walSyncs:        s.Counter("wal.syncs"),
		walGroupCommits: s.Counter("wal.group_commits"),
		walGroupSize:    s.Histogram("wal.group_size"),

		pipeBlocks:       s.Counter("pipeline.blocks"),
		pipeQueueDepth:   s.Histogram("pipeline.queue_depth"),
		pipeEncodeBusyUS: s.Counter("pipeline.encode.busy_micros"),
		pipeEncodeDur:    s.Histogram("pipeline.encode.duration"),
		pipeWriteBusyUS:  s.Counter("pipeline.write.busy_micros"),
		pipeWriteDur:     s.Histogram("pipeline.write.duration"),

		stallWaits: s.Counter("stall.episodes"),
		stallUS:    s.Counter("stall.micros"),
		stallDur:   s.Histogram("stall.duration"),

		slowdownWaits: s.Counter("slowdown.count"),
		slowdownUS:    s.Counter("slowdown.micros"),
		slowdownDur:   s.Histogram("slowdown.duration"),

		cacheHits:   s.Counter("cache.hits"),
		cacheMisses: s.Counter("cache.misses"),

		trace: s.Trace(),
	}
}
