package pfs

import (
	"lsmio/internal/obs"
)

// pfsMetrics holds the cluster's obs instrument handles under the `pfs.`
// prefix, resolved once at NewCluster so the RPC paths never hash
// instrument names. The legacy Stats struct reads bytesWritten
// (Cluster.Stats). Latency histograms are recorded by the cluster
// itself — the resil tracker reads quantiles from writeLatency but never
// records into it, so there is exactly one owner per instrument.
type pfsMetrics struct {
	bytesWritten *obs.Counter
	bytesRead    *obs.Counter
	writeOps     *obs.Counter
	readOps      *obs.Counter
	seeks        *obs.Counter
	lockSwitches *obs.Counter
	metadataOps  *obs.Counter
	clientStalls *obs.Counter
	retries      *obs.Counter
	faults       *obs.Counter

	hedges    *obs.Counter
	hedgeWins *obs.Counter

	degradedReads     *obs.Counter
	degradedReadBytes *obs.Counter
	degradedLayouts   *obs.Counter

	parityBytes      *obs.Counter
	lostStripeWrites *obs.Counter

	scrubVerified      *obs.Counter
	scrubRepaired      *obs.Counter
	scrubUnrecoverable *obs.Counter

	// writeLatency is the client-effective per-run write latency (after
	// hedging picks the first success); readLatency its read-side
	// counterpart. writeLatency doubles as the hedge-delay calibration
	// source via the resil tracker.
	writeLatency *obs.Histogram
	readLatency  *obs.Histogram

	trace *obs.Trace
}

func newPFSMetrics(reg *obs.Registry) pfsMetrics {
	s := reg.Scope("pfs")
	return pfsMetrics{
		bytesWritten: s.Counter("bytes_written"),
		bytesRead:    s.Counter("bytes_read"),
		writeOps:     s.Counter("write_ops"),
		readOps:      s.Counter("read_ops"),
		seeks:        s.Counter("seeks"),
		lockSwitches: s.Counter("lock_switches"),
		metadataOps:  s.Counter("metadata_ops"),
		clientStalls: s.Counter("client_stalls"),
		retries:      s.Counter("retries"),
		faults:       s.Counter("faults_injected"),

		hedges:    s.Counter("hedge.issued"),
		hedgeWins: s.Counter("hedge.wins"),

		degradedReads:     s.Counter("degraded.reads"),
		degradedReadBytes: s.Counter("degraded.read_bytes"),
		degradedLayouts:   s.Counter("degraded.layouts"),

		parityBytes:      s.Counter("parity.bytes_written"),
		lostStripeWrites: s.Counter("parity.lost_stripe_writes"),

		scrubVerified:      s.Counter("scrub.verified"),
		scrubRepaired:      s.Counter("scrub.repaired"),
		scrubUnrecoverable: s.Counter("scrub.unrecoverable"),

		writeLatency: s.Histogram("ost.write_latency"),
		readLatency:  s.Histogram("ost.read_latency"),

		trace: s.Trace(),
	}
}
