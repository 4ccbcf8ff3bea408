package core

import (
	"lsmio/internal/obs"
)

// mgrMetrics holds the Manager's obs instrument handles under the
// `core.` prefix, resolved once at NewManager (§3.1.4's performance
// counters; callers read them from Manager.Obs). The latency
// histograms use the registry clock — virtual time inside the
// simulator, wall time outside — so quantiles are meaningful in both
// modes.
type mgrMetrics struct {
	puts     *obs.Counter
	gets     *obs.Counter
	appends  *obs.Counter
	dels     *obs.Counter
	barriers *obs.Counter
	bytesPut *obs.Counter
	bytesGot *obs.Counter

	barrierNanos *obs.Counter // cumulative WriteBarrier time
	remoteOps    *obs.Counter // puts made through ManagerOptions.Remote

	putLatency     *obs.Histogram
	getLatency     *obs.Histogram
	barrierLatency *obs.Histogram
}

func newMgrMetrics(reg *obs.Registry) mgrMetrics {
	s := reg.Scope("core")
	return mgrMetrics{
		puts:     s.Counter("puts"),
		gets:     s.Counter("gets"),
		appends:  s.Counter("appends"),
		dels:     s.Counter("dels"),
		barriers: s.Counter("barriers"),
		bytesPut: s.Counter("bytes_put"),
		bytesGot: s.Counter("bytes_got"),

		barrierNanos: s.Counter("barrier_nanos"),
		remoteOps:    s.Counter("remote_ops"),

		putLatency:     s.Histogram("put_latency"),
		getLatency:     s.Histogram("get_latency"),
		barrierLatency: s.Histogram("barrier_latency"),
	}
}
