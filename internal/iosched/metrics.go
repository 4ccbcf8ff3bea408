package iosched

import (
	"lsmio/internal/obs"
)

// schedMetrics holds the scheduler's obs instrument handles under the
// `iosched.` prefix, resolved once at New. Per-class names follow the
// repo's unified pacing-time convention (`iosched.<class>.wait_nanos`).
type schedMetrics struct {
	grants    [NumClasses]*obs.Counter   // acquires granted
	bytes     [NumClasses]*obs.Counter   // bytes granted (grant rate per window)
	waitNanos [NumClasses]*obs.Counter   // time callers slept for tokens
	waitHist  [NumClasses]*obs.Histogram // queue-wait distribution
	deficit   [NumClasses]*obs.Gauge     // current catch-up backlog, bytes
	canceled  [NumClasses]*obs.Counter   // bytes refunded via Cancel

	// busyNanos accumulates device time charged (granted bytes over the
	// device rate): busy/elapsed per window is the budget utilization.
	busyNanos *obs.Counter
	rate      *obs.Gauge // configured device bytes/sec (0 = disabled)
}

func newSchedMetrics(reg *obs.Registry) schedMetrics {
	sc := reg.Scope("iosched")
	var m schedMetrics
	for c := Class(0); c < NumClasses; c++ {
		p := c.String()
		m.grants[c] = sc.Counter(p + ".grants")
		m.bytes[c] = sc.Counter(p + ".granted_bytes")
		m.waitNanos[c] = sc.Counter(p + ".wait_nanos")
		m.waitHist[c] = sc.Histogram(p + ".wait")
		m.deficit[c] = sc.Gauge(p + ".deficit_bytes")
		m.canceled[c] = sc.Counter(p + ".canceled_bytes")
	}
	m.busyNanos = sc.Counter("device.busy_nanos")
	m.rate = sc.Gauge("device.rate_bytes_per_sec")
	return m
}
