package burst

import (
	"lsmio/internal/obs"
)

// tierMetrics holds the tier's obs instrument handles under the `burst.`
// prefix, resolved once at New. Durations are recorded as nanosecond
// counters and gauges.
type tierMetrics struct {
	stagedSteps  *obs.Counter
	stagedBytes  *obs.Counter
	drainedSteps *obs.Counter
	drainedBytes *obs.Counter

	drainErrors     *obs.Counter
	drainTransient  *obs.Counter
	drainTargetDown *obs.Counter
	drainCanceled   *obs.Counter
	drainRetries    *obs.Counter

	// pendingBytes mirrors the tier's internal backpressure accounting
	// (the authoritative field also drives admission control); highWater
	// is its maximum ever observed. pendingSteps counts the steps staged
	// and not yet drained.
	pendingBytes *obs.Gauge
	highWater    *obs.Gauge
	pendingSteps *obs.Gauge

	stallNanos *obs.Counter // Commit time blocked on the staging budget
	// throttleNanos is drain time spent waiting for Drain-class tokens
	// from Options.IOSched (a view of iosched.drain.wait_nanos, kept so
	// consumers of burst.drain.throttle_nanos see one number).
	throttleNanos *obs.Counter

	lagNanos    *obs.Gauge // staged→durable latency of the last drain
	maxLagNanos *obs.Gauge
	lagHist     *obs.Histogram // per-step drain lag distribution

	trace *obs.Trace
}

func newTierMetrics(reg *obs.Registry) tierMetrics {
	s := reg.Scope("burst")
	return tierMetrics{
		stagedSteps:  s.Counter("staged.steps"),
		stagedBytes:  s.Counter("staged.bytes"),
		drainedSteps: s.Counter("drained.steps"),
		drainedBytes: s.Counter("drained.bytes"),

		drainErrors:     s.Counter("drain.errors"),
		drainTransient:  s.Counter("drain.transient"),
		drainTargetDown: s.Counter("drain.target_down"),
		drainCanceled:   s.Counter("drain.canceled"),
		drainRetries:    s.Counter("drain.retries"),

		pendingBytes: s.Gauge("pending.bytes"),
		highWater:    s.Gauge("pending.high_water"),
		pendingSteps: s.Gauge("pending.steps"),

		stallNanos:    s.Counter("commit.stall_nanos"),
		throttleNanos: s.Counter("drain.throttle_nanos"),

		lagNanos:    s.Gauge("drain.lag_nanos"),
		maxLagNanos: s.Gauge("drain.max_lag_nanos"),
		lagHist:     s.Histogram("drain.lag"),

		trace: s.Trace(),
	}
}
