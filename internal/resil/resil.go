// Package resil is the storage-target resilience toolkit used by the
// simulated parallel file system's degraded-mode write path: a per-target
// health tracker (EWMA of served latency plus consecutive-error counts)
// feeding a per-target circuit breaker with half-open probing, and a
// shared obs.Histogram of recent latencies whose quantiles calibrate
// hedged-request trigger delays.
//
// The package is deliberately independent of the PFS: targets are plain
// indexes and time is an injected monotonic clock, so the tracker runs
// identically under the discrete-event simulator (virtual time) and in
// real time. All methods are safe for concurrent use.
//
// Breaker life cycle (per target):
//
//	Closed ──(ErrThreshold consecutive errors, or
//	          SlowStrikes consecutive ≥SlowFactor×median observations)──▶ Open
//	Open ──(OpenTimeout elapsed; next Route() grants one probe)──▶ HalfOpen
//	HalfOpen ──(probe ObserveOK)──▶ Closed
//	HalfOpen ──(probe ObserveErr)──▶ Open (timer restarts)
//
// Routing policy (`Route`) answers "should new work be placed on this
// target?": yes while Closed, no while Open (until the timeout converts
// the next call into the half-open probe), and exactly one in-flight
// probe while HalfOpen.
package resil

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"lsmio/internal/obs"
)

// State is a breaker state.
type State int

// Breaker states.
const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Options tunes the tracker. The zero value uses the defaults below.
type Options struct {
	// Alpha is the EWMA smoothing factor for served latency (default 0.3).
	Alpha float64
	// ErrThreshold is how many consecutive errors open the breaker
	// (default 3).
	ErrThreshold int
	// OpenTimeout is how long an open breaker rejects routing before the
	// next Route call is granted as a half-open probe (default 200ms).
	OpenTimeout time.Duration
	// SlowFactor and SlowStrikes open the breaker on sustained slowness:
	// SlowStrikes consecutive observations, each at least SlowFactor times
	// the median EWMA across closed targets, trip the breaker even though
	// every request succeeded (defaults 6× and 16).
	SlowFactor  float64
	SlowStrikes int
	// Latency optionally injects a shared latency histogram for quantile
	// estimation (replacing the private sorted-sample ring the tracker
	// used to own). When injected the OWNER records observations into it
	// and the tracker only reads quantiles — so the same instrument that
	// feeds hedging also shows up in the owner's registry snapshot with
	// no duplicated state. When nil the tracker creates a private
	// histogram and records every ObserveOK latency itself.
	Latency *obs.Histogram
	// Trace optionally receives breaker life-cycle events
	// ("resil.breaker.trip", "resil.breaker.probe", "resil.breaker.close").
	Trace *obs.Trace
}

func (o Options) withDefaults() Options {
	if o.Alpha <= 0 || o.Alpha > 1 {
		o.Alpha = 0.3
	}
	if o.ErrThreshold <= 0 {
		o.ErrThreshold = 3
	}
	if o.OpenTimeout <= 0 {
		o.OpenTimeout = 200 * time.Millisecond
	}
	if o.SlowFactor <= 1 {
		o.SlowFactor = 6
	}
	if o.SlowStrikes <= 0 {
		o.SlowStrikes = 16
	}
	return o
}

// target is one tracked storage target.
type target struct {
	ewma       float64 // ns; 0 = no observation yet
	consecErr  int
	consecSlow int
	state      State
	openedAt   time.Duration
	probing    bool // half-open: one probe currently granted
	trips      int64
	probes     int64
	lastReason string
}

// TargetHealth is a point-in-time snapshot of one target.
type TargetHealth struct {
	State      State
	EWMA       time.Duration
	ConsecErrs int
	Trips      int64
	Probes     int64
	Reason     string // why the breaker last opened ("errors", "slow")
}

// Tracker tracks n storage targets.
type Tracker struct {
	mu   sync.Mutex
	now  func() time.Duration
	opts Options
	t    []target

	lat     *obs.Histogram // shared latency histogram (see Options.Latency)
	ownsLat bool           // tracker records into lat itself

	denials int64
}

// New builds a tracker for n targets. now is the monotonic clock the
// breaker timers run on (virtual time inside the simulator).
func New(n int, now func() time.Duration, opts Options) *Tracker {
	if n <= 0 {
		panic("resil: tracker needs at least one target")
	}
	o := opts.withDefaults()
	tr := &Tracker{
		now:  now,
		opts: o,
		t:    make([]target, n),
		lat:  o.Latency,
	}
	if tr.lat == nil {
		tr.lat = obs.NewHistogram()
		tr.ownsLat = true
	}
	return tr
}

// ObserveOK records a successful request against target i with the given
// served latency. It resets the error streak, closes a half-open breaker
// whose probe this was, and applies the sustained-slowness trip.
func (tr *Tracker) ObserveOK(i int, lat time.Duration) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t := &tr.t[i]
	t.consecErr = 0
	if t.ewma == 0 {
		t.ewma = float64(lat)
	} else {
		t.ewma = tr.opts.Alpha*float64(lat) + (1-tr.opts.Alpha)*t.ewma
	}
	if tr.ownsLat {
		tr.lat.ObserveDuration(lat)
	}
	if t.state == HalfOpen {
		t.state = Closed
		t.probing = false
		t.consecSlow = 0
		if tr.opts.Trace != nil {
			tr.opts.Trace.Emitf("resil.breaker.close", "target=%d probe ok", i)
		}
		return
	}
	if t.state != Closed {
		return
	}
	// Sustained-slowness trip: compare against the median EWMA of the
	// other closed targets, so a uniformly loaded cluster never trips.
	med := tr.medianEWMALocked(i)
	if med > 0 && float64(lat) >= tr.opts.SlowFactor*med {
		t.consecSlow++
		if t.consecSlow >= tr.opts.SlowStrikes {
			tr.openLocked(i, "slow")
		}
	} else {
		t.consecSlow = 0
	}
}

// ObserveErr records a failed request against target i. Enough
// consecutive errors open the breaker; a failed half-open probe reopens
// it immediately.
func (tr *Tracker) ObserveErr(i int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t := &tr.t[i]
	t.consecErr++
	t.consecSlow = 0
	switch t.state {
	case HalfOpen:
		tr.openLocked(i, "probe-failed")
	case Closed:
		if t.consecErr >= tr.opts.ErrThreshold {
			tr.openLocked(i, "errors")
		}
	}
}

func (tr *Tracker) openLocked(i int, reason string) {
	t := &tr.t[i]
	t.state = Open
	t.openedAt = tr.now()
	t.probing = false
	t.trips++
	t.lastReason = reason
	if tr.opts.Trace != nil {
		tr.opts.Trace.Emitf("resil.breaker.trip", "target=%d reason=%s trips=%d", i, reason, t.trips)
	}
}

// Route reports whether new work should be placed on target i. An open
// breaker past its timeout converts the call into the half-open probe
// (returns true exactly once until the probe resolves).
func (tr *Tracker) Route(i int) bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t := &tr.t[i]
	switch t.state {
	case Closed:
		return true
	case Open:
		if tr.now()-t.openedAt >= tr.opts.OpenTimeout {
			t.state = HalfOpen
			t.probing = true
			t.probes++
			if tr.opts.Trace != nil {
				tr.opts.Trace.Emitf("resil.breaker.probe", "target=%d", i)
			}
			return true
		}
		tr.denials++
		return false
	case HalfOpen:
		if !t.probing {
			t.probing = true
			t.probes++
			if tr.opts.Trace != nil {
				tr.opts.Trace.Emitf("resil.breaker.probe", "target=%d", i)
			}
			return true
		}
		tr.denials++
		return false
	}
	return false
}

// State returns target i's breaker state without granting a probe.
func (tr *Tracker) State(i int) State {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.t[i].state
}

// EWMA returns target i's smoothed served latency (0 before any
// observation).
func (tr *Tracker) EWMA(i int) time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return time.Duration(tr.t[i].ewma)
}

// medianEWMALocked is the median EWMA across closed targets other than
// `skip` (0 when fewer than two have observations).
func (tr *Tracker) medianEWMALocked(skip int) float64 {
	vals := make([]float64, 0, len(tr.t))
	for j := range tr.t {
		if j == skip || tr.t[j].state != Closed || tr.t[j].ewma == 0 {
			continue
		}
		vals = append(vals, tr.t[j].ewma)
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}

// Quantile returns the q-quantile (0..1) of the shared latency
// histogram, 0 when no observations have been recorded. Quantile(0) and
// Quantile(1) are the exact min and max; interior quantiles are
// log-bucket estimates (≤25% bucket width).
func (tr *Tracker) Quantile(q float64) time.Duration {
	return time.Duration(tr.lat.Quantile(q))
}

// Denials returns how many Route calls were rejected by open breakers.
func (tr *Tracker) Denials() int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.denials
}

// Snapshot returns every target's health.
func (tr *Tracker) Snapshot() []TargetHealth {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]TargetHealth, len(tr.t))
	for i, t := range tr.t {
		out[i] = TargetHealth{
			State:      t.state,
			EWMA:       time.Duration(t.ewma),
			ConsecErrs: t.consecErr,
			Trips:      t.trips,
			Probes:     t.probes,
			Reason:     t.lastReason,
		}
	}
	return out
}
