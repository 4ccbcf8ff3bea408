// Package iosched is the global I/O-bandwidth fair scheduler: one
// shared arbiter that splits a device's (simulated or wall-clock)
// bandwidth across priority classes using per-class token budgets.
// Before PR 10 every background I/O consumer self-throttled with a
// local heuristic — job counts in the LSM engine, sleep pacing in the
// burst tier, nothing at all for the parity scrubber —
// exactly the uncoordinated setup Luo & Carey ("On Performance
// Stability in LSM-based Storage Systems") show produces hour-scale
// throughput variance and p999 drift under sustained load. The
// scheduler replaces all of those private rate limits: every
// background byte now buys tokens from one instance, and job counts
// remain purely a concurrency cap.
//
// Model (DESIGN.md §15):
//
//   - Five classes, highest priority first: Foreground (WAL/commit),
//     Flush, Drain (burst-buffer drain), Compaction, Scrub. Priority is
//     expressed as a bandwidth share (weight), not strict precedence,
//     so no class can be starved outright.
//   - Token budgets in the time domain. Each class keeps a virtual
//     next-free time; a grant of n bytes at effective rate R advances
//     it by n/R. A grant whose start lies in the future makes the
//     caller sleep until then — on Config.Clock, so under the
//     simulator's runtime scheduling is deterministic.
//   - Work-conserving borrowing. The effective rate divides the device
//     rate over the *active* classes only (a class is active while its
//     next-free time lies in the future, i.e. it has unexpired claims
//     on the device). A class alone on the device gets all of it.
//   - Deficit accounting. While a class waits for its grant it accrues
//     a byte deficit at its reserved rate; a class with a positive
//     deficit counts with twice its weight until the backlog it
//     accumulated has drained, so a class starved through a storm
//     catches up instead of being perpetually out-bid.
//   - No banked credit. A grant starts no earlier than now, so an idle
//     class wakes with no free tokens, however long it slept.
//
// All methods are nil-receiver safe and free when the scheduler is
// disabled (BytesPerSec <= 0), so call sites thread one optional
// *Scheduler without guards. Instruments live under `iosched.<class>.*`
// in the configured obs registry: grants, granted_bytes, wait_nanos
// (the shared pacing-time convention — the burst tier's legacy
// drain.throttle_nanos is now a snapshot view of the Drain class's
// wait), a wait histogram, and deficit/utilization gauges.
package iosched

import (
	"context"
	"sync"
	"time"

	"lsmio/internal/obs"
	"lsmio/internal/rt"
)

// Class is a priority class drawing from the shared bandwidth budget.
type Class int

// Classes, highest priority (largest default share) first.
const (
	// Foreground is latency-critical commit I/O: WAL appends and group
	// commits the application is actively blocked on.
	Foreground Class = iota
	// Flush is memtable-to-L0 table builds — the write path's backlog
	// drain, one step behind foreground.
	Flush
	// Drain is the burst tier's staged-step copy to the durable store.
	Drain
	// Compaction is background level compaction I/O.
	Compaction
	// Scrub is parity scrub/repair — pure maintenance, lowest class.
	Scrub
	// NumClasses bounds the class enum.
	NumClasses
)

var classNames = [NumClasses]string{"foreground", "flush", "drain", "compaction", "scrub"}

// String returns the class's dotted-name segment ("foreground", ...).
func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return "invalid"
	}
	return classNames[c]
}

// shares is the bandwidth split, in weight units (foreground > flush >
// drain = compaction > scrub). They sum to totalShare.
var shares = [NumClasses]float64{40, 25, 15, 15, 5}

const totalShare = 100

// Config configures a Scheduler.
type Config struct {
	// BytesPerSec is the device bandwidth the scheduler divides. Zero
	// or negative disables the scheduler: every Acquire returns
	// immediately (the pass-through used for A/B baselines).
	BytesPerSec float64
	// Clock is what grants are timed and paced on: the stack's
	// rt.Runtime (virtual time under the simulator, so grant timelines
	// are deterministic) or a test's fake. Nil means rt.Real().
	Clock rt.Clock
	// Obs is the registry the scheduler records into under the
	// `iosched.` prefix. Nil creates a private registry on Clock.
	Obs *obs.Registry
}

// Scheduler divides device bandwidth across classes. One instance is
// shared by every background I/O consumer in a deployment (engine
// flush + compaction, burst drain, parity scrub) plus the foreground
// WAL path; see New.
type Scheduler struct {
	rate float64
	clk  rt.Clock
	reg  *obs.Registry
	m    schedMetrics

	mu sync.Mutex
	// next is each class's virtual next-free time: the moment its
	// already-granted bytes will have been paid for at the effective
	// rates in force when they were granted. next > now ⇒ active.
	next [NumClasses]time.Duration
	// deficit is the catch-up backlog in bytes (see package comment);
	// deficitCap bounds it to one second at the class's reserved rate.
	deficit    [NumClasses]int64
	deficitCap [NumClasses]int64
	// refund holds bytes returned by Cancel; the next Acquire consumes
	// them before buying new tokens, keeping the token accounting
	// balanced under concurrent acquire/cancel.
	refund [NumClasses]int64
}

// New builds a scheduler from cfg. The zero Config is valid and yields
// a disabled scheduler (all acquires free).
func New(cfg Config) *Scheduler {
	s := &Scheduler{rate: cfg.BytesPerSec, clk: cfg.Clock}
	if s.clk == nil {
		s.clk = rt.Real()
	}
	if s.rate > 0 {
		for c := Class(0); c < NumClasses; c++ {
			s.deficitCap[c] = int64(s.rate * shares[c] / totalShare)
		}
	}
	s.reg = cfg.Obs
	if s.reg == nil {
		s.reg = obs.NewRegistryOn(s.clk.Now)
	}
	s.m = newSchedMetrics(s.reg)
	s.m.rate.Set(int64(s.rate))
	return s
}

// Enabled reports whether the scheduler actually throttles (non-nil
// and configured with a positive device rate).
func (s *Scheduler) Enabled() bool { return s != nil && s.rate > 0 }

// Obs returns the registry the scheduler records into.
func (s *Scheduler) Obs() *obs.Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Acquire blocks until class may issue n bytes of I/O, sleeping on the
// configured clock until the grant's start time, and returns how long
// it waited. Free (and wait-less) on a nil or disabled scheduler.
func (s *Scheduler) Acquire(class Class, n int64) time.Duration {
	if !s.Enabled() || n <= 0 {
		return 0
	}
	wait := s.reserve(class, n)
	if wait > 0 {
		s.clk.Sleep(wait)
	}
	return wait
}

// AcquireCtx is Acquire with cooperative cancellation: a context
// already canceled buys nothing, and a cancellation observed after the
// pacing sleep refunds the tokens (Cancel) and returns the context
// error, so an aborted I/O does not leak budget.
func (s *Scheduler) AcquireCtx(ctx context.Context, class Class, n int64) (time.Duration, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	wait := s.Acquire(class, n)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			s.Cancel(class, n)
			return wait, err
		}
	}
	return wait, nil
}

// Cancel returns n bytes of previously acquired budget that were never
// issued to the device (the write errored or was aborted). The bytes
// become a refund credit consumed by the class's next Acquire.
func (s *Scheduler) Cancel(class Class, n int64) {
	if !s.Enabled() || n <= 0 {
		return
	}
	s.mu.Lock()
	s.refund[class] += n
	s.m.canceled[class].Add(n)
	s.mu.Unlock()
}

// reserve computes one grant under the scheduler mutex and returns how
// long the caller must sleep before issuing its I/O.
func (s *Scheduler) reserve(class Class, n int64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clk.Now()
	granted := n
	if r := s.refund[class]; r > 0 {
		take := r
		if take > n {
			take = n
		}
		s.refund[class] -= take
		n -= take
	}
	// Metrics count the full request as granted either way; refunded
	// bytes were already paid for by the canceled acquire.
	s.m.grants[class].Inc()
	s.m.bytes[class].Add(granted)
	if n == 0 {
		s.m.waitHist[class].ObserveDuration(0)
		return 0
	}
	// Work-conserving effective rate: divide the device over the active
	// classes (unexpired claims), weighting deficit-carrying classes
	// double so they catch up.
	weights := 0.0
	for c := Class(0); c < NumClasses; c++ {
		if c == class || s.next[c] > now {
			weights += s.weight(c)
		}
	}
	eff := s.rate * s.weight(class) / weights
	start := s.next[class]
	if start < now {
		start = now
	}
	dur := time.Duration(float64(n) / eff * float64(time.Second))
	s.next[class] = start + dur
	wait := start - now
	if wait > 0 {
		reserved := s.rate * shares[class] / totalShare
		s.deficit[class] += int64(reserved * wait.Seconds())
		if s.deficit[class] > s.deficitCap[class] {
			s.deficit[class] = s.deficitCap[class]
		}
	}
	if s.deficit[class] > 0 {
		s.deficit[class] -= granted
		if s.deficit[class] < 0 {
			s.deficit[class] = 0
		}
	}
	s.m.waitNanos[class].Add(int64(wait))
	s.m.waitHist[class].ObserveDuration(wait)
	s.m.deficit[class].Set(s.deficit[class])
	s.m.busyNanos.Add(int64(float64(n) / s.rate * float64(time.Second)))
	return wait
}

// weight is a class's live share: doubled while it carries a deficit.
func (s *Scheduler) weight(c Class) float64 {
	w := shares[c]
	if s.deficit[c] > 0 {
		w *= 2
	}
	return w
}

// ClassState is a diagnostic snapshot of one class's accounting,
// exposed for tests and the lsmioctl stats iosched section.
type ClassState struct {
	// NextFree is the class's virtual next-free time; values in the
	// future mean the class has unexpired claims on the device.
	NextFree time.Duration
	// Deficit is the catch-up backlog in bytes.
	Deficit int64
	// Refund is the canceled-but-unconsumed byte credit.
	Refund int64
}

// State returns class c's current accounting.
func (s *Scheduler) State(c Class) ClassState {
	if s == nil || c < 0 || c >= NumClasses {
		return ClassState{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return ClassState{NextFree: s.next[c], Deficit: s.deficit[c], Refund: s.refund[c]}
}
