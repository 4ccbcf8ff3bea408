// Package burst is a write-back burst-buffer staging tier for
// checkpoints (the paper's §5.1 "faster tier in front of LSMIO" future
// work). Checkpoint writes land in a bounded staging store — an
// in-memory filesystem or an NVMe-tier pfs.ClientFS — and Commit
// returns as soon as the step is staged-consistent there. Background
// drain workers then copy completed steps into the PFS-backed durable
// store, preserving the ckpt commit contract on the slow tier: the
// drained data's write barrier always precedes the durable manifest
// install, so a crash mid-drain recovers to either the staged or the
// durable image, never a mix.
//
//	tier := burst.New(stagingStore, durableStore, burst.Options{
//		StagingBudget: 4 << 30,
//		Runtime:       rtm, // the stack's rt.Sim; nil outside the simulator
//	})
//	tier.StartWorker()
//	c, _ := tier.Begin(step)
//	c.Write("temperature", data)
//	c.Commit()            // returns at staged-consistent
//	...compute phase...
//	tier.WaitDurable(step) // returns at durable-on-PFS
//
// Flow control: when the bytes staged but not yet drained exceed
// Options.StagingBudget, Commit blocks until the drain catches up
// (backpressure). The drain runs flat out: nothing paces it.
//
// The drain worker is a daemon task of Options.Runtime and one rt
// mutex/cond pair guards the in-memory state, so the same code runs on
// goroutines and on simulation processes (DESIGN.md §5).
package burst

import (
	"context"
	"fmt"
	"time"

	"lsmio/ckpt"
	"lsmio/internal/obs"
	"lsmio/internal/resil"
	"lsmio/internal/rt"
)

// Options configures a staging tier.
type Options struct {
	// StagingBudget bounds the bytes committed to the staging tier but
	// not yet drained; Commit blocks while a new step would exceed it.
	// Zero means unbounded (no backpressure).
	StagingBudget int64
	// Runtime is what the tier waits, spawns its drain worker and reads
	// time on: the stack's rt.Sim inside the simulator, rt.Real() when
	// nil.
	Runtime rt.Runtime
	// DrainPolicy is the shared resil retry/timeout discipline applied
	// to each step's drain: transient failures (e.g. a PFS retry budget
	// exhausted on a flaky target) are retried with deterministic
	// backoff, and Policy.Timeout bounds one step's whole drain —
	// attempts plus backoffs — on the tier's clock, failing the step
	// with an error wrapping context.DeadlineExceeded on expiry. The
	// zero value keeps the historical behavior: one attempt, no
	// deadline.
	DrainPolicy resil.Policy
	// DrainCtx, when set, cancels draining cooperatively: the context
	// is checked between drain attempts (an attempt in flight is never
	// interrupted) and a canceled context fails the step with the
	// context error, classified ClassCanceled and never retried. Nil
	// means no cancellation.
	DrainCtx context.Context
	// Obs is the metrics/trace registry the tier records into, under the
	// `burst.` prefix. Nil creates a private registry clocked by
	// Runtime; callers that manage several subsystems
	// inject a shared one so a single snapshot covers the whole stack.
	Obs *obs.Registry
}

// stagedStep is one committed step queued for draining.
type stagedStep struct {
	step     int64
	bytes    int64
	stagedAt time.Duration
}

// Tier is a write-back staging tier between an application and a
// durable checkpoint store.
type Tier struct {
	staging *ckpt.Store
	durable *ckpt.Store
	opts    Options
	rt      rt.Runtime

	// mu guards the state below; cond is its one wait channel (any
	// change broadcasts, waiters re-check in a loop). Never call a
	// manager or store with mu held — store I/O blocks.
	mu       rt.Mutex
	cond     rt.Cond
	queue    []stagedStep
	pending  map[int64]bool // staged or draining, not yet finished
	failed   map[int64]error
	lastErr  error // sticky first drain error; disables backpressure
	inFlight int   // steps popped from queue, drain not yet finished
	workerOn bool
	closed   bool

	// pendingBytes is the authoritative backpressure accounting (it
	// drives admission control and must survive a counter reset); the
	// burst.pending.bytes gauge mirrors it, and burst.pending.steps the
	// queued and in-flight steps, for observability (notePending).
	pendingBytes int64

	reg *obs.Registry
	m   tierMetrics
}

// New builds a staging tier draining from staging into durable. The
// two stores must be distinct; durable retention (ckpt.Options.Keep)
// applies on the durable store as steps arrive there.
func New(staging, durable *ckpt.Store, opts Options) *Tier {
	t := &Tier{
		staging: staging,
		durable: durable,
		opts:    opts,
		rt:      opts.Runtime,
		pending: make(map[int64]bool),
		failed:  make(map[int64]error),
	}
	if t.rt == nil {
		t.rt = rt.Real()
	}
	t.mu = t.rt.NewMutex()
	t.cond = t.mu.NewCond()
	t.reg = opts.Obs
	if t.reg == nil {
		t.reg = obs.NewRegistryOn(t.rt.Now)
	}
	t.m = newTierMetrics(t.reg)
	return t
}

// notePending mirrors the pending steps and bytes into their gauges.
// Call it with mu held wherever pendingBytes changes; moving a step from
// the queue to in flight leaves both unchanged.
func (t *Tier) notePending() {
	t.m.pendingBytes.Set(t.pendingBytes)
	t.m.pendingSteps.Set(int64(len(t.queue) + t.inFlight))
}

// Checkpoint is an in-progress staged checkpoint; Commit acknowledges
// it staged-consistent and queues it for draining.
type Checkpoint struct {
	t     *Tier
	inner *ckpt.Checkpoint
	step  int64
	bytes int64
}

// Begin starts checkpoint `step` in the staging tier. Steps must be
// unique across the tier's lifetime, including steps already drained.
func (t *Tier) Begin(step int64) (*Checkpoint, error) {
	if _, err := t.durable.Manifest(step); err == nil {
		return nil, fmt.Errorf("burst: step %d already durable", step)
	}
	inner, err := t.staging.Begin(step)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{t: t, inner: inner, step: step}, nil
}

// Write stores one named variable in the staged checkpoint. data must
// not change until Commit or Abort returns (ckpt.Checkpoint.Write); the
// drain writes the step again from what it reads back, not from data.
func (c *Checkpoint) Write(name string, data []byte) error {
	if err := c.inner.Write(name, data); err != nil {
		return err
	}
	c.bytes += int64(len(data))
	return nil
}

// Abort discards the uncommitted staged checkpoint.
func (c *Checkpoint) Abort() error { return c.inner.Abort() }

// Commit blocks while the staging budget is exhausted (backpressure),
// then makes the step staged-consistent (barrier + manifest on the
// staging store) and queues it for draining. When Commit returns the
// step survives a staging-tier-preserving restart, but is not yet
// durable on the PFS — use WaitDurable or Sync for that.
func (c *Checkpoint) Commit() error {
	t := c.t
	t.admit(c.bytes)
	if err := c.inner.Commit(); err != nil {
		return err
	}
	t.mu.Lock()
	t.queue = append(t.queue, stagedStep{step: c.step, bytes: c.bytes, stagedAt: t.rt.Now()})
	t.pending[c.step] = true
	t.m.stagedSteps.Inc()
	t.m.stagedBytes.Add(c.bytes)
	t.pendingBytes += c.bytes
	t.notePending()
	t.m.highWater.SetMax(t.pendingBytes)
	t.mu.Unlock()
	t.m.trace.Emitf("burst.stage", "step=%d bytes=%d", c.step, c.bytes)
	t.cond.Broadcast()
	return nil
}

// admit blocks until `bytes` fits inside the staging budget. A step
// larger than the whole budget is admitted once the tier is empty
// (otherwise it could never commit), and a sticky drain error disables
// blocking so a broken drain surfaces at Sync instead of deadlocking
// the application.
func (t *Tier) admit(bytes int64) {
	if t.opts.StagingBudget <= 0 {
		return
	}
	start := t.rt.Now()
	t.mu.Lock()
	for t.pendingBytes > 0 && t.pendingBytes+bytes > t.opts.StagingBudget &&
		t.lastErr == nil && !t.closed {
		if !t.workerOn {
			// No background worker: reclaim budget by draining the
			// oldest step inline on the caller.
			t.mu.Unlock()
			t.DrainPending(1)
			t.mu.Lock()
			continue
		}
		t.cond.Wait()
	}
	t.m.stallNanos.Add(int64(t.rt.Now() - start))
	t.mu.Unlock()
}
