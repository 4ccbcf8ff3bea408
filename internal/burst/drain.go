package burst

import (
	"errors"
	"fmt"
	"sort"

	"lsmio/ckpt"
	"lsmio/internal/resil"
)

// StartWorker launches the background drain worker as a daemon task
// of the tier's runtime. At most one worker runs per tier; extra calls
// are no-ops.
func (t *Tier) StartWorker() {
	t.mu.Lock()
	if t.workerOn || t.closed {
		t.mu.Unlock()
		return
	}
	t.workerOn = true
	t.mu.Unlock()
	t.rt.Go("burst-drain", true, t.runWorker)
}

// runWorker drains queued steps oldest-first until the tier closes.
func (t *Tier) runWorker() {
	for {
		t.mu.Lock()
		for len(t.queue) == 0 && !t.closed {
			t.cond.Wait()
		}
		if len(t.queue) == 0 {
			t.workerOn = false
			t.cond.Broadcast() // Close waits for the worker to exit
			t.mu.Unlock()
			return
		}
		item := t.queue[0]
		t.queue = t.queue[1:]
		t.inFlight++
		t.mu.Unlock()

		t.finish(item, t.drain(item))
	}
}

// drain runs one step's drainStep under Options.DrainPolicy: transient
// failures retry with deterministic per-step backoff seeds, while
// DrainCtx cancellation and the policy deadline fail the step with an
// error classified ClassCanceled. drainStep is idempotent, so a retry
// after a partial durable write re-verifies and resumes cleanly.
func (t *Tier) drain(item stagedStep) error {
	p := t.opts.DrainPolicy
	p.OnRetry = func(attempt int, err error) {
		t.m.drainRetries.Inc()
		t.m.trace.Emitf("burst.drain.retry", "step=%d attempt=%d err=%v", item.step, attempt+1, err)
	}
	seed := uint64(item.step+1) * 0x9e3779b97f4a7c15
	return p.Do(t.opts.DrainCtx, t.rt, seed, func(int) error {
		return t.drainStep(item)
	})
}

// drainStep copies one staged step into the durable store and drops
// the staged copy. The copy goes through the normal ckpt commit path,
// so the durable data barrier precedes the durable manifest — the §6
// contract holds on the slow tier exactly as for a direct commit. The
// step is idempotent: if a previous attempt (or a pre-crash run)
// already installed the step durably, only the staged copy is dropped.
func (t *Tier) drainStep(item stagedStep) error {
	vars, err := t.staging.ReadAll(item.step) // checksum-verified
	if err != nil {
		return err
	}
	if _, err := t.durable.Manifest(item.step); err == nil {
		return t.staging.Drop(item.step)
	}
	w, err := t.durable.Begin(item.step)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(vars))
	for name := range vars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := w.Write(name, vars[name]); err != nil {
			w.Abort()
			return err
		}
	}
	if err := w.Commit(); err != nil {
		return err
	}
	return t.staging.Drop(item.step)
}

// finish records a drain attempt's outcome and releases the step's
// budget. A failed step stays in the staging store for inspection but
// leaves the queue; the first failure is sticky in lastErr (surfaced
// by Sync) and disables backpressure blocking.
func (t *Tier) finish(item stagedStep, err error) {
	t.mu.Lock()
	t.inFlight--
	delete(t.pending, item.step)
	t.pendingBytes -= item.bytes
	t.notePending()
	if err != nil {
		t.failed[item.step] = err
		if t.lastErr == nil {
			t.lastErr = err
		}
		t.m.drainErrors.Inc()
		// Classify on the shared resil taxonomy so operators can tell a
		// flaky target (wait and retry) from a dead one (re-stripe) from
		// a canceled or timed-out drain (deliberate; re-queue later).
		switch resil.Classify(err) {
		case resil.ClassTargetDown:
			t.m.drainTargetDown.Inc()
		case resil.ClassTransient:
			t.m.drainTransient.Inc()
		case resil.ClassCanceled:
			t.m.drainCanceled.Inc()
		}
	} else {
		t.m.drainedSteps.Inc()
		t.m.drainedBytes.Add(item.bytes)
		lag := t.rt.Now() - item.stagedAt
		t.m.lagNanos.Set(int64(lag))
		t.m.maxLagNanos.SetMax(int64(lag))
		t.m.lagHist.ObserveDuration(lag)
	}
	t.mu.Unlock()
	if err != nil {
		t.m.trace.Emitf("burst.drain.error", "step=%d bytes=%d err=%v", item.step, item.bytes, err)
	} else {
		t.m.trace.EmitSpan("burst.drain",
			fmt.Sprintf("step=%d bytes=%d", item.step, item.bytes), item.stagedAt)
	}
	t.cond.Broadcast()
}

// DrainPending drains up to max queued steps inline on the caller
// (all of them when max < 0), returning the number drained and the
// first error. It is the deterministic no-worker drain path; with a
// worker running it simply competes for queued steps.
func (t *Tier) DrainPending(max int) (int, error) {
	n := 0
	var firstErr error
	for max < 0 || n < max {
		t.mu.Lock()
		if len(t.queue) == 0 {
			t.mu.Unlock()
			break
		}
		item := t.queue[0]
		t.queue = t.queue[1:]
		t.inFlight++
		t.mu.Unlock()
		err := t.drain(item)
		t.finish(item, err)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		n++
	}
	return n, firstErr
}

// WaitDurable blocks until the given committed step has drained to the
// durable store, returning its drain error if the drain failed. With
// no worker running the caller drains inline. Steps never staged (or
// drained long ago) return immediately.
func (t *Tier) WaitDurable(step int64) error {
	t.mu.Lock()
	for t.pending[step] {
		if !t.workerOn {
			t.mu.Unlock()
			t.DrainPending(1)
			t.mu.Lock()
			continue
		}
		t.cond.Wait()
	}
	err := t.failed[step]
	t.mu.Unlock()
	return err
}

// Sync blocks until every committed step has drained, returning the
// sticky first drain error, if any.
func (t *Tier) Sync() error {
	t.mu.Lock()
	for len(t.queue) > 0 || t.inFlight > 0 {
		if !t.workerOn && len(t.queue) > 0 {
			t.mu.Unlock()
			t.DrainPending(-1)
			t.mu.Lock()
			continue
		}
		t.cond.Wait()
	}
	err := t.lastErr
	t.mu.Unlock()
	return err
}

// Close drains everything still queued, stops the worker and returns
// the sticky drain error. The underlying stores' managers remain open
// (the tier does not own them).
func (t *Tier) Close() error {
	err := t.Sync()
	t.mu.Lock()
	t.closed = true
	t.cond.Broadcast()
	for t.workerOn {
		t.cond.Wait()
	}
	t.mu.Unlock()
	return err
}

// Recover rebuilds the drain queue after a restart. Staged steps that
// already made it to the durable store are dropped from staging;
// staged steps that verify clean are re-queued for draining; corrupt
// or incomplete staged steps (a crash mid-stage) are quarantined so
// RestoreLatest falls back past them.
func (t *Tier) Recover() error {
	steps, err := t.staging.Steps()
	if err != nil {
		return err
	}
	requeued := false
	for _, step := range steps {
		if _, err := t.durable.Manifest(step); err == nil {
			if err := t.staging.Drop(step); err != nil {
				return err
			}
			continue
		}
		if verr := t.staging.Verify(step); verr != nil {
			if errors.Is(verr, ckpt.ErrCorrupt) || errors.Is(verr, ckpt.ErrIncomplete) {
				if qerr := t.staging.Quarantine(step, verr.Error()); qerr != nil {
					return qerr
				}
				t.m.trace.Emitf("burst.recover.quarantine", "step=%d err=%v", step, verr)
				continue
			}
			return verr
		}
		size, err := t.staging.Size(step)
		if err != nil {
			return err
		}
		t.mu.Lock()
		if !t.pending[step] {
			t.queue = append(t.queue, stagedStep{step: step, bytes: size, stagedAt: t.rt.Now()})
			t.pending[step] = true
			t.pendingBytes += size
			t.notePending()
			t.m.highWater.SetMax(t.pendingBytes)
			requeued = true
			t.mu.Unlock()
			t.m.trace.Emitf("burst.recover.requeue", "step=%d bytes=%d", step, size)
			continue
		}
		t.mu.Unlock()
	}
	if requeued {
		t.cond.Broadcast()
	}
	return nil
}

// Restore routes a restore through the self-healing ckpt pipeline on
// both tiers and returns the newest usable checkpoint — the staged
// image when it is newer than anything durable, the durable image
// otherwise. Each tier independently gets the full pipeline (parallel
// verified reads, quarantine-and-fallback, optional journal and delta
// snapshot from opts), but the restored image always comes wholly from
// one tier, never a mix of a partially-drained step. The returned
// report is the winning tier's.
func (t *Tier) Restore(opts ckpt.RestoreOptions) (int64, map[string][]byte, *ckpt.RestoreReport, error) {
	sStep, sVars, sRep, sErr := t.staging.Restore(opts)
	if sErr != nil && !errors.Is(sErr, ckpt.ErrNoCheckpoint) {
		return 0, nil, sRep, sErr
	}
	dStep, dVars, dRep, dErr := t.durable.Restore(opts)
	if dErr != nil && !errors.Is(dErr, ckpt.ErrNoCheckpoint) {
		return 0, nil, dRep, dErr
	}
	switch {
	case sErr == nil && (dErr != nil || sStep >= dStep):
		return sStep, sVars, sRep, nil
	case dErr == nil:
		return dStep, dVars, dRep, nil
	default:
		return 0, nil, nil, ckpt.ErrNoCheckpoint
	}
}

// RestoreLatest restores the newest usable checkpoint across both
// tiers with default pipeline options (serial, no journal, no delta
// snapshot).
func (t *Tier) RestoreLatest() (int64, map[string][]byte, error) {
	step, vars, _, err := t.Restore(ckpt.RestoreOptions{})
	return step, vars, err
}

// twoPhase adapts the tier to the ckpt.TwoPhase interface.
type twoPhase struct{ t *Tier }

// TwoPhase exposes the tier through the ckpt two-phase durability API.
func (t *Tier) TwoPhase() ckpt.TwoPhase { return twoPhase{t} }

func (a twoPhase) Begin(step int64) (ckpt.Writer, error) { return a.t.Begin(step) }
func (a twoPhase) WaitDurable(step int64) error          { return a.t.WaitDurable(step) }
func (a twoPhase) Sync() error                           { return a.t.Sync() }
func (a twoPhase) RestoreLatest() (int64, map[string][]byte, error) {
	return a.t.RestoreLatest()
}
