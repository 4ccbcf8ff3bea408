package resil

import (
	"context"
	"errors"
	"fmt"
	"time"

	"lsmio/internal/rt"
)

// Policy is the single retry/timeout discipline shared by every storage
// tier (pfs RPCs, burst drain, ckpt restore): bounded retries of
// transient faults with deterministic exponential backoff, an optional
// overall deadline on an injected monotonic clock, and cooperative
// context cancellation between attempts. Keeping the policy in one type
// means every tier classifies transient vs target-down vs corrupt
// identically instead of growing ad-hoc retry loops.
//
// The zero Policy performs exactly one attempt with no backoff.
type Policy struct {
	// MaxRetries bounds how many times a transient failure is retried
	// (total attempts = MaxRetries+1). Zero disables retry.
	MaxRetries int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default: no cap beyond
	// overflow protection).
	MaxDelay time.Duration
	// Timeout bounds one whole Do call — attempts plus backoffs — on
	// the caller's clock. Zero means no deadline. Expiry surfaces as an
	// error wrapping context.DeadlineExceeded.
	Timeout time.Duration
	// OnRetry, when set, observes each retry decision just before the
	// backoff sleep (attempt is the 0-based attempt that failed).
	OnRetry func(attempt int, err error)
}

// Class is the failure classification every tier shares. Markers are
// method interfaces (TransientFault / TargetDown), so classification
// needs no storage-layer imports and works across wrapped chains.
type Class int

const (
	// ClassOK classifies a nil error.
	ClassOK Class = iota
	// ClassTransient marks a retryable fault (e.g. a flaky OST RPC).
	ClassTransient
	// ClassTargetDown marks a request refused by a down storage target
	// (e.g. pfs.DeadOSTError). Never retried: the target needs repair
	// or re-striping, not patience.
	ClassTargetDown
	// ClassCanceled marks context cancellation or a policy/context
	// deadline expiry.
	ClassCanceled
	// ClassFatal is everything else (corruption, programming errors);
	// surfaced immediately.
	ClassFatal
)

func (c Class) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassTransient:
		return "transient"
	case ClassTargetDown:
		return "target-down"
	case ClassCanceled:
		return "canceled"
	case ClassFatal:
		return "fatal"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classify maps an error onto the shared failure taxonomy.
func Classify(err error) Class {
	if err == nil {
		return ClassOK
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassCanceled
	}
	var down interface{ TargetDown() bool }
	if errors.As(err, &down) && down.TargetDown() {
		return ClassTargetDown
	}
	var tr interface{ TransientFault() bool }
	if errors.As(err, &tr) && tr.TransientFault() {
		return ClassTransient
	}
	return ClassFatal
}

// ClassError is a Class plus a message: the form an error takes after
// crossing a serialization boundary (the collective-I/O fabric, the
// multi-tenant service front-end). The original error value cannot
// travel over a wire, but its classification can — ClassError carries
// it so Classify on the client side returns the same Class the server
// side computed. It implements the marker interfaces Classify probes
// for, and unwraps to the matching context error for ClassCanceled.
type ClassError struct {
	C   Class
	Msg string
}

func (e *ClassError) Error() string { return e.Msg }

// TransientFault marks the error retryable when it crossed the wire as
// ClassTransient.
func (e *ClassError) TransientFault() bool { return e.C == ClassTransient }

// TargetDown marks the error as a refused-by-down-target failure when
// it crossed the wire as ClassTargetDown.
func (e *ClassError) TargetDown() bool { return e.C == ClassTargetDown }

// Is lets errors.Is(err, context.Canceled) keep working across the
// wire for canceled requests.
func (e *ClassError) Is(target error) bool {
	return e.C == ClassCanceled && (target == context.Canceled || target == context.DeadlineExceeded)
}

// Backoff computes the delay before retry number attempt+1: exponential
// from BaseDelay, capped at MaxDelay, with a deterministic jitter factor
// in [0.5, 1.5) derived from the attempt and the caller-supplied seed —
// no real-time randomness, so simulations stay reproducible.
func (p Policy) Backoff(attempt int, seed uint64) time.Duration {
	d := p.BaseDelay << uint(attempt)
	if (p.MaxDelay > 0 && d > p.MaxDelay) || d <= 0 {
		d = p.MaxDelay
	}
	if d <= 0 {
		return 0
	}
	h := seed*0x9e3779b97f4a7c15 + uint64(attempt+1)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	frac := float64(h%1024) / 1024.0
	return time.Duration(float64(d) * (0.5 + frac))
}

// Do runs op under the policy: transient failures (ClassTransient) are
// retried up to MaxRetries times with Backoff sleeps on clk; any other
// class — target-down, canceled, fatal — surfaces immediately. ctx is
// checked between attempts (cooperative cancellation: an attempt in
// flight is never interrupted), and Timeout bounds the whole call on
// clk. op receives the 0-based attempt number; the last attempt's error
// is returned on exhaustion.
func (p Policy) Do(ctx context.Context, clk rt.Clock, seed uint64, op func(attempt int) error) error {
	if clk == nil {
		clk = rt.Real()
	}
	var deadline time.Duration
	hasDeadline := p.Timeout > 0
	if hasDeadline {
		deadline = clk.Now() + p.Timeout
	}
	for attempt := 0; ; attempt++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("resil: attempt %d not started: %w", attempt+1, err)
			}
		}
		if hasDeadline && clk.Now() >= deadline {
			return fmt.Errorf("resil: policy timeout %v exceeded before attempt %d: %w",
				p.Timeout, attempt+1, context.DeadlineExceeded)
		}
		err := op(attempt)
		if err == nil {
			return nil
		}
		if Classify(err) != ClassTransient || attempt >= p.MaxRetries {
			return err
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err)
		}
		d := p.Backoff(attempt, seed)
		if hasDeadline {
			rem := deadline - clk.Now()
			if rem <= 0 {
				return fmt.Errorf("resil: policy timeout %v exceeded after %d attempt(s): %w (last error: %v)",
					p.Timeout, attempt+1, context.DeadlineExceeded, err)
			}
			if d > rem {
				d = rem
			}
		}
		clk.Sleep(d)
	}
}
