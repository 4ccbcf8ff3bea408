package resil

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// policyClock is a manually-advanced monotonic clock; Sleep advances it.
type policyClock struct {
	mu  sync.Mutex
	now time.Duration
	log []time.Duration
}

func (c *policyClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *policyClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	c.log = append(c.log, d)
}

type transientErr struct{}

func (transientErr) Error() string        { return "flaky" }
func (transientErr) TransientFault() bool { return true }

type downErr struct{}

func (downErr) Error() string    { return "target dead" }
func (downErr) TargetDown() bool { return true }

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassOK},
		{transientErr{}, ClassTransient},
		{fmt.Errorf("wrapped: %w", transientErr{}), ClassTransient},
		{downErr{}, ClassTargetDown},
		{fmt.Errorf("wrapped: %w", downErr{}), ClassTargetDown},
		{context.Canceled, ClassCanceled},
		{fmt.Errorf("op: %w", context.DeadlineExceeded), ClassCanceled},
		{errors.New("corrupt block"), ClassFatal},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestPolicyRetriesTransientUntilSuccess(t *testing.T) {
	clk := &policyClock{}
	p := Policy{MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond}
	fails := 2
	attempts := 0
	err := p.Do(nil, clk, 7, func(attempt int) error {
		attempts++
		if attempt != attempts-1 {
			t.Errorf("attempt = %d, want %d", attempt, attempts-1)
		}
		if fails > 0 {
			fails--
			return transientErr{}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	// Two backoffs, exponential with jitter in [0.5, 1.5).
	if len(clk.log) != 2 {
		t.Fatalf("backoff sleeps = %d, want 2", len(clk.log))
	}
	for i, d := range clk.log {
		base := time.Millisecond << uint(i)
		if d < base/2 || d >= base*3/2 {
			t.Errorf("backoff %d = %v, want in [%v, %v)", i, d, base/2, base*3/2)
		}
	}
}

func TestPolicyBudgetExhaustionReturnsLastError(t *testing.T) {
	clk := &policyClock{}
	retried := 0
	p := Policy{
		MaxRetries: 2, BaseDelay: time.Millisecond,
		OnRetry: func(int, error) { retried++ },
	}
	attempts := 0
	err := p.Do(nil, clk, 1, func(int) error { attempts++; return transientErr{} })
	if !errors.As(err, &transientErr{}) {
		t.Fatalf("err = %v, want transientErr", err)
	}
	if attempts != 3 || retried != 2 {
		t.Fatalf("attempts = %d retries = %d, want 3 and 2", attempts, retried)
	}
}

func TestPolicyNeverRetriesTargetDownOrFatal(t *testing.T) {
	clk := &policyClock{}
	p := Policy{MaxRetries: 5, BaseDelay: time.Millisecond}
	for _, bad := range []error{downErr{}, errors.New("fatal")} {
		attempts := 0
		err := p.Do(nil, clk, 1, func(int) error { attempts++; return bad })
		if !errors.Is(err, bad) {
			t.Fatalf("err = %v, want %v", err, bad)
		}
		if attempts != 1 {
			t.Fatalf("attempts = %d for %v, want 1 (no retry)", attempts, bad)
		}
	}
}

func TestPolicyTimeoutBoundsAttemptsAndBackoff(t *testing.T) {
	clk := &policyClock{}
	p := Policy{MaxRetries: 100, BaseDelay: 10 * time.Millisecond, Timeout: 25 * time.Millisecond}
	attempts := 0
	err := p.Do(nil, clk, 1, func(int) error { attempts++; return transientErr{} })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if attempts == 0 || attempts > 4 {
		t.Fatalf("attempts = %d, want a small bounded number", attempts)
	}
	if clk.Now() > 25*time.Millisecond {
		t.Fatalf("clock advanced to %v, past the %v deadline", clk.Now(), p.Timeout)
	}
}

func TestPolicyContextCancellationBetweenAttempts(t *testing.T) {
	clk := &policyClock{}
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxRetries: 10, BaseDelay: time.Millisecond}
	attempts := 0
	err := p.Do(ctx, clk, 1, func(int) error {
		attempts++
		cancel() // cancel while the attempt is in flight
		return transientErr{}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (canceled before retry)", attempts)
	}
}

func TestPolicyBackoffDeterministic(t *testing.T) {
	p := Policy{MaxRetries: 4, BaseDelay: time.Millisecond, MaxDelay: 64 * time.Millisecond}
	for attempt := 0; attempt < 4; attempt++ {
		for seed := uint64(0); seed < 8; seed++ {
			a, b := p.Backoff(attempt, seed), p.Backoff(attempt, seed)
			if a != b {
				t.Fatalf("Backoff(%d, %d) not deterministic: %v vs %v", attempt, seed, a, b)
			}
		}
	}
	// The cap must hold even deep into the sequence.
	if d := p.Backoff(40, 3); d >= 96*time.Millisecond {
		t.Fatalf("Backoff(40) = %v, exceeds jittered MaxDelay", d)
	}
}

// TestHalfOpenSingleProbeUnderConcurrency drives an opened breaker past
// its timeout and hammers Route from many goroutines: exactly one caller
// may win the half-open probe, however the race resolves (satellite
// coverage for the breaker's probe single-flight, run under -race).
func TestHalfOpenSingleProbeUnderConcurrency(t *testing.T) {
	var now atomic.Int64
	clock := func() time.Duration { return time.Duration(now.Load()) }
	tr := New(1, clock, Options{})

	for i := 0; i < errThreshold; i++ {
		tr.ObserveErr(0)
	}
	if tr.State(0) != Open {
		t.Fatalf("state = %v, want Open", tr.State(0))
	}
	if tr.Route(0) {
		t.Fatal("open breaker routed before its timeout")
	}
	now.Store(int64(2 * openTimeout))

	const callers = 64
	var granted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tr.Route(0) {
				granted.Add(1)
			}
		}()
	}
	wg.Wait()
	if granted.Load() != 1 {
		t.Fatalf("half-open granted %d probes, want exactly 1", granted.Load())
	}
	if tr.State(0) != HalfOpen {
		t.Fatalf("state = %v, want HalfOpen", tr.State(0))
	}

	// The probe's success closes the breaker for everyone.
	tr.ObserveOK(0, time.Millisecond)
	var reopened atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tr.Route(0) {
				reopened.Add(1)
			}
		}()
	}
	wg.Wait()
	if reopened.Load() != callers {
		t.Fatalf("closed breaker routed %d/%d callers", reopened.Load(), callers)
	}
}

// TestHalfOpenFailedProbeReopens covers the probe-failure edge under the
// same concurrent load: the failed probe restarts the open timer and no
// caller routes until it elapses again.
func TestHalfOpenFailedProbeReopens(t *testing.T) {
	var now atomic.Int64
	clock := func() time.Duration { return time.Duration(now.Load()) }
	tr := New(1, clock, Options{})

	for i := 0; i < errThreshold; i++ {
		tr.ObserveErr(0)
	}
	now.Store(int64(openTimeout + openTimeout/2))
	if !tr.Route(0) {
		t.Fatal("timeout elapsed but no probe granted")
	}
	tr.ObserveErr(0) // probe fails
	if tr.State(0) != Open {
		t.Fatalf("state = %v, want Open after failed probe", tr.State(0))
	}
	var granted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tr.Route(0) {
				granted.Add(1)
			}
		}()
	}
	wg.Wait()
	if granted.Load() != 0 {
		t.Fatalf("reopened breaker granted %d routes before its timer", granted.Load())
	}
}
