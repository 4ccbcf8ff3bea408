package resil

import (
	"sync"
	"testing"
	"time"

	"lsmio/internal/obs"
)

// fakeClock is a manually advanced monotonic clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func newTestTracker(n int, opts Options) (*Tracker, *fakeClock) {
	clk := &fakeClock{}
	return New(n, clk.Now, opts), clk
}

func TestBreakerOpensOnConsecutiveErrors(t *testing.T) {
	tr, _ := newTestTracker(4, Options{})
	if !tr.Route(0) {
		t.Fatal("healthy target should route")
	}
	tr.ObserveErr(0)
	tr.ObserveErr(0)
	if tr.State(0) != Closed {
		t.Fatalf("state after 2 errors = %v, want closed", tr.State(0))
	}
	tr.ObserveErr(0)
	if tr.State(0) != Open {
		t.Fatalf("state after 3 errors = %v, want open", tr.State(0))
	}
	if tr.Route(0) {
		t.Fatal("open breaker should not route before timeout")
	}
}

func TestSuccessResetsErrorStreak(t *testing.T) {
	tr, _ := newTestTracker(2, Options{})
	tr.ObserveErr(0)
	tr.ObserveErr(0)
	tr.ObserveOK(0, time.Millisecond)
	tr.ObserveErr(0)
	tr.ObserveErr(0)
	if tr.State(0) != Closed {
		t.Fatalf("streak should have reset; state = %v", tr.State(0))
	}
}

// openBreaker opens target i's breaker with consecutive errors.
func openBreaker(t *testing.T, tr *Tracker, i int) {
	t.Helper()
	for n := 0; n < errThreshold; n++ {
		tr.ObserveErr(i)
	}
	if tr.State(i) != Open {
		t.Fatal("breaker should be open")
	}
}

func TestHalfOpenProbeRecovers(t *testing.T) {
	tr, clk := newTestTracker(2, Options{})
	openBreaker(t, tr, 0)
	clk.Advance(openTimeout / 2)
	if tr.Route(0) {
		t.Fatal("should still be rejecting before the open timeout")
	}
	clk.Advance(openTimeout/2 + 10*time.Millisecond)
	if !tr.Route(0) {
		t.Fatal("first Route after timeout should grant the half-open probe")
	}
	if tr.State(0) != HalfOpen {
		t.Fatalf("state = %v, want half-open", tr.State(0))
	}
	if tr.Route(0) {
		t.Fatal("only one probe may be in flight while half-open")
	}
	tr.ObserveOK(0, time.Millisecond)
	if tr.State(0) != Closed {
		t.Fatalf("successful probe should close breaker; state = %v", tr.State(0))
	}
	if !tr.Route(0) {
		t.Fatal("closed breaker should route")
	}
}

func TestHalfOpenProbeFailureReopens(t *testing.T) {
	tr, clk := newTestTracker(2, Options{})
	openBreaker(t, tr, 0)
	clk.Advance(openTimeout + openTimeout/2)
	if !tr.Route(0) {
		t.Fatal("probe should be granted")
	}
	tr.ObserveErr(0)
	if tr.State(0) != Open {
		t.Fatalf("failed probe should reopen; state = %v", tr.State(0))
	}
	// Timer restarted: still rejecting until a fresh timeout elapses.
	clk.Advance(openTimeout / 2)
	if tr.Route(0) {
		t.Fatal("reopened breaker should reject until a fresh timeout elapses")
	}
	clk.Advance(openTimeout/2 + 10*time.Millisecond)
	if !tr.Route(0) {
		t.Fatal("second probe should be granted after fresh timeout")
	}
}

func TestSlownessTripsBreaker(t *testing.T) {
	trace := obs.NewTrace(16, func() time.Duration { return 0 })
	tr, _ := newTestTracker(4, Options{SlowStrikes: 4, Trace: trace})
	// Establish a 1ms baseline on targets 1..3.
	for r := 0; r < 8; r++ {
		for i := 1; i < 4; i++ {
			tr.ObserveOK(i, time.Millisecond)
		}
	}
	// Target 0 serves 10x the median.
	for r := 0; r < 4; r++ {
		if tr.State(0) != Closed {
			break
		}
		tr.ObserveOK(0, 10*time.Millisecond)
	}
	if tr.State(0) != Open {
		t.Fatalf("sustained slowness should open breaker; state = %v", tr.State(0))
	}
	var trips []string
	for _, ev := range trace.Events() {
		if ev.Kind == "resil.breaker.trip" {
			trips = append(trips, ev.Detail)
		}
	}
	if want := "target=0 reason=slow trips=1"; len(trips) != 1 || trips[0] != want {
		t.Fatalf("trip events = %q, want [%q]", trips, want)
	}
}

func TestUniformLoadNeverTrips(t *testing.T) {
	tr, _ := newTestTracker(4, Options{SlowStrikes: 4})
	for r := 0; r < 64; r++ {
		for i := 0; i < 4; i++ {
			tr.ObserveOK(i, time.Duration(1+r%3)*time.Millisecond)
		}
	}
	for i := 0; i < 4; i++ {
		if tr.State(i) != Closed {
			t.Fatalf("target %d tripped under uniform load", i)
		}
	}
}

func TestEWMAAndQuantile(t *testing.T) {
	tr, _ := newTestTracker(2, Options{})
	tr.ObserveOK(0, 10*time.Millisecond)
	if got := tr.EWMA(0); got != 10*time.Millisecond {
		t.Fatalf("first EWMA = %v, want 10ms", got)
	}
	tr.ObserveOK(0, 20*time.Millisecond)
	// 0.3 × 20ms + 0.7 × 10ms, to within float rounding.
	if got := tr.EWMA(0); got < 13*time.Millisecond-time.Nanosecond || got > 13*time.Millisecond+time.Nanosecond {
		t.Fatalf("EWMA = %v, want 13ms", got)
	}
	if tr.Quantile(0.5) == 0 {
		t.Fatal("quantile should be non-zero after observations")
	}
	// Histogram min/max are tracked exactly, so the extremes stay exact.
	if lo, hi := tr.Quantile(0), tr.Quantile(1); lo != 10*time.Millisecond || hi != 20*time.Millisecond {
		t.Fatalf("quantile bounds = %v..%v, want 10ms..20ms", lo, hi)
	}
	for i := 0; i < 32; i++ {
		tr.ObserveOK(1, time.Millisecond)
	}
	if tr.Quantile(0.99) == 0 {
		t.Fatal("quantile after many observations should be non-zero")
	}
}

func TestQuantileEmpty(t *testing.T) {
	tr, _ := newTestTracker(1, Options{})
	if tr.Quantile(0.5) != 0 {
		t.Fatal("quantile of empty histogram should be 0")
	}
}

// An injected shared histogram is read-only for the tracker: the owner
// records observations, the tracker serves quantiles from it, and
// ObserveOK must not double-record.
func TestInjectedLatencyHistogram(t *testing.T) {
	h := obs.NewHistogram()
	clk := &fakeClock{}
	tr := New(2, clk.Now, Options{Latency: h})
	tr.ObserveOK(0, 10*time.Millisecond)
	if h.Snapshot().Count != 0 {
		t.Fatalf("tracker recorded %d samples into an injected histogram (owner records)", h.Snapshot().Count)
	}
	h.ObserveDuration(10 * time.Millisecond)
	h.ObserveDuration(30 * time.Millisecond)
	if lo, hi := tr.Quantile(0), tr.Quantile(1); lo != 10*time.Millisecond || hi != 30*time.Millisecond {
		t.Fatalf("quantiles from injected histogram = %v..%v", lo, hi)
	}
}

// Breaker life-cycle events land in an injected trace ring.
func TestBreakerTraceEvents(t *testing.T) {
	clk := &fakeClock{}
	trace := obs.NewTrace(16, clk.Now)
	tr := New(2, clk.Now, Options{Trace: trace})
	openBreaker(t, tr, 0)
	clk.Advance(openTimeout + openTimeout/2)
	if !tr.Route(0) {
		t.Fatal("probe should be granted")
	}
	tr.ObserveOK(0, time.Millisecond)
	kinds := make(map[string]int)
	for _, ev := range trace.Events() {
		kinds[ev.Kind]++
	}
	for _, k := range []string{"resil.breaker.trip", "resil.breaker.probe", "resil.breaker.close"} {
		if kinds[k] == 0 {
			t.Fatalf("missing trace event %s; got %v", k, kinds)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	tr, clk := newTestTracker(8, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch i % 4 {
				case 0:
					tr.ObserveOK(g, time.Duration(i)*time.Microsecond)
				case 1:
					tr.ObserveErr(g)
				case 2:
					tr.Route(g)
					clk.Advance(time.Microsecond)
				case 3:
					tr.Quantile(0.9)
					tr.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
}
