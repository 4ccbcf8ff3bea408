package obs

import (
	"testing"
	"time"
)

func TestWindowDeltaViewsDoNotResetCumulativeState(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("w.bytes")
	h := reg.Histogram("w.lat")

	c.Add(100)
	h.ObserveDuration(10 * time.Millisecond)
	w := NewWindow(reg) // primed: pre-window activity excluded

	c.Add(40)
	h.ObserveDuration(20 * time.Millisecond)
	h.ObserveDuration(30 * time.Millisecond)
	win1 := w.Advance()
	if got := win1.Counters["w.bytes"]; got != 40 {
		t.Fatalf("window 1 counter = %d, want 40", got)
	}
	if got := win1.Hists["w.lat"].Count; got != 2 {
		t.Fatalf("window 1 hist count = %d, want 2", got)
	}

	// An empty window is empty, not a repeat of the previous one.
	win2 := w.Advance()
	if got := win2.Counters["w.bytes"]; got != 0 {
		t.Fatalf("idle window counter = %d, want 0", got)
	}
	if got := win2.Hists["w.lat"].Count; got != 0 {
		t.Fatalf("idle window hist count = %d, want 0", got)
	}

	c.Add(5)
	if got := w.Advance().Counters["w.bytes"]; got != 5 {
		t.Fatalf("window 3 counter = %d, want 5", got)
	}

	// The cumulative registry state was never touched: other consumers
	// still see running totals.
	snap := reg.Snapshot()
	if got := snap.Counters["w.bytes"]; got != 145 {
		t.Fatalf("cumulative counter = %d, want 145", got)
	}
	if got := snap.Hists["w.lat"].Count; got != 3 {
		t.Fatalf("cumulative hist count = %d, want 3", got)
	}
}

func TestWindowQuantilesArePerWindow(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("w.lat")
	w := NewWindow(reg)

	// Window 1: fast observations. Window 2: a 10% slow tail. The
	// windowed p99 must reflect only its own window — the cumulative
	// histogram would dilute the tail with all of history.
	for i := 0; i < 1000; i++ {
		h.ObserveDuration(time.Millisecond)
	}
	win1 := w.Advance()
	for i := 0; i < 90; i++ {
		h.ObserveDuration(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.ObserveDuration(time.Second)
	}
	win2 := w.Advance()

	if p := win1.Hists["w.lat"].Quantile(0.99); p > int64(10*time.Millisecond) {
		t.Fatalf("window 1 p99 = %v, want ~1ms", time.Duration(p))
	}
	if p := win2.Hists["w.lat"].Quantile(0.99); p < int64(100*time.Millisecond) {
		t.Fatalf("window 2 p99 = %v, want to catch the 1s outlier", time.Duration(p))
	}
}
