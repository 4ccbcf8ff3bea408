package obs

// Window provides windowed (delta-since-last-advance) views over a
// registry's cumulative instruments without resetting them: other
// consumers reading the same registry keep seeing monotonic counters
// and ever-growing histograms, while the Window's owner sees only the
// activity inside each window. The stability harness uses one Window
// per reporting period to compute per-window throughput and quantiles
// (windowed p999 drift) from the same registry the engine, burst tier
// and scheduler record into.
//
// A Window is a cursor, not a copy of the registry: it retains the last
// snapshot it was primed or advanced with. It is not safe for
// concurrent use by multiple goroutines.
type Window struct {
	reg  *Registry
	prev Snapshot
}

// NewWindow opens a windowed view over reg, primed at the registry's
// current state: the first Advance returns only activity after this
// call.
func NewWindow(reg *Registry) *Window {
	return &Window{reg: reg, prev: reg.Snapshot()}
}

// Advance closes the current window and opens the next one, returning
// the delta snapshot for the closed window: counters and histogram
// buckets are activity within the window, gauges are the level at the
// window's end. The registry itself is never mutated.
func (w *Window) Advance() Snapshot {
	cur := w.reg.Snapshot()
	delta := cur.Delta(w.prev)
	w.prev = cur
	return delta
}
