// Package obs is the repo-wide observability core: a dependency-free
// metrics registry (atomic counters, gauges, and log-bucketed latency
// histograms with mergeable snapshots) plus a bounded structured-event
// trace ring. Every layer of the stack — the LSM engine, the simulated
// PFS, the burst-buffer tier, the Manager and the checkpoint store —
// registers its instruments here under hierarchical dotted names
// (`lsm.compaction.bytes_written`, `pfs.ost.write_latency`, ...), so a
// single Snapshot()/Reset()/Delta() surface replaces the five ad-hoc
// per-package stats structs the repo grew in its first PRs.
//
// Conventions:
//
//   - Names are dotted paths, lowercase, with the owning subsystem as
//     the first segment. Counters count events or bytes; gauges hold a
//     level (pending bytes, high-water marks); histograms record
//     latencies in nanoseconds.
//   - Instruments are created on first use (get-or-create) and are safe
//     for concurrent use; recording is lock-free atomics.
//   - Time is an injected monotonic clock so the same instruments work
//     under the discrete-event simulator (virtual time) and in real
//     time. The default clock is the real runtime's (rt.Real).
//
// DESIGN.md §10 documents the naming scheme and the trace-event schema.
// One legacy stats field is left outside the registry,
// pfs.Stats.BytesWritten (a view of `pfs.bytes_written` that the
// repository benchmark reads); ROADMAP item 26 removes it.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lsmio/internal/rt"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an atomic level: it can move both ways, and SetMax keeps a
// monotonic high-water mark.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to n if n is larger (high-water tracking).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

func (g *Gauge) reset() { g.v.Store(0) }

// Registry is a named collection of instruments plus a trace ring. The
// zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	trace    *Trace
	now      func() time.Duration
}

// NewRegistry builds an empty registry on the real runtime's clock
// (wall time since the process epoch).
func NewRegistry() *Registry { return NewRegistryOn(rt.Real().Now) }

// NewRegistryOn builds an empty registry clocked by now — the Now of
// the rt.Runtime its stack runs on, so every timestamp and duration it
// records is virtual time inside the simulator.
func NewRegistryOn(now func() time.Duration) *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		now:      now,
	}
	r.trace = NewTrace(DefaultTraceCapacity, r.Now)
	return r
}

// Now reads the registry's monotonic clock.
func (r *Registry) Now() time.Duration { return r.now() }

// Counter returns (creating on first use) the counter named name.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (creating on first use) the gauge named name.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns (creating on first use) the histogram named name.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = NewHistogram()
	r.hists[name] = h
	return h
}

// Trace returns the registry's bounded event ring.
func (r *Registry) Trace() *Trace { return r.trace }

// Names returns every registered instrument name, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Snapshot captures every instrument's current value. The snapshot is a
// plain value: Delta of two snapshots yields exactly the activity that
// happened between them.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		At:       r.now(),
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Load()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Load()
	}
	for n, h := range r.hists {
		s.Hists[n] = h.Snapshot()
	}
	return s
}

// Reset zeroes every instrument and clears the trace ring, starting a
// fresh measurement window. Instrument identities are preserved: handles
// held by subsystems keep recording into the same instruments.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.Reset()
	}
	r.trace.Reset()
}

// ResetPrefix zeroes only the instruments whose dotted name starts with
// prefix (e.g. "lsm."), leaving the rest of a shared registry alone.
func (r *Registry) ResetPrefix(prefix string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for n, c := range r.counters {
		if strings.HasPrefix(n, prefix) {
			c.reset()
		}
	}
	for n, g := range r.gauges {
		if strings.HasPrefix(n, prefix) {
			g.reset()
		}
	}
	for n, h := range r.hists {
		if strings.HasPrefix(n, prefix) {
			h.Reset()
		}
	}
}

// Scope is a name-prefixed view of a registry, so a layer can register
// its instruments under its own subsystem segment without repeating it.
type Scope struct {
	r   *Registry
	pfx string
}

// Scope returns a view that prepends "prefix." to every instrument name.
func (r *Registry) Scope(prefix string) Scope { return Scope{r: r, pfx: prefix + "."} }

// Counter returns the scoped counter.
func (s Scope) Counter(name string) *Counter { return s.r.Counter(s.pfx + name) }

// Gauge returns the scoped gauge.
func (s Scope) Gauge(name string) *Gauge { return s.r.Gauge(s.pfx + name) }

// Histogram returns the scoped histogram.
func (s Scope) Histogram(name string) *Histogram { return s.r.Histogram(s.pfx + name) }

// Trace returns the underlying registry's trace ring.
func (s Scope) Trace() *Trace { return s.r.Trace() }
