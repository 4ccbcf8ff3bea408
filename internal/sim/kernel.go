// Package sim provides a deterministic discrete-event simulation kernel.
//
// Simulated entities are processes: ordinary Go functions that run in their
// own goroutine but are scheduled cooperatively, one at a time, by the
// Kernel. A process advances virtual time by sleeping, waiting on a Signal,
// or acquiring a Resource. Because exactly one process runs at any moment
// and the event queue is ordered by (time, sequence), a simulation is fully
// deterministic: the same program produces the same trajectory on every run.
//
// The kernel is the substrate for the simulated cluster used by the LSMIO
// benchmarks: MPI ranks, network transfers and Lustre object storage targets
// are all processes and resources on a single Kernel.
package sim

import (
	"fmt"
	"sort"
	"time"
)

// Time is an absolute virtual timestamp, in nanoseconds since the start of
// the simulation. The zero Time is the simulation epoch.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds returns t as a floating-point number of seconds since the epoch.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Duration returns t as a duration since the epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled resumption of a process.
type event struct {
	at  Time
	seq int64 // tie-breaker: FIFO among simultaneous events
	p   *Proc
}

func (e *event) before(f *event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// eventHeap is a binary min-heap of events by value, so scheduling
// allocates nothing once the slice has grown. (at, seq) is a total
// order, so the pop order is the same as any other heap's.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(&s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = event{}
	s = s[:last]
	for i := 0; ; {
		c := 2*i + 1 // the earlier of i's children
		if c >= len(s) {
			break
		}
		if c+1 < len(s) && s[c+1].before(&s[c]) {
			c++
		}
		if !s[c].before(&s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// Kernel owns the virtual clock, the event queue, and every process.
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now     Time
	seq     int64
	events  eventHeap
	yield   chan struct{} // handshake: running proc -> scheduler
	procs   map[int]*Proc // live (started, unfinished) processes
	nextID  int
	running bool
	current *Proc // the process currently executing, nil between events
	failure error // first panic captured from a process
}

// NewKernel returns a ready-to-use kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{
		yield: make(chan struct{}),
		procs: make(map[int]*Proc),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Current returns the process currently executing. Because the kernel is
// cooperative, any code reached from a process body — however deeply nested
// in libraries that know nothing about the simulator — can discover the
// process on whose behalf it runs and charge virtual time to it. It returns
// nil outside the simulation.
func (k *Kernel) Current() *Proc { return k.current }

// Compute charges d of CPU time to the currently running process. It is a
// convenience for cost models embedded in library code: a nil kernel or a
// call from outside the simulation is a no-op.
func (k *Kernel) Compute(d time.Duration) {
	if k == nil || d <= 0 {
		return
	}
	if p := k.current; p != nil {
		p.Sleep(d)
	}
}

func (k *Kernel) nextSeq() int64 {
	k.seq++
	return k.seq
}

// schedule enqueues a resumption of p at the given time.
func (k *Kernel) schedule(at Time, p *Proc) {
	if at < k.now {
		at = k.now
	}
	k.events.push(event{at: at, seq: k.nextSeq(), p: p})
}

// Proc is a simulated process. All blocking methods (Sleep, Signal.Wait,
// Resource.Acquire, ...) must be called from within the process's own body
// function; calling them from outside the simulation is a programming error.
type Proc struct {
	k       *Kernel
	id      int
	name    string
	resume  chan struct{}
	state   parkState // for deadlock diagnostics
	done    bool
	daemon  bool
	doneSig *Signal // lazily created by Join
}

// SetDaemon marks the process as a background service: it may remain
// parked (waiting for requests) when the event queue drains without the
// kernel reporting a deadlock, like a daemon thread. It returns p.
func (p *Proc) SetDaemon(on bool) *Proc {
	p.daemon = on
	return p
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn creates a process running body and schedules it to start at the
// current virtual time. It may be called before Run or from a running
// process.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	k.nextID++
	p := &Proc{
		k:      k,
		id:     k.nextID,
		name:   name,
		resume: make(chan struct{}),
	}
	k.procs[p.id] = p
	go func() {
		<-p.resume // wait for first scheduling
		defer func() {
			if r := recover(); r != nil {
				if k.failure == nil {
					k.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
				}
			}
			p.done = true
			delete(k.procs, p.id)
			if p.doneSig != nil {
				p.doneSig.Broadcast()
			}
			k.yield <- struct{}{}
		}()
		body(p)
	}()
	k.schedule(k.now, p)
	return p
}

// parkKind is what a parked process waits on.
type parkKind uint8

const (
	running parkKind = iota
	parkedSleep
	parkedSignal
	parkedAcquire
	parkedRecv
)

// parkState records what a process waits on. Only the deadlock report
// formats it, so parking allocates nothing.
type parkState struct {
	kind parkKind
	d    time.Duration // parkedSleep: the sleep's length
	name string        // parkedAcquire, parkedRecv: the resource or queue
}

func (s parkState) String() string {
	switch s.kind {
	case parkedSleep:
		return "sleep " + s.d.String()
	case parkedSignal:
		return "signal"
	case parkedAcquire:
		return "acquire " + s.name
	case parkedRecv:
		return "recv " + s.name
	}
	return ""
}

// park suspends the calling process until it is rescheduled. The caller must
// have arranged (event, signal wait list, resource queue) for a future
// resumption before parking.
func (p *Proc) park(state parkState) {
	p.state = state
	p.k.yield <- struct{}{}
	<-p.resume
	p.state = parkState{}
}

// Sleep advances the process's virtual clock by d (negative d counts as 0).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.k.schedule(p.k.now.Add(d), p)
	p.park(parkState{kind: parkedSleep, d: d})
}

// Join blocks until q has finished. Joining a finished process returns
// immediately.
func (p *Proc) Join(q *Proc) {
	if q.done {
		return
	}
	if q.doneSig == nil {
		q.doneSig = NewSignal(q.k)
	}
	q.doneSig.Wait(p)
}

// Run executes the simulation until no events remain. It returns an error if
// a process panicked, or if live processes remain parked with an empty event
// queue (deadlock).
func (k *Kernel) Run() error {
	if k.running {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	for len(k.events) > 0 {
		e := k.events.pop()
		if e.p.done {
			continue
		}
		k.now = e.at
		k.current = e.p
		e.p.resume <- struct{}{}
		<-k.yield
		k.current = nil
		if k.failure != nil {
			return k.failure
		}
	}
	stuck := 0
	for _, p := range k.procs {
		if !p.daemon {
			stuck++
		}
	}
	if stuck > 0 {
		return fmt.Errorf("sim: deadlock at %v: %d process(es) parked: %s",
			k.now, stuck, k.parkedSummary())
	}
	return nil
}

func (k *Kernel) parkedSummary() string {
	names := make([]string, 0, len(k.procs))
	for _, p := range k.procs {
		if p.daemon {
			continue
		}
		names = append(names, p.name+"("+p.state.String()+")")
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		if i == 8 {
			s += "..."
			break
		}
		s += n
	}
	return s
}
