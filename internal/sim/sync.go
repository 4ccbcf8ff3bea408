package sim

import "time"

// Signal is a broadcast condition: processes Wait on it and are all resumed
// by the next Broadcast. There is no Wait-with-predicate; callers re-check
// their condition after waking, as with sync.Cond.
type Signal struct {
	k       *Kernel
	waiters []*Proc
}

// NewSignal returns a Signal bound to k.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Wait parks p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.park(parkState{kind: parkedSignal})
}

// Broadcast wakes every waiting process at the current virtual time, in the
// order they began waiting.
func (s *Signal) Broadcast() {
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		s.k.schedule(s.k.now, w)
	}
}

// Pending reports how many processes are waiting.
func (s *Signal) Pending() int { return len(s.waiters) }

// Resource models a capacity-limited facility (a disk, a NIC, a server
// thread pool) with FIFO admission. A process holds n units between Acquire
// and Release.
type Resource struct {
	k     *Kernel
	cap   int64
	inUse int64
	queue []resWaiter
	name  string
}

type resWaiter struct {
	p *Proc
	n int64
}

// NewResource returns a resource with the given capacity (must be positive).
func NewResource(k *Kernel, name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{k: k, cap: capacity, name: name}
}

// Acquire blocks p until n units are available and claims them.
// n must be in [1, capacity].
func (r *Resource) Acquire(p *Proc, n int64) {
	if n <= 0 || n > r.cap {
		panic("sim: bad acquire count")
	}
	if len(r.queue) == 0 && r.inUse+n <= r.cap {
		r.inUse += n
		return
	}
	r.queue = append(r.queue, resWaiter{p, n})
	p.park(parkState{kind: parkedAcquire, name: r.name})
}

// Release returns n units and admits queued processes in FIFO order.
func (r *Resource) Release(n int64) {
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: resource over-released: " + r.name)
	}
	for len(r.queue) > 0 && r.inUse+r.queue[0].n <= r.cap {
		w := r.queue[0]
		r.queue = r.queue[1:]
		r.inUse += w.n
		r.k.schedule(r.k.now, w.p)
	}
}

// Use acquires n units, sleeps for d, and releases: the common
// "occupy a facility for a service time" pattern.
func (r *Resource) Use(p *Proc, n int64, d time.Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}

// Queue is an unbounded FIFO mailbox between processes. Send never blocks;
// Recv blocks until an item is available. It is the building block for
// simulated message passing.
type Queue struct {
	k       *Kernel
	items   []any
	waiters []*Proc
	name    string
}

// NewQueue returns an empty mailbox bound to k.
func NewQueue(k *Kernel, name string) *Queue { return &Queue{k: k, name: name} }

// Send enqueues v and wakes one waiting receiver, if any.
func (q *Queue) Send(v any) {
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.k.schedule(q.k.now, w)
	}
}

// Recv dequeues the oldest item, blocking p until one is available.
func (q *Queue) Recv(p *Proc) any {
	for len(q.items) == 0 {
		q.waiters = append(q.waiters, p)
		p.park(parkState{kind: parkedRecv, name: q.name})
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v
}

// Len reports the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// WaitGroup tracks a set of child processes and lets a parent wait for all
// of them, mirroring sync.WaitGroup for simulated processes.
type WaitGroup struct {
	k     *Kernel
	count int
	sig   *Signal
}

// NewWaitGroup returns a WaitGroup bound to k.
func NewWaitGroup(k *Kernel) *WaitGroup {
	return &WaitGroup{k: k, sig: NewSignal(k)}
}

// Add increments the outstanding count by n.
func (wg *WaitGroup) Add(n int) { wg.count += n }

// Done decrements the count, waking waiters when it reaches zero.
func (wg *WaitGroup) Done() {
	wg.count--
	if wg.count < 0 {
		panic("sim: WaitGroup count below zero")
	}
	if wg.count == 0 {
		wg.sig.Broadcast()
	}
}

// Wait parks p until the count is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.sig.Wait(p)
	}
}

// Go spawns body as a child process tracked by the WaitGroup.
func (wg *WaitGroup) Go(name string, body func(p *Proc)) {
	wg.Add(1)
	wg.k.Spawn(name, func(p *Proc) {
		defer wg.Done()
		body(p)
	})
}
