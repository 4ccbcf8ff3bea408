// Package rt is the one seam between the two worlds this repository's
// code runs in: real goroutines on wall-clock time, and cooperative
// simulation processes on a sim.Kernel's virtual time. Every package
// that waits, sleeps, takes a timestamp or starts background work does
// it through a Runtime, so the paper's LSMIO code runs unchanged on the
// simulated Lustre and no package carries its own sim/goroutine fork
// (DESIGN.md §5).
//
// There are exactly two implementations: Real, whose clock has one
// process-wide epoch so timestamps taken by different layers compare,
// and Sim(k), where a task is a simulation process, a mutex is
// cooperative, and Compute advances virtual time. A stack is built by
// naming its runtime once and passing it down.
package rt

import (
	"fmt"
	"sync"
	"time"

	"lsmio/internal/sim"
)

// Clock is the monotonic time source: wall time since the process epoch
// on the real runtime, virtual time on the simulator. It is the whole
// seam for code that only paces or times out (resil.Policy,
// iosched.Scheduler), and small enough for a test to fake.
type Clock interface {
	Now() time.Duration
	// Sleep blocks the caller for d without consuming CPU.
	Sleep(d time.Duration)
}

// Runtime is a Clock plus tasks, CPU charging and locks.
type Runtime interface {
	Clock
	// Go starts fn as a background task. A daemon task may stay parked
	// forever without keeping sim.Kernel.Run alive (a worker waiting
	// for requests); on the real runtime the flag means nothing.
	Go(name string, daemon bool, fn func())
	// Parallel runs body(0) … body(n-1) as n concurrent tasks and
	// returns when all have finished; n <= 1 runs inline on the caller.
	Parallel(name string, n int, body func(i int))
	// Compute charges d of CPU time to the caller: free on the real
	// runtime, where real CPU time is really spent, and an advance of
	// the calling process's virtual clock on the simulator.
	Compute(d time.Duration)
	// NewMutex returns an unlocked Mutex.
	NewMutex() Mutex
	// Kernel returns the simulation kernel, nil on the real runtime.
	// It exists for the transports that only the simulator has (the
	// netsim fabric fronts); nothing else should branch on it.
	Kernel() *sim.Kernel
}

// Mutex is a mutual-exclusion lock with any number of condition
// variables bound to it (sync.Mutex / sync.Cond semantics). On the
// simulator a task that blocks while holding it parks in virtual time
// and contenders queue behind it, as goroutines would.
type Mutex interface {
	Lock()
	Unlock()
	// NewCond returns a condition variable whose Wait releases and
	// reacquires this mutex. Conds of one mutex are independent wait
	// channels: a Broadcast on one wakes no waiter of another.
	NewCond() Cond
}

// Cond is a condition variable bound to a Mutex. Wait must be called
// with the mutex held and re-checks its predicate in a loop, as with
// sync.Cond; Broadcast may be called with or without it.
type Cond interface {
	Wait()
	Broadcast()
}

// ---- real runtime -----------------------------------------------------

// epoch is the one wall-clock origin of the process.
var epoch = time.Now()

type realRuntime struct{}

// Real returns the goroutine runtime.
func Real() Runtime { return realRuntime{} }

func (realRuntime) Now() time.Duration             { return time.Since(epoch) }
func (realRuntime) Sleep(d time.Duration)          { time.Sleep(d) }
func (realRuntime) Go(_ string, _ bool, fn func()) { go fn() }
func (realRuntime) Compute(time.Duration)          {}
func (realRuntime) NewMutex() Mutex                { return &realMutex{} }
func (realRuntime) Kernel() *sim.Kernel            { return nil }

func (realRuntime) Parallel(_ string, n int, body func(i int)) {
	if n <= 1 {
		if n == 1 {
			body(0)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			body(i)
		}()
	}
	wg.Wait()
}

type realMutex struct{ sync.Mutex }

func (m *realMutex) NewCond() Cond { return sync.NewCond(&m.Mutex) }

// ---- simulated runtime ------------------------------------------------

type simRuntime struct {
	k      *sim.Kernel
	spawns int // uniquifies task names
}

// Sim returns the runtime of kernel k. Everything that can block —
// Sleep, Parallel, a contended Lock, Cond.Wait — must be called from a
// simulation process of k.
func Sim(k *sim.Kernel) Runtime { return &simRuntime{k: k} }

func (r *simRuntime) cur() *sim.Proc {
	p := r.k.Current()
	if p == nil {
		panic("rt: sim runtime blocked outside a simulation process")
	}
	return p
}

func (r *simRuntime) Now() time.Duration      { return r.k.Now().Duration() }
func (r *simRuntime) Sleep(d time.Duration)   { r.cur().Sleep(d) }
func (r *simRuntime) Compute(d time.Duration) { r.k.Compute(d) }
func (r *simRuntime) NewMutex() Mutex         { return &simMutex{r: r, free: sim.NewSignal(r.k)} }
func (r *simRuntime) Kernel() *sim.Kernel     { return r.k }

// Go spawns fn as a simulation process. The same logical task can be
// live several times over, so each spawn gets a unique suffix and the
// kernel's deadlock diagnostics stay readable.
func (r *simRuntime) Go(name string, daemon bool, fn func()) {
	r.spawns++
	r.k.Spawn(fmt.Sprintf("%s#%d", name, r.spawns), func(*sim.Proc) { fn() }).SetDaemon(daemon)
}

func (r *simRuntime) Parallel(name string, n int, body func(i int)) {
	if n <= 1 {
		if n == 1 {
			body(0)
		}
		return
	}
	cur := r.cur()
	procs := make([]*sim.Proc, n)
	for i := range procs {
		procs[i] = r.k.Spawn(fmt.Sprintf("%s%d", name, i), func(*sim.Proc) { body(i) })
	}
	for _, p := range procs {
		cur.Join(p)
	}
}

// simMutex is a cooperative mutex. Exactly one process runs at a time,
// so the flag needs no atomics; an uncontended Lock/Unlock pair
// schedules no kernel event (Broadcast with no waiters is a no-op) and
// therefore costs no virtual time and perturbs no event order.
type simMutex struct {
	r      *simRuntime
	locked bool
	free   *sim.Signal // waiters for the lock
}

func (m *simMutex) Lock() {
	for m.locked {
		m.free.Wait(m.r.cur())
	}
	m.locked = true
}

func (m *simMutex) Unlock() {
	if !m.locked {
		panic("rt: unlock of unlocked sim mutex")
	}
	m.locked = false
	m.free.Broadcast()
}

func (m *simMutex) NewCond() Cond { return &simCond{m: m, sig: sim.NewSignal(m.r.k)} }

type simCond struct {
	m   *simMutex
	sig *sim.Signal
}

func (c *simCond) Wait() {
	cur := c.m.r.cur()
	c.m.Unlock()
	c.sig.Wait(cur)
	c.m.Lock()
}

func (c *simCond) Broadcast() { c.sig.Broadcast() }
