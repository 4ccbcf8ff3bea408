package rt

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"lsmio/internal/sim"
)

// world is one runtime under test plus the way to run a test body on
// it: inline for Real, as a simulation process driven to completion for
// Sim. run returns what Kernel.Run returned (nil for Real).
type world struct {
	name string
	rt   Runtime
	run  func(body func()) error
}

func worlds() []world {
	k := sim.NewKernel()
	return []world{
		{"real", Real(), func(body func()) error { body(); return nil }},
		{"sim", Sim(k), func(body func()) error {
			k.Spawn("main", func(*sim.Proc) { body() })
			return k.Run()
		}},
	}
}

// conformance runs body once per runtime; the kernel must drain clean.
func conformance(t *testing.T, body func(t *testing.T, w world)) {
	for _, w := range worlds() {
		t.Run(w.name, func(t *testing.T) {
			if err := w.run(func() { body(t, w) }); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMutualExclusion(t *testing.T) {
	conformance(t, func(t *testing.T, w world) {
		mu := w.rt.NewMutex()
		inside, total := 0, 0
		w.rt.Parallel("excl", 8, func(int) {
			for i := 0; i < 20; i++ {
				mu.Lock()
				inside++
				if inside != 1 {
					t.Errorf("%d tasks inside the critical section", inside)
				}
				// Block while holding the lock so contenders really queue.
				w.rt.Sleep(10 * time.Microsecond)
				total++
				inside--
				mu.Unlock()
			}
		})
		if total != 8*20 {
			t.Fatalf("total = %d, want %d", total, 8*20)
		}
	})
}

func TestWaitReleasesAndReacquires(t *testing.T) {
	conformance(t, func(t *testing.T, w world) {
		mu := w.rt.NewMutex()
		c := mu.NewCond()
		waiting, ready, inside := false, false, 0
		w.rt.Parallel("wait", 2, func(i int) {
			mu.Lock()
			defer mu.Unlock()
			if i == 0 {
				waiting = true
				c.Broadcast()
				for !ready {
					c.Wait()
				}
			} else {
				// Getting here while task 0 is parked in Wait proves Wait
				// released the mutex.
				for !waiting {
					c.Wait()
				}
				ready = true
				c.Broadcast()
			}
			// Both tasks end up here holding the mutex, so Wait must have
			// reacquired it: never two inside at once.
			inside++
			if inside != 1 {
				t.Errorf("%d tasks hold the mutex after Wait", inside)
			}
			w.rt.Sleep(10 * time.Microsecond)
			inside--
		})
	})
}

func TestBroadcastWakesAllAndCondsAreIndependent(t *testing.T) {
	conformance(t, func(t *testing.T, w world) {
		mu := w.rt.NewMutex()
		a, b := mu.NewCond(), mu.NewCond()
		var readyA, readyB, doneB bool
		parked, wokenA, wakesB := 0, 0, 0
		// One waiter on b, started first and outliving the a-round.
		w.rt.Go("b-waiter", false, func() {
			mu.Lock()
			parked++
			for !readyB {
				b.Wait()
				wakesB++
			}
			doneB = true
			a.Broadcast()
			mu.Unlock()
		})
		w.rt.Parallel("a", 4, func(i int) {
			mu.Lock()
			defer mu.Unlock()
			if i < 3 { // three waiters on a
				parked++
				for !readyA {
					a.Wait()
				}
				wokenA++
				return
			}
			for parked < 4 { // the signaller: wait until all four are parked
				mu.Unlock()
				w.rt.Sleep(100 * time.Microsecond)
				mu.Lock()
			}
			readyA = true
			a.Broadcast()
		})
		// Parallel joined: one Broadcast woke every a-waiter.
		mu.Lock()
		if wokenA != 3 {
			t.Errorf("a.Broadcast woke %d of 3 waiters", wokenA)
		}
		mu.Unlock()
		w.rt.Sleep(2 * time.Millisecond) // a wrongly woken b-waiter would run now
		mu.Lock()
		if wakesB != 0 {
			t.Errorf("a.Broadcast woke the waiter on b %d time(s)", wakesB)
		}
		readyB = true
		b.Broadcast()
		for !doneB {
			a.Wait()
		}
		if wakesB != 1 {
			t.Errorf("b-waiter woke %d times, want 1", wakesB)
		}
		mu.Unlock()
	})
}

func TestParallelRunsEveryBody(t *testing.T) {
	conformance(t, func(t *testing.T, w world) {
		for _, n := range []int{0, 1, 5} {
			mu := w.rt.NewMutex()
			ran := make([]int, n)
			w.rt.Parallel("p", n, func(i int) {
				w.rt.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
				mu.Lock()
				ran[i]++
				mu.Unlock()
			})
			for i, c := range ran {
				if c != 1 {
					t.Errorf("n=%d: body(%d) ran %d times", n, i, c)
				}
			}
		}
	})
}

func TestSleepAdvancesNow(t *testing.T) {
	conformance(t, func(t *testing.T, w world) {
		const d = 3 * time.Millisecond
		start := w.rt.Now()
		w.rt.Sleep(d)
		got := w.rt.Now() - start
		if got < d {
			t.Errorf("Sleep(%v) advanced Now by %v", d, got)
		}
		if w.rt.Kernel() != nil && got != d {
			t.Errorf("sim Sleep(%v) advanced virtual time by %v, want exactly %v", d, got, d)
		}
	})
}

func TestComputeIsFreeOnRealAndVirtualOnSim(t *testing.T) {
	conformance(t, func(t *testing.T, w world) {
		start := w.rt.Now()
		w.rt.Compute(time.Hour)
		got := w.rt.Now() - start
		if w.rt.Kernel() == nil {
			if got > time.Minute {
				t.Errorf("real Compute(1h) took %v", got)
			}
		} else if got != time.Hour {
			t.Errorf("sim Compute(1h) advanced virtual time by %v", got)
		}
	})
}

// A daemon task parked forever must not keep the kernel alive (nor, on
// the real runtime, the caller); the same task without the flag is the
// simulator's deadlock.
func TestDaemonDoesNotKeepRunAlive(t *testing.T) {
	forever := func(rtm Runtime) func() {
		mu := rtm.NewMutex()
		c := mu.NewCond()
		return func() {
			mu.Lock()
			for {
				c.Wait()
			}
		}
	}
	conformance(t, func(t *testing.T, w world) {
		w.rt.Go("worker", true, forever(w.rt))
		w.rt.Sleep(time.Millisecond)
	})
	k := sim.NewKernel()
	rtm := Sim(k)
	k.Spawn("main", func(*sim.Proc) { rtm.Go("worker", false, forever(rtm)) })
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("non-daemon task parked forever: Run returned %v, want a deadlock", err)
	}
}

// The same seeded program run twice on the simulator must produce the
// same event order at the same virtual times.
func TestSimIsDeterministic(t *testing.T) {
	program := func() []string {
		k := sim.NewKernel()
		rtm := Sim(k)
		var log []string
		k.Spawn("main", func(*sim.Proc) {
			mu := rtm.NewMutex()
			c := mu.NewCond()
			live := 6
			rtm.Parallel("t", 7, func(i int) {
				if i == 6 { // a ticker, so that no Wait below can wait forever
					for mu.Lock(); live > 0; mu.Lock() {
						c.Broadcast()
						mu.Unlock()
						rtm.Sleep(7 * time.Microsecond)
					}
					mu.Unlock()
					return
				}
				rng := rand.New(rand.NewSource(int64(42 + i)))
				for step := 0; step < 25; step++ {
					switch rng.Intn(4) {
					case 0:
						rtm.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
					case 1:
						rtm.Compute(time.Duration(rng.Intn(20)) * time.Microsecond)
					case 2: // hold the lock across a sleep: contenders queue
						mu.Lock()
						rtm.Sleep(time.Duration(rng.Intn(10)) * time.Microsecond)
						c.Broadcast()
						mu.Unlock()
					case 3:
						mu.Lock()
						c.Wait()
						mu.Unlock()
					}
					log = append(log, fmt.Sprintf("%d/%d@%v", i, step, rtm.Now()))
				}
				mu.Lock()
				live--
				mu.Unlock()
			})
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first, second := program(), program()
	if len(first) != 6*25 {
		t.Fatalf("program logged %d events, want %d", len(first), 6*25)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("two runs of one seeded program diverged")
	}
}
