package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var end Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		p.Sleep(5 * time.Millisecond)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := Time(15 * time.Millisecond); end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestEventOrderingIsFIFOAtSameInstant(t *testing.T) {
	k := NewKernel()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			p.Sleep(time.Millisecond)
			order = append(order, name)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[a b c]" {
		t.Fatalf("order = %v", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var trace []string
		r := NewResource(k, "disk", 1)
		for i := 0; i < 5; i++ {
			i := i
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(time.Duration(i%3) * time.Millisecond)
				r.Acquire(p, 1)
				p.Sleep(2 * time.Millisecond)
				r.Release(1)
				trace = append(trace, fmt.Sprintf("%d@%v", i, p.Now()))
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("non-deterministic traces:\n%v\n%v", a, b)
	}
}

func TestResourceSerializes(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "disk", 1)
	ends := make([]Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(10 * time.Millisecond)
			r.Release(1)
			ends[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []Time{Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(30 * time.Millisecond)} {
		if ends[i] != want {
			t.Errorf("proc %d ended at %v, want %v", i, ends[i], want)
		}
	}
}

func TestResourceCapacityTwoAdmitsPairs(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "lanes", 2)
	ends := make([]Time, 4)
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(10 * time.Millisecond)
			r.Release(1)
			ends[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []Time{Time(10 * time.Millisecond), Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(20 * time.Millisecond)} {
		if ends[i] != want {
			t.Errorf("proc %d ended at %v, want %v", i, ends[i], want)
		}
	}
}

func TestSignalBroadcastWakesAll(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	woke := 0
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			s.Wait(p)
			woke++
		})
	}
	k.Spawn("broadcaster", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 3 {
		t.Fatalf("woke = %d, want 3", woke)
	}
}

func TestQueueSendRecv(t *testing.T) {
	k := NewKernel()
	q := NewQueue(k, "mb")
	var got []int
	k.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Recv(p).(int))
		}
	})
	k.Spawn("send", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Millisecond)
			q.Send(i)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2]" {
		t.Fatalf("got %v", got)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	k.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

// The deadlock report names what each parked process waits on; the
// state is formatted only there, so this pins its text.
func TestDeadlockReportNamesParkStates(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	disk := NewResource(k, "disk", 1)
	mb := NewQueue(k, "mb")
	k.Spawn("a", func(p *Proc) { p.Sleep(5 * time.Millisecond) })
	k.Spawn("b", func(p *Proc) { s.Wait(p) })
	k.Spawn("c", func(p *Proc) {
		disk.Acquire(p, 1)
		disk.Acquire(p, 1)
	})
	k.Spawn("d", func(p *Proc) { mb.Recv(p) })
	var atZero string
	k.Spawn("reporter", func(p *Proc) { atZero = k.parkedSummary() }).SetDaemon(true)
	err := k.Run()
	if want := "a(sleep 5ms), b(signal), c(acquire disk), d(recv mb)"; atZero != want {
		t.Errorf("parked at 0: %q, want %q", atZero, want)
	}
	want := "sim: deadlock at 5ms: 3 process(es) parked: b(signal), c(acquire disk), d(recv mb)"
	if err == nil || err.Error() != want {
		t.Fatalf("Run = %v, want %q", err, want)
	}
}

// The event heap pops in (at, seq) order: FIFO among equal times.
func TestEventHeapOrder(t *testing.T) {
	var h eventHeap
	rng := rand.New(rand.NewSource(1))
	for seq := int64(1); seq <= 500; seq++ {
		h.push(event{at: Time(rng.Intn(20)), seq: seq})
		if rng.Intn(3) == 0 {
			h.pop()
		}
	}
	last := event{at: -1}
	for len(h) > 0 {
		e := h.pop()
		if !last.before(&e) {
			t.Fatalf("popped (%v, %d) after (%v, %d)", e.at, e.seq, last.at, last.seq)
		}
		last = e
	}
}

// BenchmarkSleepSwitch: two processes alternating Sleep, one switch per
// op. It reports allocations, which scheduling an event must not add.
func BenchmarkSleepSwitch(b *testing.B) {
	k := NewKernel()
	for range 2 {
		k.Spawn("pinger", func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Spawn("boom", func(p *Proc) { panic("kapow") })
	err := k.Run()
	if err == nil {
		t.Fatal("expected panic error")
	}
}

func TestJoin(t *testing.T) {
	k := NewKernel()
	var childEnd, parentEnd Time
	child := k.Spawn("child", func(p *Proc) {
		p.Sleep(7 * time.Millisecond)
		childEnd = p.Now()
	})
	k.Spawn("parent", func(p *Proc) {
		p.Join(child)
		parentEnd = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childEnd != parentEnd || parentEnd != Time(7*time.Millisecond) {
		t.Fatalf("childEnd=%v parentEnd=%v", childEnd, parentEnd)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel()
	var seen []string
	k.Spawn("outer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		inner := k.Spawn("inner", func(q *Proc) {
			q.Sleep(time.Millisecond)
			seen = append(seen, "inner")
		})
		p.Join(inner)
		seen = append(seen, "outer")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seen) != "[inner outer]" {
		t.Fatalf("seen = %v", seen)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", tm.Seconds())
	}
	if tm.Sub(Time(0)) != 1500*time.Millisecond {
		t.Fatalf("Sub = %v", tm.Sub(0))
	}
	if tm.Duration() != 1500*time.Millisecond {
		t.Fatalf("Duration = %v", tm.Duration())
	}
}

func TestDaemonDoesNotDeadlock(t *testing.T) {
	k := NewKernel()
	q := NewQueue(k, "svc")
	served := 0
	k.Spawn("service", func(p *Proc) {
		for {
			if q.Recv(p) == nil {
				return
			}
			served++
		}
	}).SetDaemon(true)
	k.Spawn("client", func(p *Proc) {
		q.Send(1)
		q.Send(2)
		p.Sleep(time.Millisecond)
	})
	// The daemon stays parked on Recv, but Run must end cleanly.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if served != 2 {
		t.Fatalf("served = %d", served)
	}
	// A second phase reuses the still-parked daemon.
	k.Spawn("client2", func(p *Proc) { q.Send(3) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if served != 3 {
		t.Fatalf("served = %d after phase 2", served)
	}
}

func TestCurrentProcVisibleToNestedCode(t *testing.T) {
	k := NewKernel()
	if k.Current() != nil {
		t.Fatal("Current outside run should be nil")
	}
	var inside *Proc
	library := func() { // library code with no *Proc plumbed through
		inside = k.Current()
		k.Compute(5 * time.Millisecond)
	}
	var end Time
	worker := k.Spawn("worker", func(p *Proc) {
		library()
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if inside != worker {
		t.Fatalf("Current() = %p, want the worker %p", inside, worker)
	}
	if end != Time(5*time.Millisecond) {
		t.Fatalf("Compute charged %v", end)
	}
	// Compute with no kernel / outside sim is a harmless no-op.
	k.Compute(time.Hour)
	var nilK *Kernel
	nilK.Compute(time.Hour)
}
