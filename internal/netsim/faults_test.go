package netsim

import (
	"errors"
	"testing"
	"time"

	"lsmio/internal/sim"
)

func TestPlanPartitionWindow(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, testConfig(3))
	pl := NewPlan().Partition([]int{0}, []int{1}, 5*time.Millisecond, 20*time.Millisecond)
	f.SetPlan(pl)
	var errs []error
	k.Spawn("s", func(p *sim.Proc) {
		for _, at := range []time.Duration{0, 10 * time.Millisecond, 30 * time.Millisecond} {
			if at > p.Now().Duration() {
				p.Sleep(at - p.Now().Duration())
			}
			_, err := f.TryTransfer(p, 0, 1, 100)
			errs = append(errs, err)
		}
		// The partition is directionless and does not affect other pairs.
		p.Sleep(time.Millisecond)
		if _, err := f.TryTransfer(p, 0, 2, 100); err != nil {
			t.Errorf("0->2 during window: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("transfers outside the window failed: %v, %v", errs[0], errs[2])
	}
	var de *DropError
	if !errors.As(errs[1], &de) || de.From != 0 || de.To != 1 {
		t.Fatalf("mid-window transfer = %v, want DropError{0,1}", errs[1])
	}
	if !de.TransientFault() {
		t.Fatal("DropError must be a transient fault")
	}
	if pl.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", pl.Dropped())
	}
}

func TestPlanRuleNthTimes(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, testConfig(2))
	// Drop the 2nd and 3rd matching transfers only.
	f.SetPlan(NewPlan().AddRule(Rule{From: -1, To: 1, Nth: 2, Times: 2, Action: FaultDrop}))
	var got []bool
	k.Spawn("s", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			_, err := f.TryTransfer(p, 0, 1, 10)
			got = append(got, err != nil)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drop pattern = %v, want %v", got, want)
		}
	}
}

func TestPlanDuplicate(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, testConfig(2))
	f.SetPlan(NewPlan().AddRule(Rule{From: 0, To: 1, Nth: 1, Times: 1, Action: FaultDup}))
	var dups []bool
	var end sim.Time
	k.Spawn("s", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			dup, err := f.TryTransfer(p, 0, 1, 100)
			if err != nil {
				t.Errorf("transfer %d: %v", i, err)
			}
			dups = append(dups, dup)
		}
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !dups[0] || dups[1] {
		t.Fatalf("dup pattern = %v, want [true false]", dups)
	}
	// The duplicate was charged as a second message: three latencies
	// and three wire times of 100 bytes.
	if want := sim.Time(3*time.Millisecond + 300*time.Nanosecond); end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestPlanDelayAddsLatency(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, testConfig(2))
	extra := 7 * time.Millisecond
	f.SetPlan(NewPlan().AddRule(Rule{From: -1, To: -1, Action: FaultDelay, Delay: extra}))
	var end sim.Time
	k.Spawn("s", func(p *sim.Proc) {
		if _, err := f.TryTransfer(p, 0, 1, 0); err != nil {
			t.Errorf("transfer: %v", err)
		}
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != sim.Time(time.Millisecond+extra) {
		t.Fatalf("end = %v, want %v", end, time.Millisecond+extra)
	}
}

func TestPlanFlapPeriodic(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, testConfig(2))
	// Link down for the first 2ms of every 10ms period.
	f.SetPlan(NewPlan().FlapLink([]int{0}, []int{1}, 10*time.Millisecond, 2*time.Millisecond, 0))
	probe := func(p *sim.Proc, at time.Duration) error {
		if at > p.Now().Duration() {
			p.Sleep(at - p.Now().Duration())
		}
		_, err := f.TryTransfer(p, 0, 1, 0)
		return err
	}
	k.Spawn("s", func(p *sim.Proc) {
		if err := probe(p, time.Millisecond); err == nil {
			t.Error("1ms: link should be down")
		}
		if err := probe(p, 5*time.Millisecond); err != nil {
			t.Errorf("5ms: %v", err)
		}
		if err := probe(p, 11*time.Millisecond); err == nil {
			t.Error("11ms: link should be down again")
		}
		if err := probe(p, 15*time.Millisecond); err != nil {
			t.Errorf("15ms: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanHealAndNilPlan(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, testConfig(2))
	pl := NewPlan().Partition([]int{0}, []int{1}, 0, 0) // forever
	f.SetPlan(pl)
	k.Spawn("s", func(p *sim.Proc) {
		if _, err := f.TryTransfer(p, 0, 1, 0); err == nil {
			t.Error("partitioned transfer should drop")
		}
		pl.Heal()
		if _, err := f.TryTransfer(p, 0, 1, 0); err != nil {
			t.Errorf("healed transfer: %v", err)
		}
		f.SetPlan(nil)
		if dup, err := f.TryTransfer(p, 0, 1, 0); err != nil || dup {
			t.Errorf("nil-plan transfer: dup=%v err=%v", dup, err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
