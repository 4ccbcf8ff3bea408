package mpisim

import (
	"fmt"
	"testing"
	"time"

	"lsmio/internal/netsim"
	"lsmio/internal/sim"
)

func newWorld(t *testing.T, n int) *World {
	t.Helper()
	k := sim.NewKernel()
	f := netsim.New(k, netsim.DefaultConfig(n))
	return NewWorld(k, f, n)
}

func TestSendRecv(t *testing.T) {
	w := newWorld(t, 2)
	var got string
	err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(1, 7, "hello", 5)
		case 1:
			got = r.Recv(0, 7).(string)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestMessagesFromSameSourceArriveInOrder(t *testing.T) {
	w := newWorld(t, 2)
	var got []int
	err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 5; i++ {
				r.Send(1, 3, i, 8)
			}
		} else {
			for i := 0; i < 5; i++ {
				got = append(got, r.Recv(0, 3).(int))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2 3 4]" {
		t.Fatalf("got %v", got)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			w := newWorld(t, n)
			after := make([]sim.Time, n)
			err := w.Run(func(r *Rank) {
				// Rank i computes for i ms, then everyone meets.
				r.Sleep(time.Duration(r.Rank()) * time.Millisecond)
				r.Barrier()
				after[r.Rank()] = r.Now()
			})
			if err != nil {
				t.Fatal(err)
			}
			slowest := sim.Time(time.Duration(n-1) * time.Millisecond)
			for i, at := range after {
				if at < slowest {
					t.Errorf("rank %d left barrier at %v, before slowest entered (%v)", i, at, slowest)
				}
			}
		})
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 13} {
		w := newWorld(t, n)
		got := make([]float64, n)
		err := w.Run(func(r *Rank) {
			got[r.Rank()] = r.AllreduceF64(float64(r.Rank()+1), func(a, b float64) float64 { return a + b })
		})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(n*(n+1)) / 2
		for i, v := range got {
			if v != want {
				t.Fatalf("n=%d rank %d got %v want %v", n, i, v, want)
			}
		}
	}
}

func TestGather(t *testing.T) {
	const n = 4
	w := newWorld(t, n)
	var gathered []any
	err := w.Run(func(r *Rank) {
		g := r.Gather(0, r.Rank()*10, 4)
		if r.Rank() == 0 {
			gathered = g
		} else if g != nil {
			t.Errorf("rank %d gathered %v, want nil off the root", r.Rank(), g)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gathered) != n {
		t.Fatalf("gathered %d items, want %d", len(gathered), n)
	}
	for i, v := range gathered {
		if v.(int) != i*10 {
			t.Fatalf("gathered[%d] = %v", i, v)
		}
	}
}

func TestMaxTime(t *testing.T) {
	const n = 4
	w := newWorld(t, n)
	got := make([]sim.Time, n)
	err := w.Run(func(r *Rank) {
		got[r.Rank()] = r.MaxTime(sim.Time(r.Rank() * 1000))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != sim.Time((n-1)*1000) {
			t.Fatalf("rank %d MaxTime = %v", i, v)
		}
	}
}

func TestBarrierCostGrowsLogarithmically(t *testing.T) {
	elapsed := func(n int) time.Duration {
		w := newWorld(t, n)
		var d time.Duration
		if err := w.Run(func(r *Rank) {
			r.Barrier()
			if r.Rank() == 0 {
				d = r.Now().Duration()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	t2, t32 := elapsed(2), elapsed(32)
	if t32 < t2 {
		t.Fatalf("barrier(32)=%v < barrier(2)=%v", t32, t2)
	}
	// log2(32)=5 tree levels each way; must stay well under a linear 31x.
	if t32 > 12*t2 {
		t.Fatalf("barrier(32)=%v too expensive vs barrier(2)=%v", t32, t2)
	}
}
