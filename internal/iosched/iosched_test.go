package iosched

import (
	"sync"
	"testing"
	"time"

	"lsmio/internal/rt"
	"lsmio/internal/sim"
)

// fakeClock is a deterministic single-threaded clock: Sleep simply
// advances Now, so a test observes exactly the pacing the scheduler
// imposed.
type fakeClock struct {
	now time.Duration
}

func (f *fakeClock) Now() time.Duration    { return f.now }
func (f *fakeClock) Sleep(d time.Duration) { f.now += d }

func TestDisabledAndNilAreFree(t *testing.T) {
	var nilSched *Scheduler
	if w := nilSched.Acquire(Flush, 1<<20); w != 0 {
		t.Fatalf("nil scheduler waited %v", w)
	}
	nilSched.Cancel(Flush, 1<<20)
	if nilSched.Enabled() {
		t.Fatal("nil scheduler reports enabled")
	}
	f := &fakeClock{}
	s := New(Config{Clock: f}) // BytesPerSec 0: disabled
	if w := s.Acquire(Compaction, 64<<20); w != 0 || f.now != 0 {
		t.Fatalf("disabled scheduler paced: wait=%v now=%v", w, f.now)
	}
}

// Work conservation: a class alone on the device borrows the whole
// budget regardless of its configured share.
func TestWorkConservationIdleBudgetBorrowable(t *testing.T) {
	f := &fakeClock{}
	s := New(Config{BytesPerSec: 100e6, Clock: f})
	for i := 0; i < 10; i++ {
		s.Acquire(Scrub, 1<<20) // 5% reserved share, but nobody else is active
	}
	// 9 chunks paced at the FULL device rate before the 10th is granted:
	// ~94ms. At scrub's reserved 5% it would have been ~1.9s.
	elapsed := f.now
	if elapsed < 85*time.Millisecond || elapsed > 105*time.Millisecond {
		t.Fatalf("lone scrub class not work-conserving: elapsed %v, want ~94ms", elapsed)
	}
	// An idle class banks no credit: after a gap longer than 50 ms its
	// next grant starts at now and occupies the device for its full
	// duration.
	f.now = s.State(Scrub).NextFree + 200*time.Millisecond
	if w := s.Acquire(Scrub, 1<<20); w != 0 {
		t.Fatalf("grant after an idle gap waited %v, want 0", w)
	}
	if got, want := s.State(Scrub).NextFree-f.now, time.Duration(float64(1<<20)/100e6*float64(time.Second)); got != want {
		t.Fatalf("grant after an idle gap ends %v after now, want %v", got, want)
	}
}

// Borrowing reverts once another class activates: with compaction
// holding unexpired claims, scrub is paced at share-proportional rate.
func TestBorrowingRevertsUnderContention(t *testing.T) {
	f := &fakeClock{}
	s := New(Config{BytesPerSec: 100e6, Clock: f})
	s.Acquire(Compaction, 15<<20) // alone: full rate, claims ~157ms of device
	s.Acquire(Scrub, 1<<20)
	// Scrub's effective rate = 100e6 * 5/(5+15) = 25 MB/s → 1 MiB ≈ 41.9ms.
	got := s.State(Scrub).NextFree - f.now
	want := time.Duration(float64(1<<20) / 25e6 * float64(time.Second))
	if got < want*9/10 || got > want*11/10 {
		t.Fatalf("contended scrub grant %v, want ~%v (25%% of device)", got, want)
	}
}

// Deficit accounting: a class that waited accrues a byte deficit, its
// weight doubles, and the deficit drains to zero as grants flow.
func TestDeficitAccruesAndDrains(t *testing.T) {
	f := &fakeClock{}
	s := New(Config{BytesPerSec: 10e6, Clock: f})
	s.Acquire(Scrub, 10<<20) // builds ~1.05s of backlog
	s.Acquire(Scrub, 1024)   // waits behind it → accrues deficit at reserved rate
	if d := s.State(Scrub).Deficit; d <= 0 {
		t.Fatalf("no deficit accrued after a %v wait", f.now)
	}
	for i := 0; i < 64 && s.State(Scrub).Deficit > 0; i++ {
		s.Acquire(Scrub, 64<<10)
	}
	if d := s.State(Scrub).Deficit; d != 0 {
		t.Fatalf("deficit did not drain: %d bytes left", d)
	}
}

// No starvation + determinism on the sim clock: a scrub class draining
// a fixed backlog beside a compaction flood finishes within its
// reserved-rate bound, and two identical runs produce identical grant
// timelines.
func TestSimDeterminismAndNoStarvation(t *testing.T) {
	run := func() (compEnd, scrubEnd time.Duration) {
		k := sim.NewKernel()
		s := New(Config{BytesPerSec: 100e6, Clock: rt.Sim(k)})
		k.Spawn("comp", func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				s.Acquire(Compaction, 1<<20)
			}
			compEnd = p.Now().Duration()
		})
		k.Spawn("scrub", func(p *sim.Proc) {
			for i := 0; i < 32; i++ {
				s.Acquire(Scrub, 256<<10)
			}
			scrubEnd = p.Now().Duration()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return compEnd, scrubEnd
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Fatalf("non-deterministic grant timeline: (%v,%v) vs (%v,%v)", c1, s1, c2, s2)
	}
	// 8 MiB of scrub at its reserved 5% of 100 MB/s would take 1.68s;
	// finishing by then (with margin) means the flood never starved it.
	if bound := 2 * time.Second; s1 > bound {
		t.Fatalf("scrub starved beside compaction flood: finished at %v > %v", s1, bound)
	}
	// And it must actually have been contended — alone it takes ~84ms.
	if s1 < 100*time.Millisecond {
		t.Fatalf("scrub unthrottled beside compaction flood: finished at %v", s1)
	}
}

// Token accounting stays balanced under concurrent acquire/cancel
// (run with -race): granted − consumed-refunds bytes equal the device
// time charged, and refund pools never exceed what was canceled.
func TestTokenAccountingUnderConcurrentAcquireCancel(t *testing.T) {
	const rate = 4e9
	s := New(Config{BytesPerSec: rate})
	classes := []Class{Foreground, Flush, Compaction, Scrub}
	var mu sync.Mutex
	var granted, canceled int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			var myGranted, myCanceled int64
			for i := 0; i < 60; i++ {
				c := classes[(g+i)%len(classes)]
				n := int64(64 << 10)
				s.Acquire(c, n)
				myGranted += n
				if i%5 == 4 {
					// Model a failed write: the tokens were never
					// spent on the device, return them.
					s.Cancel(c, n)
					myCanceled += n
				}
			}
			mu.Lock()
			granted += myGranted
			canceled += myCanceled
			mu.Unlock()
		}()
	}
	wg.Wait()
	var refundLeft int64
	var grantedCtr, canceledCtr int64
	for _, c := range classes {
		st := s.State(c)
		if st.Refund < 0 || st.Deficit < 0 {
			t.Fatalf("class %v: negative accounting %+v", c, st)
		}
		refundLeft += st.Refund
		grantedCtr += s.m.bytes[c].Load()
		canceledCtr += s.m.canceled[c].Load()
	}
	if grantedCtr != granted || canceledCtr != canceled {
		t.Fatalf("counter drift: granted %d/%d canceled %d/%d",
			grantedCtr, granted, canceledCtr, canceled)
	}
	if refundLeft > canceled {
		t.Fatalf("refund pool %d exceeds canceled bytes %d", refundLeft, canceled)
	}
	// Bytes actually bought = granted − refunds that later acquires
	// consumed; the device-time counter must agree with it.
	bought := granted - (canceled - refundLeft)
	wantBusy := float64(bought) / rate * float64(time.Second)
	gotBusy := float64(s.m.busyNanos.Load())
	if diff := gotBusy - wantBusy; diff < -0.02*wantBusy || diff > 0.02*wantBusy {
		t.Fatalf("device-time accounting drift: busy %v, want ~%v",
			time.Duration(gotBusy), time.Duration(wantBusy))
	}
}

// A canceled grant becomes a refund credit that the class's next
// Acquire spends before it buys device time.
func TestCancelRefundsTheGrant(t *testing.T) {
	f := &fakeClock{}
	s := New(Config{BytesPerSec: 10e6, Clock: f})
	s.Acquire(Compaction, 8<<20) // backlog so the next acquire must sleep
	if wait := s.Acquire(Compaction, 1<<20); wait <= 0 {
		t.Fatal("second acquire did not wait behind the backlog")
	}
	s.Cancel(Compaction, 1<<20)
	before := s.State(Compaction)
	if before.Refund != 1<<20 {
		t.Fatalf("canceled grant not refunded: %+v", before)
	}
	if wait := s.Acquire(Compaction, 1<<20); wait != 0 {
		t.Fatalf("acquire covered by the refund waited %v", wait)
	}
	if st := s.State(Compaction); st.Refund != 0 || st.NextFree != before.NextFree {
		t.Fatalf("refunded acquire bought device time: before %+v after %+v", before, st)
	}
}
