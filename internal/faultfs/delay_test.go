package faultfs

import (
	"errors"
	"testing"
	"time"

	"lsmio/internal/resil"
	"lsmio/internal/vfs"
)

func TestDelayOnlyRuleStallsWithoutError(t *testing.T) {
	f := New(vfs.NewMemFS())
	var slept []time.Duration
	f.SetSleeper(func(d time.Duration) { slept = append(slept, d) })
	f.AddRule(&Rule{Op: OpWrite, Path: "slow.dat", Nth: 2, Times: 3,
		Delay: 7 * time.Millisecond, DelayOnly: true})

	h, err := f.Create("slow.dat")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := h.Write([]byte("x")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 3 {
		t.Fatalf("injected %d stalls, want 3 (writes 2..4)", len(slept))
	}
	for _, d := range slept {
		if d != 7*time.Millisecond {
			t.Fatalf("stall = %v, want 7ms", d)
		}
	}
	if f.Delayed() != 3 {
		t.Fatalf("Delayed() = %d, want 3", f.Delayed())
	}
	if f.Injected() != 0 {
		t.Fatalf("Injected() = %d, want 0 (delay-only rules are not errors)", f.Injected())
	}
}

func TestDelayBeforeInjectedError(t *testing.T) {
	f := New(vfs.NewMemFS())
	var slept time.Duration
	f.SetSleeper(func(d time.Duration) { slept += d })
	f.AddRule(&Rule{Op: OpSync, Delay: 3 * time.Millisecond, Transient: true})

	h, err := f.Create("a.dat")
	if err != nil {
		t.Fatal(err)
	}
	h.Write([]byte("x"))
	err = h.Sync()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("sync error = %v, want injected", err)
	}
	if slept != 3*time.Millisecond {
		t.Fatalf("slept %v before the failure, want 3ms", slept)
	}
	if resil.Classify(err) != resil.ClassTransient {
		t.Fatal("error lost its transient marker")
	}
}

func TestDelayRulesAccumulateAndOtherOpsUnaffected(t *testing.T) {
	f := New(vfs.NewMemFS())
	var slept time.Duration
	f.SetSleeper(func(d time.Duration) { slept += d })
	f.AddRule(&Rule{Op: OpRead, Times: -1, Delay: time.Millisecond, DelayOnly: true})
	f.AddRule(&Rule{Op: OpRead, Times: -1, Delay: 2 * time.Millisecond, DelayOnly: true})

	h, _ := f.Create("a.dat")
	h.Write([]byte("hello"))
	if slept != 0 {
		t.Fatalf("write slept %v, want 0 (rules are read-only)", slept)
	}
	buf := make([]byte, 5)
	if _, err := h.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if slept != 3*time.Millisecond {
		t.Fatalf("read slept %v, want 3ms (both rules accumulate)", slept)
	}
	h.Close()
}
