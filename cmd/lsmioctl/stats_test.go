package main

import (
	"strings"
	"testing"
	"time"

	"lsmio/internal/iosched"
	"lsmio/internal/obs"
)

// The iosched section renders from a real scheduler's registry snapshot
// — one row per class, populated from the same instruments a live
// deployment records — and stays silent for a snapshot with no iosched
// instruments (a store opened without a scheduler attached).
// fakeClock is a single-threaded clock whose Sleep advances Now.
type fakeClock struct{ now time.Duration }

func (f *fakeClock) Now() time.Duration    { return f.now }
func (f *fakeClock) Sleep(d time.Duration) { f.now += d }

func TestWriteIOSchedSection(t *testing.T) {
	reg := obs.NewRegistry()
	s := iosched.New(iosched.Config{BytesPerSec: 100e6, Obs: reg, Clock: &fakeClock{}})
	s.Acquire(iosched.Foreground, 1<<20)
	s.Acquire(iosched.Scrub, 4<<20)

	var b strings.Builder
	writeIOSchedSection(&b, reg.Snapshot())
	out := b.String()
	for _, want := range []string{"device budget 100.0 MB/s", "foreground", "scrub", "deficit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("iosched section missing %q:\n%s", want, out)
		}
	}

	b.Reset()
	writeIOSchedSection(&b, obs.NewRegistry().Snapshot())
	if b.Len() != 0 {
		t.Fatalf("section printed for a snapshot with no iosched instruments:\n%s", b.String())
	}
}
