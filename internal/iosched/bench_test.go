package iosched

import (
	"testing"
)

// BenchmarkIOSchedAcquire is one grant's bookkeeping: the classes take
// turns buying a ckpt-llm table block (64 KiB) from a budget so large
// that no grant waits, on a clock that only counts. "nil" is the cost a
// call site pays when no scheduler is configured.
func BenchmarkIOSchedAcquire(b *testing.B) {
	const block = 64 << 10
	for _, c := range []struct {
		name string
		s    *Scheduler
	}{
		{"enabled", New(Config{BytesPerSec: 1e18, Clock: &fakeClock{}})},
		{"nil", nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(block)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.s.Acquire(Class(i%int(NumClasses)), block)
			}
		})
	}
}
