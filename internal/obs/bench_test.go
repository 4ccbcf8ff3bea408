package obs

import "testing"

// BenchmarkObsCounterAdd is the cost every instrumented call pays to
// count: one Add on a counter handle, from one goroutine and from all.
func BenchmarkObsCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench.bytes")
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Add(64 << 10)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Add(64 << 10)
			}
		})
	})
}

// BenchmarkObsHistogramObserve is the cost of one latency sample:
// Observe on a histogram handle with values spread over the buckets a
// put's or a commit's latency in nanoseconds falls in.
func BenchmarkObsHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench.latency_ns")
	var vals [1024]int64
	for i := range vals {
		vals[i] = int64(1000 + i*i*97) // 1 µs to about 100 ms
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(vals[i%len(vals)])
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				h.Observe(vals[i%len(vals)])
				i++
			}
		})
	})
}
