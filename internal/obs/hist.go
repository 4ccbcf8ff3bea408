package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: values 0..3 get their own bucket; every
// power-of-two range above that is split into 4 linear sub-buckets, so
// bucket width is at most 25% of the value (~12.5% representative
// error at the midpoint). With int64 nanosecond values that is
// 4 + 62*4 = 252 buckets, all atomics — recording is lock-free and
// snapshots are mergeable bucket-wise.
const (
	histSmall   = 4 // values 0..3 map to buckets 0..3 exactly
	histSubBits = 2 // 4 linear sub-buckets per power of two
	numBuckets  = histSmall + (63-histSubBits+1)*(1<<histSubBits)
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < histSmall {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // e >= 2
	sub := int((uint64(v) >> (uint(e) - histSubBits)) & (1<<histSubBits - 1))
	return histSmall + (e-histSubBits)*(1<<histSubBits) + sub
}

// bucketBounds returns the inclusive lower and exclusive upper value
// bound of bucket idx.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < histSmall {
		return int64(idx), int64(idx) + 1
	}
	b := idx - histSmall
	e := uint(b>>histSubBits) + histSubBits
	sub := int64(b & (1<<histSubBits - 1))
	width := int64(1) << (e - histSubBits)
	lo = int64(1)<<e + sub*width
	return lo, lo + width
}

// Histogram is a lock-free log-bucketed histogram of int64 values
// (latencies in nanoseconds by convention). Min and max are tracked
// exactly, so Quantile(0) and Quantile(1) are exact; interior quantiles
// are bucket-midpoint estimates with ≤25% bucket width.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Quantile estimates the q-quantile of the live histogram.
func (h *Histogram) Quantile(q float64) int64 { return h.Snapshot().Quantile(q) }

// Reset zeroes the histogram. Not atomic with respect to concurrent
// Observe calls; callers reset between measurement windows.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
}

// Snapshot captures the histogram's current contents as a plain value.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]int64)
			}
			s.Buckets[i] = n
		}
	}
	return s
}

// HistSnapshot is an immutable copy of a histogram. Only non-empty
// buckets are materialised. Merge is associative and commutative
// (bucket-wise addition), and Sub produces the delta between two
// snapshots of the same histogram.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Min     int64 // exact; valid when Count > 0
	Max     int64
	Buckets map[int]int64 // bucket index -> count, empty buckets omitted
}

// Quantile estimates the q-quantile (q in [0,1]). Returns 0 on an empty
// snapshot. Quantile(0) and Quantile(1) return the exact min and max.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count <= 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := int64(q * float64(s.Count-1))
	var cum int64
	for i := 0; i < numBuckets; i++ {
		n := s.Buckets[i]
		if n == 0 {
			continue
		}
		cum += n
		if cum > rank {
			lo, hi := bucketBounds(i)
			mid := lo + (hi-lo)/2
			// The exact extremes bound every estimate.
			if mid < s.Min {
				mid = s.Min
			}
			if mid > s.Max {
				mid = s.Max
			}
			return mid
		}
	}
	return s.Max
}

// Mean returns the exact arithmetic mean, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count <= 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Merge combines two snapshots (e.g. the same instrument from several
// ranks). Bucket-wise addition: associative and commutative.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	if o.Count == 0 {
		return s.clone()
	}
	if s.Count == 0 {
		return o.clone()
	}
	out := HistSnapshot{
		Count:   s.Count + o.Count,
		Sum:     s.Sum + o.Sum,
		Min:     s.Min,
		Max:     s.Max,
		Buckets: make(map[int]int64, len(s.Buckets)+len(o.Buckets)),
	}
	if o.Min < out.Min {
		out.Min = o.Min
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	for i, n := range s.Buckets {
		out.Buckets[i] = n
	}
	for i, n := range o.Buckets {
		out.Buckets[i] += n
	}
	return out
}

// Sub returns the activity between prev and s, where prev is an earlier
// snapshot of the same histogram: bucket-wise subtraction. Min/Max of a
// window cannot be recovered from cumulative extremes, so the delta
// carries the cumulative Min/Max (still valid bounds for the window).
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	out := HistSnapshot{
		Count: s.Count - prev.Count,
		Sum:   s.Sum - prev.Sum,
		Min:   s.Min,
		Max:   s.Max,
	}
	if out.Count < 0 { // prev is from after a Reset; treat s as the window
		return s.clone()
	}
	for i, n := range s.Buckets {
		if d := n - prev.Buckets[i]; d > 0 {
			if out.Buckets == nil {
				out.Buckets = make(map[int]int64)
			}
			out.Buckets[i] = d
		}
	}
	return out
}

func (s HistSnapshot) clone() HistSnapshot {
	out := s
	if s.Buckets != nil {
		out.Buckets = make(map[int]int64, len(s.Buckets))
		for i, n := range s.Buckets {
			out.Buckets[i] = n
		}
	}
	return out
}

// Summary flattens the snapshot into the fixed set of derived values
// used by JSON emitters: count, sum, min, max, mean, p50, p99, p999.
func (s HistSnapshot) Summary() map[string]float64 {
	if s.Count <= 0 {
		return map[string]float64{"count": 0}
	}
	return map[string]float64{
		"count": float64(s.Count),
		"sum":   float64(s.Sum),
		"min":   float64(s.Min),
		"max":   float64(s.Max),
		"mean":  s.Mean(),
		"p50":   float64(s.Quantile(0.50)),
		"p99":   float64(s.Quantile(0.99)),
		"p999":  float64(s.Quantile(0.999)),
	}
}
