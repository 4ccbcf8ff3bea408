package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics, NaN for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := math.Max(0, math.Min(1, p)) * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func maxOf(xs []float64) float64 { return percentile(xs, 1) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }
func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// durs converts a duration sample with conv (millis, micros).
func durs(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}

// ratio is a/b, 0 when b is 0 (per-layer metrics report 0 for "no
// work of this kind happened").
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
