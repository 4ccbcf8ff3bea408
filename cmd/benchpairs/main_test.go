package main

import "testing"

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	cases := []struct {
		direction string
		bm, hm    float64
		wins      int
		want      string
	}{
		{"higher", 100, 70, 0, "WORSE (bound 75)"},
		{"higher", 100, 130, 10, "better"},
		{"higher", 100, 130, 8, "same"},
		{"higher", 100, 103, 10, "same"}, // within the base's IQR
		{"lower", 100, 130, 0, "WORSE (bound 125)"},
		{"lower", 100, 70, 9, "better"},
	}
	for _, c := range cases {
		if got := verdict(c.direction, 0.25, c.bm, c.hm, 5, c.wins, 10); got != c.want {
			t.Errorf("verdict(%s, %v -> %v, %d/10) = %q, want %q", c.direction, c.bm, c.hm, c.wins, got, c.want)
		}
	}
}
