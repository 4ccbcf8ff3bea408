package main

import (
	"reflect"
	"strings"
	"testing"
)

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
		direction    string
		bound        float64
		bm, hm       float64
		wins, losses int
		want         string
	}{
		{"higher", 0.25, 100, 70, 0, 10, "WORSE (bound 75)"},
		{"higher", 0.25, 100, 130, 10, 0, "better"},
		{"higher", 0.25, 100, 130, 8, 2, "same"},
		{"higher", 0.25, 100, 103, 10, 0, "same"}, // within the base's IQR
		{"lower", 0.25, 100, 130, 0, 10, "WORSE (bound 125)"},
		{"lower", 0.25, 100, 70, 9, 1, "better"},
		// Without a bound, worse mirrors better.
		{"lower", 0, 100, 110, 0, 10, "WORSE"},
		{"lower", 0, 100, 110, 2, 8, "same"},
		{"lower", 0, 100, 103, 0, 10, "same"}, // within the base's IQR
		{"higher", 0, 100, 90, 1, 9, "WORSE"},
	}
	for _, c := range cases {
		if got := verdict(c.direction, c.bound, c.bm, c.hm, 5, c.wins, c.losses, 10); got != c.want {
			t.Errorf("verdict(%s, bound %v, %v -> %v, %d/10 won, %d lost) = %q, want %q",
				c.direction, c.bound, c.bm, c.hm, c.wins, c.losses, got, c.want)
		}
	}
}

func TestParseBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: lsmio/ckpt
cpu: AMD EPYC
BenchmarkCkptCommit-2   	      38	  29812345 ns/op	1125.50 MB/s	42600000 B/op	     123 allocs/op
BenchmarkScan/keys=64-16         	    1000	      1500 ns/op
BenchmarkLogs
    bench_test.go:12: some log line
    bench_test.go:13: 5 ns/op in a log line
   10	  200.5 ns/op	  7.25 hits/op
BenchmarkFailed-2
--- FAIL: BenchmarkFailed-2
BenchmarkNoProcs 	 5	 100 ns/op
PASS
ok  	lsmio/ckpt	3.2s
`
	want := []benchResult{
		{"BenchmarkCkptCommit", []benchValue{{29812345, "ns/op"}, {1125.5, "MB/s"}, {42600000, "B/op"}, {123, "allocs/op"}}},
		{"BenchmarkScan/keys=64", []benchValue{{1500, "ns/op"}}},
		{"BenchmarkLogs", []benchValue{{200.5, "ns/op"}, {7.25, "hits/op"}}},
		{"BenchmarkNoProcs", []benchValue{{100, "ns/op"}}},
	}
	if got := parseBench(strings.NewReader(out)); !reflect.DeepEqual(got, want) {
		t.Errorf("parseBench =\n%v\nwant\n%v", got, want)
	}
}

func TestUnitBetter(t *testing.T) {
	for name, want := range map[string]string{
		"BenchmarkX ns/op": "lower", "BenchmarkX MB/s": "higher",
		"BenchmarkX B/op": "lower", "BenchmarkX allocs/op": "lower",
	} {
		if got := unitBetter(name); got != want {
			t.Errorf("unitBetter(%q) = %s, want %s", name, got, want)
		}
	}
}
