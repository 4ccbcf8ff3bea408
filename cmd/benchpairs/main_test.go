package main

import (
	"context"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
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
		direction           string
		bound               float64
		bm, hm              float64
		wins, losses, pairs int
		want                string
	}{
		{"higher", 0.25, 100, 70, 0, 10, 10, "WORSE (bound 75)"},
		{"higher", 0.25, 100, 130, 10, 0, 10, "better"},
		{"higher", 0.25, 100, 103, 10, 0, 10, "same"}, // within the base's IQR
		{"lower", 0.25, 100, 130, 0, 10, 10, "WORSE (bound 125)"},
		{"lower", 0.25, 100, 70, 9, 1, 10, "better"},
		// Without a bound, worse mirrors better, with no sign test.
		{"lower", 0, 100, 110, 0, 10, 10, "WORSE"},
		{"lower", 0, 100, 110, 2, 8, 10, "same"},
		{"lower", 0, 100, 103, 0, 10, 10, "same"}, // within the base's IQR
		{"higher", 0, 100, 90, 1, 9, 10, "WORSE"},
		// The sign test's boundary: 4/4 has probability 1/16 under noise,
		// 5/5 1/32, 8/10 0.055 and 9/10 0.011.
		{"higher", 0.25, 100, 130, 4, 0, 4, "too few pairs"},
		{"higher", 0.25, 100, 130, 5, 0, 5, "better"},
		{"higher", 0.25, 100, 130, 8, 2, 10, "same"},
		{"higher", 0.25, 100, 130, 9, 1, 10, "better"},
		// Worse stays as strict with few pairs.
		{"higher", 0.25, 100, 70, 0, 4, 4, "WORSE (bound 75)"},
		{"higher", 0, 100, 90, 0, 4, 4, "WORSE"},
	}
	for _, c := range cases {
		if got := verdict(c.direction, c.bound, c.bm, c.hm, 5, c.wins, c.losses, c.pairs); got != c.want {
			t.Errorf("verdict(%s, bound %v, %v -> %v, %d/%d won, %d lost) = %q, want %q",
				c.direction, c.bound, c.bm, c.hm, c.wins, c.pairs, c.losses, got, c.want)
		}
	}
}

func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		wins, losses int
		want         float64
	}{{4, 0, 1.0 / 16}, {5, 0, 1.0 / 32}, {8, 2, 56.0 / 1024}, {9, 1, 11.0 / 1024}, {0, 0, 1}, {0, 3, 1}} {
		if got := signTest(c.wins, c.losses); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %v, want %v", c.wins, c.losses, got, c.want)
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

// copyChanges makes a worktree of HEAD match the working tree: a
// modified file, a staged one, a new untracked one and a deleted one;
// an ignored file stays out.
func TestCopyChangesBringsTheWorkingTree(t *testing.T) {
	dir := t.TempDir()
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@t"}, args...)...)
		cmd.Dir = dir
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v: %s", args, err, msg)
		}
	}
	write := func(name, data string) {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git("init", "-q")
	// The worktree is ignored, as .bench_scratch/ is in the repository.
	write(".gitignore", "ignored\n/tree/\n")
	write("kept", "kept")
	write("modified", "old")
	write("staged", "old")
	write("deleted", "old")
	git("add", ".")
	git("commit", "-q", "-m", "base")
	write("modified", "new")
	write("staged", "new")
	git("add", "staged")
	write("sub/untracked", "new")
	write("ignored", "new")
	if err := os.Remove(filepath.Join(dir, "deleted")); err != nil {
		t.Fatal(err)
	}
	git("worktree", "add", "-q", "--detach", "tree", "HEAD")

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if err := copyChanges("tree"); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"kept": "kept", "modified": "new", "staged": "new", "sub/untracked": "new", "deleted": "", "ignored": ""} {
		got, err := os.ReadFile(filepath.Join("tree", name))
		if want == "" {
			if !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s in the tree: %q, %v; want it absent", name, got, err)
			}
			continue
		}
		if string(got) != want || err != nil {
			t.Errorf("%s in the tree: %q, %v; want %q", name, got, err, want)
		}
	}
}

// A round that exits non-zero carries its cause into the report: the
// benchmark prints why a round was not correct on stdout, not stderr.
func TestFailedRoundKeepsItsCause(t *testing.T) {
	for _, c := range []struct{ script, want string }{
		{`echo 'FAILED: restore after crash: bad magic'; echo 'FAILED: step 3'; echo '{"correct":false}'; exit 1`,
			"FAILED: restore after crash: bad magic; FAILED: step 3"},
		{`echo 'starting'; echo 'no result'; exit 1`, ": no result"},
		{`echo 'FAILED: step 3'; echo 'benchmark: scratch is full' >&2; exit 1`,
			"FAILED: step 3; benchmark: scratch is full"},
	} {
		r := runRound(context.Background(), t.TempDir(), "sh", []string{"-c", c.script})
		if r.err == nil || !strings.HasSuffix(r.err.Error(), c.want) {
			t.Errorf("round error %v, want one ending in %q", r.err, c.want)
		}
	}
}
