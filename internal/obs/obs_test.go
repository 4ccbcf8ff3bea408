package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("lsm.puts")
	c2 := r.Counter("lsm.puts")
	if c1 != c2 {
		t.Fatal("Counter not get-or-create")
	}
	if r.Gauge("lsm.pending") != r.Gauge("lsm.pending") {
		t.Fatal("Gauge not get-or-create")
	}
	if r.Histogram("lsm.put_latency") != r.Histogram("lsm.put_latency") {
		t.Fatal("Histogram not get-or-create")
	}
	c1.Add(3)
	c1.Inc()
	if got := c2.Load(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	names := r.Names()
	want := []string{"lsm.pending", "lsm.put_latency", "lsm.puts"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared.counter").Inc()
				r.Gauge("shared.gauge").SetMax(int64(i))
				r.Histogram("shared.hist").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["shared.counter"] != 8000 {
		t.Fatalf("counter = %d, want 8000", s.Counters["shared.counter"])
	}
	if s.Gauges["shared.gauge"] != 999 {
		t.Fatalf("gauge max = %d, want 999", s.Gauges["shared.gauge"])
	}
	if s.Hists["shared.hist"].Count != 8000 {
		t.Fatalf("hist count = %d, want 8000", s.Hists["shared.hist"].Count)
	}
}

func TestResetAndResetPrefix(t *testing.T) {
	r := NewRegistry()
	r.Counter("lsm.puts").Add(10)
	r.Counter("pfs.write_ops").Add(20)
	r.Gauge("lsm.pending").Set(5)
	r.Histogram("pfs.lat").Observe(100)
	r.Trace().Emit("test", "x")

	r.ResetPrefix("lsm.")
	s := r.Snapshot()
	if s.Counters["lsm.puts"] != 0 || s.Gauges["lsm.pending"] != 0 {
		t.Fatalf("lsm.* not reset: %+v", s.Counters)
	}
	if s.Counters["pfs.write_ops"] != 20 || s.Hists["pfs.lat"].Count != 1 {
		t.Fatalf("pfs.* should survive a lsm.-prefix reset")
	}
	if len(r.Trace().Events()) != 1 {
		t.Fatal("ResetPrefix must not clear the trace ring")
	}

	r.Reset()
	s = r.Snapshot()
	if s.Counters["pfs.write_ops"] != 0 || s.Hists["pfs.lat"].Count != 0 {
		t.Fatalf("full reset left state: %+v", s.Counters)
	}
	if len(r.Trace().Events()) != 0 {
		t.Fatal("full reset must clear the trace ring")
	}
	// Handles created before the reset keep recording.
	r.Counter("lsm.puts").Inc()
	if r.Snapshot().Counters["lsm.puts"] != 1 {
		t.Fatal("handle dead after reset")
	}
}

func TestSnapshotDeltaAndTree(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.puts").Add(100)
	r.Gauge("burst.pending_bytes").Set(42)
	r.Histogram("pfs.ost.write_latency").Observe(int64(3 * time.Millisecond))
	before := r.Snapshot()
	r.Counter("core.puts").Add(7)
	r.Gauge("burst.pending_bytes").Set(10)
	after := r.Snapshot()

	d := after.Delta(before)
	if d.Counters["core.puts"] != 7 {
		t.Fatalf("delta counter = %d, want 7", d.Counters["core.puts"])
	}
	if d.Gauges["burst.pending_bytes"] != 10 {
		t.Fatalf("delta gauge should carry the later level, got %d", d.Gauges["burst.pending_bytes"])
	}

	tree := after.Tree()
	b, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	js := string(b)
	for _, frag := range []string{`"core"`, `"puts":107`, `"pfs"`, `"ost"`, `"write_latency"`, `"p99"`} {
		if !strings.Contains(js, frag) {
			t.Fatalf("tree JSON missing %s: %s", frag, js)
		}
	}

	var buf bytes.Buffer
	if err := after.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	txt := buf.String()
	if !strings.Contains(txt, "core.puts") || !strings.Contains(txt, "p999=") {
		t.Fatalf("table output incomplete:\n%s", txt)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewRegistry()
	b := NewRegistry()
	a.Counter("core.puts").Add(5)
	b.Counter("core.puts").Add(9)
	a.Histogram("core.put_latency").Observe(10)
	b.Histogram("core.put_latency").Observe(30)
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Counters["core.puts"] != 14 {
		t.Fatalf("merged counter = %d, want 14", m.Counters["core.puts"])
	}
	h := m.Hists["core.put_latency"]
	if h.Count != 2 || h.Min != 10 || h.Max != 30 {
		t.Fatalf("merged hist = %+v", h)
	}
}

func TestTraceRing(t *testing.T) {
	var clock time.Duration
	tr := NewTrace(4, func() time.Duration { return clock })
	for i := 0; i < 6; i++ {
		clock = time.Duration(i) * time.Second
		tr.Emitf("k", "event %d", i)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4 (bounded)", len(evs))
	}
	if evs[0].Detail != "event 2" || evs[3].Detail != "event 5" {
		t.Fatalf("ring order wrong: %+v", evs)
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq not contiguous: %+v", evs)
		}
	}

	clock = 10 * time.Second
	tr.EmitSpan("span", "work", 8*time.Second)
	evs = tr.Events()
	last := evs[len(evs)-1]
	if last.At != 8*time.Second || last.Dur != 2*time.Second {
		t.Fatalf("span = %+v", last)
	}

	var buf bytes.Buffer
	if err := tr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dropped") || !strings.Contains(buf.String(), "span") {
		t.Fatalf("dump:\n%s", buf.String())
	}

	tr.Reset()
	if len(tr.Events()) != 0 || tr.Dropped() != 0 {
		t.Fatal("reset failed")
	}
}

func TestScope(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("ckpt")
	s.Counter("commits").Inc()
	s.Gauge("keep").Set(3)
	s.Histogram("commit_latency").Observe(1000)
	snap := r.Snapshot()
	if snap.Counters["ckpt.commits"] != 1 || snap.Gauges["ckpt.keep"] != 3 {
		t.Fatalf("scope names wrong: %v", snap.Names())
	}
	if s.Trace() != r.Trace() {
		t.Fatal("scope plumbing wrong")
	}
}

func TestRegistryClock(t *testing.T) {
	r := NewRegistryOn(func() time.Duration { return 5 * time.Minute })
	if r.Now() != 5*time.Minute {
		t.Fatalf("Now = %v", r.Now())
	}
	r.Trace().Emit("k", "")
	if evs := r.Trace().Events(); evs[0].At != 5*time.Minute {
		t.Fatalf("trace uses registry clock: %+v", evs[0])
	}
	if s := r.Snapshot(); s.At != 5*time.Minute {
		t.Fatalf("snapshot At = %v", s.At)
	}
}
