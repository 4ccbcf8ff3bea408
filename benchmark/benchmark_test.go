package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"lsmio/internal/core"
	"lsmio/internal/snappy"
	"lsmio/internal/vfs"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, not a number that looks measured")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// TestSelfTimes builds a span tree by hand:
//
//	root      [0,100)
//	  a       [10,40)      child of root
//	    a1    [15,25)      child of a
//	  b       [30,60)      child of root, overlaps a by 10 (a parallel worker)
//	  c       [90,120)     child of root, runs past its end
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},
		{start: 10, end: 40, parent: 0},
		{start: 15, end: 25, parent: 1},
		{start: 30, end: 60, parent: 0},
		{start: 90, end: 120, parent: 0},
	}
	// root: 100 - union([10,40) ∪ [30,60) ∪ [90,100)) = 100 - 60.
	want := []int64{40, 20, 10, 30, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestLink(t *testing.T) {
	spans := []span{
		0: {kind: kCkptWrite, start: 0, end: 100, step: 3},
		1: {kind: kCorePut, start: 10, end: 90},
		2: {kind: kVfsWrite, class: fileWAL, start: 20, end: 30},   // WAL append inside the put
		3: {kind: kVfsWrite, class: fileTable, start: 40, end: 50}, // flush running meanwhile
		4: {kind: kCkptRestore, start: 200, end: 400, step: 1000},
		5: {kind: kCoreGet, start: 210, end: 300}, // two parallel restore workers
		6: {kind: kCoreGet, start: 220, end: 310},
		7: {kind: kVfsRead, class: fileTable, start: 230, end: 240},
		8: {kind: kVfsRead, class: fileTable, start: 500, end: 510}, // compaction, nobody waiting
		9: {kind: kCoreGet, start: 600, end: 610},                   // the svc prober: no client
	}
	for i := range spans {
		spans[i].parent = -1
	}
	link(spans)
	for i, want := range []struct {
		parent, step int32
		bg           bool
	}{
		{-1, 3, false}, {0, 3, false}, {1, 3, false}, {-1, 3, true},
		{-1, 1000, false}, {4, 1000, false}, {4, 1000, false}, {6, 1000, false},
		{-1, 1000, true}, {-1, 1000, true},
	} {
		s := spans[i]
		if s.parent != want.parent || s.step != want.step || s.bg != want.bg {
			t.Errorf("span %d (%s): parent %d step %d bg %v, want %d %d %v",
				i, kindNames[s.kind], s.parent, s.step, s.bg, want.parent, want.step, want.bg)
		}
	}
}

func TestSizeMixIsDeterministicAndExact(t *testing.T) {
	for _, c := range []struct {
		mix   []sizeClass
		total int64
	}{
		{llmMix, 128 << 20}, {llmMix, durabilityBytes}, {smallMix, 32 << 20}, {svcBlockMix, 16 << 20},
	} {
		names, sizes := genSizes(42, c.mix, c.total)
		names2, sizes2 := genSizes(42, c.mix, c.total)
		_, other := genSizes(43, c.mix, c.total)
		var sum int64
		seen := map[string]bool{}
		for i, s := range sizes {
			if s <= 0 {
				t.Fatalf("object %s has size %d", names[i], s)
			}
			if names[i] != names2[i] || s != sizes2[i] {
				t.Fatalf("seed 42 generated two different mixes at object %d", i)
			}
			if seen[names[i]] {
				t.Fatalf("object name %s generated twice", names[i])
			}
			seen[names[i]] = true
			sum += int64(s)
		}
		if sum != c.total {
			t.Errorf("mix of %d bytes sums to %d", c.total, sum)
		}
		same := len(other) == len(sizes)
		for i := 0; same && i < len(sizes); i++ {
			same = other[i] == sizes[i]
		}
		if same && c.mix[0].min != c.mix[0].max {
			t.Error("seeds 42 and 43 generated the same sizes")
		}
	}
	// The LLM mix: most bytes in few large tensors, most objects small.
	_, sizes := genSizes(1, llmMix, 128<<20)
	var bigBytes int64
	small := 0
	for _, s := range sizes {
		if s >= 4<<20 {
			bigBytes += int64(s)
		}
		if s <= 64<<10 {
			small++
		}
	}
	if share := float64(bigBytes) / (128 << 20); share < 0.55 || share > 0.65 {
		t.Errorf("tensors hold %.0f%% of the bytes, want about 60%%", 100*share)
	}
	if len(sizes) < 200 || len(sizes) > 300 || small < len(sizes)*2/3 {
		t.Errorf("%d objects, %d of them small; want about 250, mostly small", len(sizes), small)
	}
}

func TestPayloadVerify(t *testing.T) {
	p := genPayload(7, smallMix, 1<<20, true)
	q := genPayload(7, smallMix, 1<<20, true)
	state := map[string][]byte{}
	for i, o := range p.objects {
		if !bytes.Equal(o.data, q.objects[i].data) || o.name != q.objects[i].name {
			t.Fatal("the same seed generated different payload bytes")
		}
		state[o.name] = append([]byte(nil), o.data...)
	}
	if err := p.verify(state); err != nil {
		t.Fatal(err)
	}
	victim := p.objects[0].name
	state[victim][0] ^= 1
	if p.verify(state) == nil {
		t.Error("a flipped bit passed verification")
	}
	state[victim][0] ^= 1
	state[victim] = state[victim][:len(state[victim])-1]
	if p.verify(state) == nil {
		t.Error("a truncated object passed verification")
	}
	delete(state, victim)
	if p.verify(state) == nil {
		t.Error("a missing object passed verification")
	}
	// The compressible payload is what it says: about 2:1 under snappy.
	raw := p.objects[0].data
	if r := float64(len(raw)) / float64(len(snappy.Encode(nil, raw))); r < 1.6 || r > 2.4 {
		t.Errorf("compressible payload compresses %.2f:1, want about 2:1", r)
	}
}

// TestWrappersCountAKnownSequence drives the filesystem wrapper and the
// Store decorator with a known sequence on MemFS and checks the counts
// and bytes that come out of the spans.
func TestWrappersCountAKnownSequence(t *testing.T) {
	tr := newTracer()
	fs := timedFS{FS: vfs.NewMemFS(), t: tr}
	f, err := fs.Create("d/000001.sst")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{100, 200, 300} {
		if _, err := f.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 250)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("d/000001.sst", "d/000002.sst"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("d/000002.sst"); err != nil {
		t.Fatal(err)
	}

	st, err := core.OpenStore("store", core.StoreOptions{FS: vfs.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	ts := timedStore{Store: st, t: tr}
	id := tr.beginRoot(kCkptWrite, 1)
	if err := ts.Put("k", make([]byte, 1000), false); err != nil {
		t.Fatal(err)
	}
	tr.finish(id, 1000)
	if _, err := ts.Get("k"); err != nil {
		t.Fatal(err)
	}
	if err := ts.WriteBarrier(true); err != nil {
		t.Fatal(err)
	}
	if err := ts.Del("k"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	spans := tr.recorded()
	tot := totalsByKind(spans)
	for _, c := range []struct {
		kind         spanKind
		calls, bytes int64
	}{
		{kVfsCreate, 1, 0}, {kVfsWrite, 3, 600}, {kVfsSync, 1, 0}, {kVfsRead, 1, 250},
		{kVfsRename, 1, 0}, {kVfsRemove, 1, 0},
		{kCkptWrite, 1, 1000}, {kCorePut, 1, 1000}, {kCoreGet, 1, 1000}, {kCoreBarrier, 1, 0}, {kCoreDel, 1, 0},
	} {
		if got := tot[c.kind]; got.calls != c.calls || got.bytes != c.bytes {
			t.Errorf("%s: %d calls, %d bytes; want %d, %d", kindNames[c.kind], got.calls, got.bytes, c.calls, c.bytes)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.end < s.start {
			t.Errorf("span %d (%s) ends before it starts", i, kindNames[s.kind])
		}
		// The put was made inside the client span; nothing else was.
		if wantFg := s.kind == kCkptWrite || s.kind == kCorePut; s.bg == wantFg {
			t.Errorf("span %d (%s): bg = %v", i, kindNames[s.kind], s.bg)
		}
	}

	out := map[string]float64{}
	spanLayers(out, spans, 1000, 1000)
	if out["vfs.write_calls"] != 3 || out["vfs.write_bytes"] != 600 || !near(out["vfs.write_mean_KiB"], 200.0/1024) {
		t.Errorf("vfs write metrics: %v calls, %v bytes, mean %v KiB",
			out["vfs.write_calls"], out["vfs.write_bytes"], out["vfs.write_mean_KiB"])
	}
	if !near(out["vfs.write_amp"], 0.6) {
		t.Errorf("vfs.write_amp = %v, want 0.6", out["vfs.write_amp"])
	}

	// A paused tracer records nothing, and a full one drops, not grows.
	tr.reset()
	tr.paused.Store(true)
	if id := tr.begin(kCorePut); id != -1 {
		t.Error("a paused tracer handed out a span")
	}
	tr.paused.Store(false)
	tr.n.Store(maxSpans)
	if id := tr.begin(kCorePut); id != -1 || tr.dropped.Load() != 1 {
		t.Error("a full tracer must drop the span and count it")
	}
}

func TestEndToEndAssembly(t *testing.T) {
	ms := func(xs ...float64) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x * 1e6)
		}
		return out
	}
	epochs := []*epochResult{
		{setup: time.Second, commitLat: ms(100, 100), commitBytes: 200e6, restoreLat: ms(50), restoreEach: 100e6,
			cpuSeconds: 1, allocBytes: 600e6, allocOver: 200e6, storedBytes: 400, liveBytes: 100},
		{setup: 3 * time.Second, commitLat: ms(200, 200), commitBytes: 200e6, restoreLat: ms(150), restoreEach: 100e6,
			cpuSeconds: 3, allocBytes: 1000e6, allocOver: 200e6, storedBytes: 600, liveBytes: 100},
	}
	samples := map[string]int{}
	got := endToEnd(epochs, samples)
	for name, want := range map[string]float64{
		"commit_MBps":           (1000 + 500) / 2.0, // per epoch 200 MB / 0.2 s and / 0.4 s
		"commit_p50_ms":         150,
		"restore_p50_ms":        100,
		"restore_MBps":          1000, // 100 MB / 0.1 s
		"alloc_B_per_payload_B": 4,
		"stored_B_per_live_B":   5,
		"sim_wall_s":            (0.150 + 0.350) / 2,
		"setup_s":               2,
	} {
		if !near(got[name], want) {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if samples["commit_p50_ms"] != 4 || samples["restore_p50_ms"] != 2 || samples["commit_MBps"] != 2 {
		t.Errorf("sample counts %v", samples)
	}
}
