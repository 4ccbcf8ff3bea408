package main

import (
	"sort"
	"testing"
	"time"

	"lsmio/internal/bench"
)

// simulate runs sess the way `lsmiod -sim` does and builds its report.
func simulate(t *testing.T, sess bench.ServiceSession) (report, bench.ServiceResult) {
	t.Helper()
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	return newReport("sim", sess, res), res
}

// TestSimSmokeSession is `make svc-smoke`: four behaved tenants beside a
// flooding noisy neighbor, fair-share admission on.
func TestSimSmokeSession(t *testing.T) {
	sess := bench.ServiceSession{
		Shards: 4, Tenants: 4, Steps: 3, Blocks: 16, BlockBytes: 256 << 10,
		BufferSize: 1 << 20, Noisy: true, Fair: true,
	}
	rep, _ := simulate(t, sess)
	if rep.SoloP99Ms <= 0 || rep.P99Ms > 2*rep.SoloP99Ms {
		t.Errorf("behaved p99 %.3fms, solo %.3fms: want within 2x", rep.P99Ms, rep.SoloP99Ms)
	}
	if len(rep.Tenant) != sess.Tenants+1 {
		t.Fatalf("%d tenants reported, want %d behaved and the noisy one", len(rep.Tenant), sess.Tenants)
	}
	for _, tr := range rep.Tenant[:sess.Tenants] {
		if want := int64(sess.Steps * sess.Blocks); tr.Ops != want {
			t.Errorf("%s: %d ops, want %d", tr.Name, tr.Ops, want)
		}
	}
	if noisy := rep.Tenant[sess.Tenants]; noisy.Name != "noisy" || noisy.Rejects == 0 {
		t.Errorf("noisy tenant %+v: want quota rejections", noisy)
	}
	if len(rep.ShardHealth) != sess.Shards {
		t.Fatalf("%d shards reported, want %d", len(rep.ShardHealth), sess.Shards)
	}
	for _, sh := range rep.ShardHealth {
		if sh.State != "up" {
			t.Errorf("shard %d is %s, want up", sh.Shard, sh.State)
		}
	}
}

// TestSimReportsP99NotWorstStep: with more than 100 behaved steps the
// reported p99 is the ⌈0.99·n⌉-th smallest step, below the worst one.
func TestSimReportsP99NotWorstStep(t *testing.T) {
	sess := bench.ServiceSession{
		Shards: 4, Tenants: 2, Steps: 101, Blocks: 2, BlockBytes: 16 << 10,
		BufferSize: 1 << 20, Noisy: true, Fair: true,
	}
	rep, res := simulate(t, sess)
	var all []time.Duration
	for _, steps := range res.Steps {
		all = append(all, steps...)
	}
	if len(all) != sess.Tenants*sess.Steps {
		t.Fatalf("%d steps measured, want %d", len(all), sess.Tenants*sess.Steps)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := all[(99*len(all)+99)/100-1]
	if rep.P99Ms != float64(p99)/1e6 {
		t.Errorf("reported p99 %.6fms, want %.6fms", rep.P99Ms, float64(p99)/1e6)
	}
	worst := all[len(all)-1]
	if p99 >= worst {
		t.Fatalf("p99 %v equals the worst step %v: the session cannot tell them apart", p99, worst)
	}
	var worstMs float64
	for _, tr := range rep.Tenant {
		if tr.WorstStepMs > worstMs {
			worstMs = tr.WorstStepMs
		}
	}
	if worstMs != float64(worst)/1e6 {
		t.Errorf("worst tenant step %.6fms, want %.6fms", worstMs, float64(worst)/1e6)
	}
}
