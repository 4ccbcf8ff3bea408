package main

// Per-layer numbers of one traced epoch, computed from its spans and
// from the engine's own counters, and the time budget of one commit.

import (
	"fmt"
	"sort"
	"strings"

	"lsmio/internal/obs"
)

// kindTotals aggregates the spans of one kind.
type kindTotals struct {
	calls, bytes int64
	busy, self   int64 // nanoseconds
	fgBytes      int64 // bytes of spans that have a foreground parent
	durs         []float64
}

func totalsByKind(spans []span) [numKinds]kindTotals {
	self := selfTimes(spans)
	var tot [numKinds]kindTotals
	for i := range spans {
		s := &spans[i]
		t := &tot[s.kind]
		t.calls++
		t.bytes += s.bytes
		t.busy += s.dur()
		t.self += self[i]
		if !s.bg {
			t.fgBytes += s.bytes
		}
		if !s.kind.isVfs() { // nothing reports a percentile of the (many) filesystem calls
			t.durs = append(t.durs, float64(s.dur()))
		}
	}
	return tot
}

func nsToS(ns int64) float64 { return float64(ns) / 1e9 }

// spanLayers fills the span-derived per-layer metrics of one epoch.
// committed and restored are the payload bytes the epoch moved.
func spanLayers(out map[string]float64, spans []span, committed, restored int64) {
	tot := totalsByKind(spans)
	us := func(k spanKind, p float64) float64 {
		if len(tot[k].durs) == 0 {
			return 0
		}
		return percentile(tot[k].durs, p) / 1e3
	}

	out["ckpt.write_busy_s"] = nsToS(tot[kCkptWrite].busy)
	out["ckpt.commit_busy_s"] = nsToS(tot[kCkptCommit].busy)
	out["ckpt.restore_busy_s"] = nsToS(tot[kCkptRestore].busy)
	out["ckpt.self_s"] = nsToS(tot[kCkptWrite].self + tot[kCkptCommit].self)
	out["ckpt.restore_self_s"] = nsToS(tot[kCkptRestore].self)

	out["core.put_calls"] = float64(tot[kCorePut].calls)
	out["core.put_busy_s"] = nsToS(tot[kCorePut].busy)
	out["core.put_p50_us"] = us(kCorePut, 0.50)
	out["core.put_p99_us"] = us(kCorePut, 0.99)
	out["core.barrier_calls"] = float64(tot[kCoreBarrier].calls)
	out["core.barrier_busy_s"] = nsToS(tot[kCoreBarrier].busy)
	out["core.get_calls"] = float64(tot[kCoreGet].calls)
	out["core.get_busy_s"] = nsToS(tot[kCoreGet].busy)
	out["core.get_p50_us"] = us(kCoreGet, 0.50)
	out["core.scan_calls"] = float64(tot[kCoreScan].calls)
	out["core.scan_busy_s"] = nsToS(tot[kCoreScan].busy)
	out["core.del_calls"] = float64(tot[kCoreDel].calls)

	// Store spans minus the filesystem calls made inside them. The
	// barrier is left out: its self time is a wait for background
	// flushes, reported as core.barrier_busy_s.
	out["lsm.self_s"] = nsToS(tot[kCorePut].self + tot[kCoreGet].self + tot[kCoreScan].self + tot[kCoreDel].self)

	out["vfs.write_calls"] = float64(tot[kVfsWrite].calls)
	out["vfs.write_bytes"] = float64(tot[kVfsWrite].bytes)
	out["vfs.write_busy_s"] = nsToS(tot[kVfsWrite].busy)
	out["vfs.write_mean_KiB"] = ratio(float64(tot[kVfsWrite].bytes)/1024, float64(tot[kVfsWrite].calls))
	out["vfs.sync_calls"] = float64(tot[kVfsSync].calls)
	out["vfs.sync_busy_s"] = nsToS(tot[kVfsSync].busy)
	out["vfs.read_calls"] = float64(tot[kVfsRead].calls)
	out["vfs.read_bytes"] = float64(tot[kVfsRead].bytes)
	out["vfs.read_busy_s"] = nsToS(tot[kVfsRead].busy)
	out["vfs.create_calls"] = float64(tot[kVfsCreate].calls)
	out["vfs.remove_calls"] = float64(tot[kVfsRemove].calls)
	out["vfs.rename_calls"] = float64(tot[kVfsRename].calls)
	out["vfs.write_amp"] = ratio(float64(tot[kVfsWrite].bytes), float64(committed))
	// Foreground reads only: compaction reads its inputs too, but not
	// on behalf of a restore.
	out["vfs.read_amp"] = ratio(float64(tot[kVfsRead].fgBytes), float64(restored))

	out["svc.put_busy_s"] = nsToS(tot[kSvcPut].busy)
	out["svc.put_p50_us"] = us(kSvcPut, 0.50)
	out["svc.put_p99_us"] = us(kSvcPut, 0.99)
	out["svc.barrier_busy_s"] = nsToS(tot[kSvcBarrier].busy)
	out["svc.scan_busy_s"] = nsToS(tot[kSvcScan].busy)
	out["svc.self_s"] = nsToS(tot[kSvcPut].self + tot[kSvcBarrier].self + tot[kSvcScan].self)
	out["svc.read_passes"] = float64(tot[kSvcScan].calls)
}

// engineLayers fills the lsm.* counters from the obs registry the
// epoch's engines recorded into (one registry for all of its stores).
func engineLayers(out map[string]float64, snap obs.Snapshot, committed int64, tables int) {
	c := snap.Counters
	written := c["lsm.flush.bytes"] + c["lsm.compaction.bytes_written"] + c["lsm.wal.bytes"]
	hits, misses := c["lsm.cache.hits"], c["lsm.cache.misses"]
	out["lsm.flush_count"] = float64(c["lsm.flush.count"])
	out["lsm.flush_bytes"] = float64(c["lsm.flush.bytes"])
	out["lsm.compaction_count"] = float64(c["lsm.compaction.count"])
	out["lsm.compaction_bytes"] = float64(c["lsm.compaction.bytes_written"])
	out["lsm.wal_bytes"] = float64(c["lsm.wal.bytes"])
	out["lsm.wal_group_size_mean"] = snap.Hists["lsm.wal.group_size"].Mean()
	out["lsm.write_amp"] = ratio(float64(written), float64(committed))
	out["lsm.stall_s"] = float64(c["lsm.stall.micros"]) / 1e6
	out["lsm.stall_episodes"] = float64(c["lsm.stall.episodes"])
	out["lsm.slowdown_s"] = float64(c["lsm.slowdown.micros"]) / 1e6
	out["lsm.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	out["lsm.tables_at_end"] = float64(tables)
}

// latencyLayers fills the tail metrics the ckpt layer reports from the
// benchmark's own per-step timings.
func latencyLayers(out map[string]float64, e *epochResult, vars int) {
	c, r := durs(e.commitLat, millis), durs(e.restoreLat, millis)
	if len(c) > 0 {
		out["ckpt.commit_p90_ms"] = percentile(c, 0.90)
		out["ckpt.commit_max_ms"] = maxOf(c)
	}
	if len(r) > 0 {
		out["ckpt.restore_p90_ms"] = percentile(r, 0.90)
	}
	out["ckpt.vars_per_step"] = float64(vars)
}

// timeBudget renders where the time of the traced epoch's median commit
// went: foreground self time per layer plus the barrier wait. Only the
// ckpt workloads have a budget (one client, one commit at a time).
func timeBudget(workload string, e *epochResult) string {
	if !strings.HasPrefix(workload, "ckpt-") || len(e.commitLat) == 0 {
		return ""
	}
	// The median step: steps are numbered from 1 in commit order.
	order := make([]int, len(e.commitLat))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return e.commitLat[order[a]] < e.commitLat[order[b]] })
	step := order[(len(order)-1)/2] + 1
	latency := e.commitLat[step-1]

	self := selfTimes(e.spans)
	var ckptSelf, lsmSelf, vfsFg, barrier, bgVfs int64
	for i := range e.spans {
		s := &e.spans[i]
		if int(s.step) != step {
			continue
		}
		switch {
		case s.bg:
			if s.kind.isVfs() {
				bgVfs += s.dur()
			}
		case s.kind == kCkptWrite || s.kind == kCkptCommit:
			ckptSelf += self[i]
		case s.kind == kCoreBarrier:
			barrier += self[i]
		case s.kind.isCore():
			lsmSelf += self[i]
		case s.kind.isVfs():
			vfsFg += s.dur()
		}
	}
	total := ckptSelf + lsmSelf + vfsFg + barrier
	var b strings.Builder
	row := func(name string, ns int64) {
		fmt.Fprintf(&b, "  %-44s %10.3f ms %6.1f%%\n", name, float64(ns)/1e6, 100*ratio(float64(ns), float64(latency)))
	}
	fmt.Fprintf(&b, "time budget, %s, median commit (step %d of %d, %.3f ms):\n",
		workload, step, len(e.commitLat), millis(latency))
	row("ckpt + core.Manager (self)", ckptSelf)
	row("core.Store + lsm (self, foreground)", lsmSelf)
	row("vfs (foreground calls)", vfsFg)
	row("barrier wait (flush drain)", barrier)
	row("sum of the rows above", total)
	row("not inside any span (loop, recorder)", int64(latency)-total)
	fmt.Fprintf(&b, "  background vfs time overlapping this commit: %.3f ms\n", float64(bgVfs)/1e6)
	dev := ratio(float64(total), float64(latency)) - 1
	verdict := "within"
	if dev > 0.10 || dev < -0.10 {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(&b, "  layers sum to %.1f%% of the commit latency: %s the 10%% budget tolerance\n",
		100*(1+dev), verdict)
	return b.String()
}
