package pfs

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"lsmio/internal/iosched"
	"lsmio/internal/obs"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
)

// Regression test for the PR 10 satellite fix: ClientFS.Scrub used to
// run unthrottled and could monopolize OST bandwidth during repair,
// degrading concurrent commit latency. With the shared scheduler
// attached, scrub I/O buys lowest-class tokens and commit p99 must stay
// within the gate.
func TestScrubThrottledDoesNotDegradeCommitP99(t *testing.T) {
	cfg := Config{
		ComputeNodes:       2,
		NumOSTs:            4,
		NumOSSs:            1,
		DefaultStripeCount: 2,
		DefaultStripeSize:  64 << 10,
		OSTSeqWriteBW:      10e6, // slow OSTs so contention is visible
	}
	const (
		commitBytes = 128 << 10 // one 64K unit per OST per commit
		commits     = 60
		scrubBytes  = 2 << 20
		scrubbers   = 3
	)

	// run returns the p99 commit latency with the given scrub/throttle mix.
	run := func(withScrub, throttled bool) time.Duration {
		k := sim.NewKernel()
		rtm := rt.Sim(k)
		c := NewCluster(k, cfg)
		c.EnableResilience(Resilience{Parity: true})
		var sched *iosched.Scheduler
		var reg *obs.Registry
		if throttled {
			// Budget ≈ the bandwidth one striped writer can reach (2
			// OSTs' worth); scrub's 5% share only matters while the
			// foreground class holds unexpired claims.
			reg = obs.NewRegistry()
			sched = iosched.New(iosched.Config{BytesPerSec: 2 * cfg.OSTSeqWriteBW, Clock: rtm, Obs: reg})
			c.SetIOScheduler(sched)
		}
		if withScrub {
			// Setup phase: the parity files the scrubbers will sweep are
			// laid down before the measured window so their (foreground)
			// creation writes do not pollute the commit latencies.
			k.Spawn("prep", func(p *sim.Proc) {
				rfs := c.ResilientClient(0)
				for s := 0; s < scrubbers; s++ {
					f, err := rfs.CreateStriped(fmt.Sprintf("ckpt%d/par.dat", s), 2, 64<<10)
					if err != nil {
						t.Errorf("scrub create: %v", err)
						return
					}
					f.Write(pattern(scrubBytes))
					f.Sync()
					f.Close()
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		}
		var lats []time.Duration
		done := false // single-threaded sim: plain flag is safe
		k.Spawn("commit", func(p *sim.Proc) {
			defer func() { done = true }()
			fs := c.Client(1)
			buf := bytes.Repeat([]byte{0xab}, commitBytes)
			for i := 0; i < commits; i++ {
				start := p.Now().Duration()
				// Stands in for the engine's WAL acquire: it keeps the
				// Foreground class active so the scheduler squeezes scrub
				// while commits are in flight. Nil-safe when unthrottled.
				sched.Acquire(iosched.Foreground, commitBytes)
				f, err := fs.CreateStriped(fmt.Sprintf("app/step%03d.dat", i), 2, 64<<10)
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				f.Write(buf)
				if err := f.Sync(); err != nil {
					t.Errorf("sync: %v", err)
					return
				}
				f.Close()
				lats = append(lats, p.Now().Duration()-start)
				// Varied think time so the commit cadence cannot phase-lock
				// with the scrubbers' read loops.
				p.Sleep(5*time.Millisecond + time.Duration(i%7)*time.Millisecond)
			}
		})
		if withScrub {
			for s := 0; s < scrubbers; s++ {
				dir := fmt.Sprintf("ckpt%d", s)
				k.Spawn("scrub-"+dir, func(p *sim.Proc) {
					rfs := c.ResilientClient(0)
					for !done {
						// Each pass re-reads every stripe unit: a continuous
						// verify load for as long as the commits run. All
						// scrubbers draw from the one Scrub class, so the
						// throttle caps their combined issue rate.
						if _, err := rfs.Scrub(dir); err != nil {
							t.Errorf("scrub: %v", err)
							return
						}
					}
				})
			}
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if reg != nil {
			snap := reg.Snapshot()
			t.Logf("sched: scrub grants=%d wait=%v fg grants=%d fg wait=%v",
				snap.Counters["iosched.scrub.grants"],
				time.Duration(snap.Counters["iosched.scrub.wait_nanos"]),
				snap.Counters["iosched.foreground.grants"],
				time.Duration(snap.Counters["iosched.foreground.wait_nanos"]))
		}
		if len(lats) != commits {
			t.Fatalf("commit proc recorded %d/%d latencies", len(lats), commits)
		}
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		return lats[len(lats)*99/100]
	}

	baseline := run(false, false)   // no scrub at all
	unthrottled := run(true, false) // the pre-fix behavior
	throttled := run(true, true)    // scrub through the Scrub class
	t.Logf("commit p99: baseline=%v unthrottled-scrub=%v throttled-scrub=%v",
		baseline, unthrottled, throttled)

	// The unthrottled run must actually reproduce the regression —
	// otherwise the assertions below would pass vacuously.
	if unthrottled < baseline*3/2 {
		t.Fatalf("scrub load did not degrade commits (p99 %v vs baseline %v); test lost its teeth", unthrottled, baseline)
	}
	if throttled >= unthrottled {
		t.Errorf("throttled scrub p99 %v not better than unthrottled %v", throttled, unthrottled)
	}
	// The gate: with scrub throttled, commit p99 stays within 2x of the
	// scrub-free baseline (foreground pacing is accounted, so a modest
	// overhead is expected; monopolization is not).
	if throttled > baseline*2 {
		t.Errorf("throttled scrub still degrades commit p99 beyond the gate: %v > 2x baseline %v", throttled, baseline)
	}
}
