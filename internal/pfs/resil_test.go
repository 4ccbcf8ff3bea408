package pfs

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lsmio/internal/faultfs"
	"lsmio/internal/obs/obstest"
	"lsmio/internal/resil"
)

// resilTestConfig is a small cluster with enough OSTs for parity + spares.
func resilTestConfig(numOSTs int) Config {
	return Config{
		ComputeNodes:       1,
		NumOSTs:            numOSTs,
		NumOSSs:            1,
		DefaultStripeCount: 2,
		DefaultStripeSize:  4096,
		RetryMax:           3,
		RetryBaseDelay:     time.Millisecond,
		RetryMaxDelay:      8 * time.Millisecond,
	}
}

// pattern fills n deterministic bytes.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i/251)
	}
	return b
}

func TestDeadOSTFailsPlainWrite(t *testing.T) {
	runOnCluster(t, resilTestConfig(2), func(c *Cluster, fs *ClientFS) {
		c.SetOSTHealth(0, OSTDead, 0)
		c.SetOSTHealth(1, OSTDead, 0)
		f, err := fs.CreateStriped("plain.dat", 2, 4096)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		f.Write(make([]byte, 8192))
		err = f.Sync()
		if err == nil {
			t.Error("sync succeeded with every OST dead")
			return
		}
		var dead *DeadOSTError
		if !errors.As(err, &dead) {
			t.Errorf("error %v is not a DeadOSTError", err)
		}
		if !dead.TargetDown() {
			t.Error("DeadOSTError must mark TargetDown")
		}
	})
}

func TestParityAbsorbsDeadMemberAndServesDegradedReads(t *testing.T) {
	data := pattern(64 << 10)
	c := runOnCluster(t, resilTestConfig(5), func(c *Cluster, fs *ClientFS) {
		c.EnableResilience(Resilience{Parity: true})
		rfs := c.ResilientClient(0)
		f, err := rfs.CreateStriped("ckpt.dat", 2, 4096)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if _, err := f.Write(data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := f.Sync(); err != nil {
			t.Errorf("sync: %v", err)
			return
		}
		// Kill one data member mid-run; further writes must still commit.
		_, _, osts, _ := c.DescribeLayout("ckpt.dat")
		c.SetOSTHealth(osts[0], OSTDead, 0)
		if _, err := f.Write(pattern(8192)); err != nil {
			t.Errorf("write with dead member: %v", err)
			return
		}
		if err := f.Sync(); err != nil {
			t.Errorf("sync with dead member: %v", err)
			return
		}
		if err := f.Close(); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		// Reads hit the lost member and must be served by reconstruction.
		g, err := rfs.Open("ckpt.dat")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		got := make([]byte, len(data))
		if _, err := g.ReadAt(got, 0); err != nil {
			t.Errorf("degraded read: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("degraded read returned wrong bytes")
		}
		g.Close()
	})
	if obstest.Counter(t, c.Obs(), "pfs.parity.lost_stripe_writes") == 0 {
		t.Error("expected lost stripe writes > 0")
	}
	if ops, n := obstest.Counter(t, c.Obs(), "pfs.degraded.reads"), obstest.Counter(t, c.Obs(), "pfs.degraded.read_bytes"); ops == 0 || n == 0 {
		t.Errorf("expected degraded reads, got %d ops / %d bytes", ops, n)
	}
	if obstest.Counter(t, c.Obs(), "pfs.parity.bytes_written") == 0 {
		t.Error("expected parity traffic")
	}
}

func TestNewLayoutSkipsDeadOST(t *testing.T) {
	c := runOnCluster(t, resilTestConfig(4), func(c *Cluster, fs *ClientFS) {
		c.SetOSTHealth(1, OSTDead, 0)
		f, err := fs.CreateStriped("a.dat", 3, 4096)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		f.Close()
		_, _, osts, _ := c.DescribeLayout("a.dat")
		for _, o := range osts {
			if o == 1 {
				t.Errorf("layout %v includes dead OST 1", osts)
			}
		}
		if len(osts) != 3 {
			t.Errorf("stripe width %d, want 3 (healthy OSTs available)", len(osts))
		}
	})
	if obstest.Counter(t, c.Obs(), "pfs.degraded.layouts") == 0 {
		t.Error("expected degraded layouts > 0")
	}
}

func TestBreakerTripsSkipsAndRecovers(t *testing.T) {
	runOnCluster(t, resilTestConfig(3), func(c *Cluster, fs *ClientFS) {
		c.EnableResilience(Resilience{}) // 3 errors open a breaker for 200ms
		faulty := true
		c.InjectFaults(func(write bool, ostIdx, attempt int) error {
			if faulty && write && ostIdx == 0 {
				return &faultfs.InjectedError{Op: faultfs.OpWrite, Transient: true}
			}
			return nil
		})
		f, err := fs.CreateStriped("a.dat", 1, 4096)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		f.Write(make([]byte, 4096))
		if err := f.Sync(); err == nil {
			t.Error("sync should fail after retry budget against OST 0")
		}
		f.Close()
		if c.Tracker().State(0) != resil.Open {
			t.Errorf("breaker state = %v, want open", c.Tracker().State(0))
		}
		// New layouts avoid the breakered OST.
		g, _ := fs.CreateStriped("b.dat", 2, 4096)
		g.Close()
		_, _, osts, _ := c.DescribeLayout("b.dat")
		for _, o := range osts {
			if o == 0 {
				t.Errorf("layout %v routed to breakered OST 0", osts)
			}
		}
		// Fault clears; after the 200ms open timeout the next layout probes OST 0 and
		// a successful write closes the breaker.
		faulty = false
		c.cur().Sleep(250 * time.Millisecond)
		h, err := fs.CreateStriped("c.dat", 3, 4096)
		if err != nil {
			t.Errorf("create c.dat: %v", err)
			return
		}
		if _, err := h.Write(make([]byte, 3*4096)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := h.Sync(); err != nil {
			t.Errorf("sync after recovery: %v", err)
			return
		}
		h.Close()
		_, _, osts, _ = c.DescribeLayout("c.dat")
		probed := false
		for _, o := range osts {
			if o == 0 {
				probed = true
			}
		}
		if !probed {
			t.Errorf("layout %v never probed recovering OST 0", osts)
		}
		if c.Tracker().State(0) != resil.Closed {
			t.Errorf("breaker state after successful probe = %v, want closed",
				c.Tracker().State(0))
		}
	})
}

func TestHedgedWriteRedirectsStraggler(t *testing.T) {
	cfg := resilTestConfig(4)
	cfg.DefaultStripeSize = 1 << 20
	cfg.MaxDirtyLag = 2 * time.Millisecond
	c := runOnCluster(t, cfg, func(c *Cluster, fs *ClientFS) {
		c.EnableResilience(Resilience{
			Hedge: true,
			// Keep the slow-trip out of the way: this test wants hedging,
			// not breaker action.
			Tracker: resil.Options{SlowStrikes: 1 << 20},
		})
		// Warm up the latency window on a healthy cluster.
		w, _ := fs.CreateStriped("warm.dat", 4, 1<<20)
		w.Write(make([]byte, 8<<20))
		w.Sync()
		w.Close()
		// One OST turns 10x slow; a file striped over it must hedge.
		c.SetOSTHealth(0, OSTDegraded, 10)
		f, err := fs.CreateStriped("slow.dat", 2, 1<<20)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		_, _, osts, _ := c.DescribeLayout("slow.dat")
		if osts[0] != 0 && osts[1] != 0 {
			t.Fatalf("layout %v does not include slow OST 0", osts)
		}
		if _, err := f.Write(make([]byte, 8<<20)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := f.Sync(); err != nil {
			t.Errorf("sync: %v", err)
		}
		f.Close()
	})
	if obstest.Counter(t, c.Obs(), "pfs.hedge.issued") == 0 {
		t.Fatal("expected hedged writes against the slow OST")
	}
	if obstest.Counter(t, c.Obs(), "pfs.hedge.wins") == 0 {
		t.Fatal("expected at least one hedge win")
	}
}

// TestHedgeWinDoesNotMaskPrimaryLatency is the regression test for the
// hedge-latency laundering bug: the primary OST's health observation used
// to be taken after hedging resolved, so a straggler whose writes were
// rescued by a fast spare was credited with the spare's latency and its
// EWMA converged toward healthy — the slow-trip could never see it. The
// primary must be observed with its own completion time regardless of who
// wins the hedge.
func TestHedgeWinDoesNotMaskPrimaryLatency(t *testing.T) {
	cfg := resilTestConfig(4)
	cfg.DefaultStripeSize = 1 << 20
	cfg.MaxDirtyLag = 2 * time.Millisecond
	c := runOnCluster(t, cfg, func(c *Cluster, fs *ClientFS) {
		c.EnableResilience(Resilience{
			Hedge: true,
			// Suppress breaker action so hedging keeps running against
			// the slow primary for the whole test.
			Tracker: resil.Options{SlowStrikes: 1 << 20},
		})
		w, _ := fs.CreateStriped("warm.dat", 4, 1<<20)
		w.Write(make([]byte, 8<<20))
		w.Sync()
		w.Close()
		c.SetOSTHealth(0, OSTDegraded, 10)
		f, err := fs.CreateStriped("slow.dat", 2, 1<<20)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		_, _, osts, _ := c.DescribeLayout("slow.dat")
		if osts[0] != 0 && osts[1] != 0 {
			t.Fatalf("layout %v does not include slow OST 0", osts)
		}
		if _, err := f.Write(make([]byte, 8<<20)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := f.Sync(); err != nil {
			t.Errorf("sync: %v", err)
		}
		f.Close()
	})
	if obstest.Counter(t, c.Obs(), "pfs.hedge.wins") == 0 {
		t.Fatal("expected hedge wins against the slow OST")
	}
	// The victim's EWMA must reflect its true 10x latency, not the fast
	// hedged completion. Compare against the healthiest OST that served
	// comparable traffic.
	slow := c.Tracker().EWMA(0)
	var healthy time.Duration
	for i := 1; i < 4; i++ {
		if e := c.Tracker().EWMA(i); e > healthy {
			healthy = e
		}
	}
	if healthy == 0 {
		t.Fatal("healthy OSTs recorded no latency observations")
	}
	if slow < 3*healthy {
		t.Fatalf("slow OST EWMA %v not distinguishably above healthy max %v: hedge wins are masking primary latency", slow, healthy)
	}
}

func TestScrubRepairsCorruption(t *testing.T) {
	data := pattern(64 << 10)
	c := runOnCluster(t, resilTestConfig(5), func(c *Cluster, fs *ClientFS) {
		c.EnableResilience(Resilience{Parity: true})
		rfs := c.ResilientClient(0)
		f, _ := rfs.CreateStriped("ckpt/obj.dat", 2, 4096)
		f.Write(data)
		f.Sync()
		f.Close()
		// Silent corruption: flip bytes in the backing store directly.
		raw, err := c.Store().Open("ckpt/obj.dat")
		if err != nil {
			t.Errorf("store open: %v", err)
			return
		}
		raw.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, 100)
		raw.WriteAt([]byte{0xff, 0xff}, 9000)
		raw.Close()
		rep, err := rfs.Scrub("ckpt")
		if err != nil {
			t.Errorf("scrub: %v", err)
			return
		}
		if rep.Repaired < 2 {
			t.Errorf("scrub repaired = %d, want >= 2 (two corrupted units)", rep.Repaired)
		}
		if rep.Unrecoverable != 0 {
			t.Errorf("scrub unrecoverable = %d, want 0", rep.Unrecoverable)
		}
		// The true bytes are back.
		raw, _ = c.Store().Open("ckpt/obj.dat")
		got := make([]byte, len(data))
		raw.ReadAt(got, 0)
		raw.Close()
		if !bytes.Equal(got, data) {
			t.Error("scrub did not restore the original bytes")
		}
	})
	if n := obstest.Counter(t, c.Obs(), "pfs.scrub.repaired"); n < 2 {
		t.Errorf("pfs.scrub.repaired = %d, want >= 2", n)
	}
	if obstest.Counter(t, c.Obs(), "pfs.scrub.verified") == 0 {
		t.Error("scrub verified no clean units")
	}
}

func TestScrubRebuildsDeadMemberOntoSpare(t *testing.T) {
	data := pattern(64 << 10)
	runOnCluster(t, resilTestConfig(6), func(c *Cluster, fs *ClientFS) {
		c.EnableResilience(Resilience{Parity: true})
		rfs := c.ResilientClient(0)
		f, _ := rfs.CreateStriped("ckpt/obj.dat", 2, 4096)
		f.Write(data)
		f.Sync()
		f.Close()
		_, _, osts, _ := c.DescribeLayout("ckpt/obj.dat")
		deadOST := osts[1]
		c.SetOSTHealth(deadOST, OSTDead, 0)
		rep, err := rfs.Scrub("ckpt")
		if err != nil {
			t.Errorf("scrub: %v", err)
			return
		}
		if rep.Repaired == 0 {
			t.Error("scrub rebuilt nothing for the dead member")
		}
		if rep.Unrecoverable != 0 {
			t.Errorf("scrub unrecoverable = %d, want 0", rep.Unrecoverable)
		}
		// The layout was remapped off the dead OST...
		_, _, osts, _ = c.DescribeLayout("ckpt/obj.dat")
		for _, o := range osts {
			if o == deadOST {
				t.Errorf("layout %v still references dead OST %d", osts, deadOST)
			}
		}
		// ...so reads are full-speed again (not degraded) and correct.
		before := obstest.Counter(t, c.Obs(), "pfs.degraded.reads")
		g, _ := rfs.Open("ckpt/obj.dat")
		got := make([]byte, len(data))
		if _, err := g.ReadAt(got, 0); err != nil {
			t.Errorf("read after rebuild: %v", err)
		}
		g.Close()
		if !bytes.Equal(got, data) {
			t.Error("read after rebuild returned wrong bytes")
		}
		if obstest.Counter(t, c.Obs(), "pfs.degraded.reads") != before {
			t.Error("read after rebuild still used parity reconstruction")
		}
	})
}

func TestScrubReportsUnrecoverable(t *testing.T) {
	runOnCluster(t, resilTestConfig(6), func(c *Cluster, fs *ClientFS) {
		c.EnableResilience(Resilience{Parity: true})
		rfs := c.ResilientClient(0)
		f, _ := rfs.CreateStriped("ckpt/obj.dat", 2, 4096)
		f.Write(pattern(32 << 10))
		f.Sync()
		f.Close()
		_, _, osts, _ := c.DescribeLayout("ckpt/obj.dat")
		// Two dead data members exceed K+1 tolerance.
		c.SetOSTHealth(osts[0], OSTDead, 0)
		c.SetOSTHealth(osts[1], OSTDead, 0)
		rep, err := rfs.Scrub("ckpt")
		if err != nil {
			t.Errorf("scrub: %v", err)
			return
		}
		if rep.Unrecoverable == 0 {
			t.Error("scrub should report unrecoverable units with two members dead")
		}
		if rep.Repaired != 0 {
			t.Errorf("scrub repaired = %d, want 0", rep.Repaired)
		}
	})
}
