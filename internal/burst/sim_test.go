package burst

import (
	"testing"
	"time"

	"lsmio/ckpt"
	"lsmio/internal/core"
	"lsmio/internal/faultfs"
	"lsmio/internal/obs"
	"lsmio/internal/obs/obstest"
	"lsmio/internal/pfs"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

// slowPFSConfig is a deliberately slow one-node parallel file system,
// so the gap between staging (memory) and durable (PFS) is visible in
// virtual time.
func slowPFSConfig() pfs.Config {
	return pfs.Config{
		ComputeNodes:       1,
		NumOSTs:            2,
		NumOSSs:            1,
		DefaultStripeCount: 1,
		OSTSeqWriteBW:      10e6, // 10 MB/s per OST
		OSTSeqReadBW:       10e6,
	}
}

// simTier builds, inside simulation process p, a tier whose staging
// store lives on an in-memory FS and whose durable store lives on the
// given PFS client. Returns the tier and the two managers.
func simTier(t *testing.T, k *sim.Kernel, fs vfs.FS, opts Options) (*Tier, *core.Manager, *core.Manager) {
	t.Helper()
	opts.Runtime = rt.Sim(k)
	smgr, err := core.NewManager("stage", core.ManagerOptions{
		Store:   core.StoreOptions{FS: vfs.NewMemFS()},
		Runtime: opts.Runtime,
	})
	if err != nil {
		t.Fatal(err)
	}
	dmgr, err := core.NewManager("app", core.ManagerOptions{
		Store:   core.StoreOptions{FS: fs, Async: true},
		Runtime: opts.Runtime,
	})
	if err != nil {
		t.Fatal(err)
	}
	tier := New(ckpt.New(smgr, ckpt.Options{}), ckpt.New(dmgr, ckpt.Options{}), opts)
	return tier, smgr, dmgr
}

// TestSimWorkerHidesDrainLatency proves the stall-hiding claim in
// virtual time: with the worker draining in the background, Commit
// returns at staging speed while durability arrives at PFS speed.
func TestSimWorkerHidesDrainLatency(t *testing.T) {
	k := sim.NewKernel()
	cluster := pfs.NewCluster(k, slowPFSConfig())
	var stagedStall, durableAt time.Duration
	var reg *obs.Registry
	k.Spawn("app", func(p *sim.Proc) {
		tier, smgr, dmgr := simTier(t, k, cluster.Client(0), Options{})
		reg = tier.reg
		tier.StartWorker()
		payload := make([]byte, 1<<20)
		for step := int64(1); step <= 3; step++ {
			c, err := tier.Begin(step)
			if err != nil {
				t.Errorf("begin: %v", err)
				return
			}
			if err := c.Write("state", payload); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			start := p.Now()
			if err := c.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
			stagedStall += p.Now().Sub(start)
			p.Sleep(50 * time.Millisecond) // compute phase; drain overlaps
		}
		if err := tier.Sync(); err != nil {
			t.Errorf("sync: %v", err)
			return
		}
		durableAt = p.Now().Duration()
		if err := tier.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		smgr.Close()
		dmgr.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if drained, lag := obstest.Counter(t, reg, "burst.drained.steps"), obstest.Gauge(t, reg, "burst.drain.max_lag_nanos"); drained != 3 || lag == 0 {
		t.Errorf("%d steps drained, max drain lag %dns; want 3 and some", drained, lag)
	}
	// 3 MB through a ~10 MB/s durable tier costs ≥ ~300 ms of virtual
	// time; the staged stalls must be far below that.
	if durableAt < 200*time.Millisecond {
		t.Fatalf("durable completion at %v; PFS model suspiciously fast", durableAt)
	}
	if stagedStall*5 > durableAt {
		t.Fatalf("staged stall %v not hidden vs time-to-durable %v", stagedStall, durableAt)
	}
}

// TestSimBudgetBackpressureBlocks checks flow control with a worker:
// a full staging budget parks the committing process until the drain
// frees space, and the wait is recorded as stall time.
func TestSimBudgetBackpressureBlocks(t *testing.T) {
	k := sim.NewKernel()
	cluster := pfs.NewCluster(k, slowPFSConfig())
	var reg *obs.Registry
	k.Spawn("app", func(p *sim.Proc) {
		// Budget below two steps: step N+1 must wait for step N's drain.
		tier, smgr, dmgr := simTier(t, k, cluster.Client(0), Options{StagingBudget: 3 << 20})
		tier.StartWorker()
		for step := int64(1); step <= 3; step++ {
			c, _ := tier.Begin(step)
			if err := c.Write("state", make([]byte, 2<<20)); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			if err := c.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
		}
		if err := tier.Sync(); err != nil {
			t.Errorf("sync: %v", err)
			return
		}
		reg = tier.reg
		tier.Close()
		smgr.Close()
		dmgr.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if obstest.Counter(t, reg, "burst.commit.stall_nanos") == 0 {
		t.Fatal("full staging budget never stalled a commit")
	}
	if hw := obstest.Gauge(t, reg, "burst.pending.high_water"); hw > 3<<20 {
		t.Fatalf("high-water %d exceeded budget", hw)
	}
	if drained := obstest.Counter(t, reg, "burst.drained.steps"); drained != 3 {
		t.Fatalf("%d steps drained, want 3", drained)
	}
}

// TestDrainRetryAccounting injects transient OST faults during a drain
// and checks the pfs retry counters surface them — and that Obs().ResetPrefix("pfs.")
// opens a clean accounting window.
func TestDrainRetryAccounting(t *testing.T) {
	cfg := slowPFSConfig()
	cfg.RetryMax = 3
	cfg.RetryBaseDelay = time.Millisecond
	cfg.RetryMaxDelay = 8 * time.Millisecond
	k := sim.NewKernel()
	cluster := pfs.NewCluster(k, cfg)
	k.Spawn("app", func(p *sim.Proc) {
		tier, smgr, dmgr := simTier(t, k, cluster.Client(0), Options{})
		c, err := tier.Begin(1)
		if err != nil {
			t.Errorf("begin: %v", err)
			return
		}
		if err := c.Write("state", make([]byte, 256<<10)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := c.Commit(); err != nil {
			t.Errorf("commit: %v", err)
			return
		}
		// Staging took no PFS traffic; the drain is the first PFS load.
		// Isolate its accounting window, then fault its first two write
		// RPC attempts.
		cluster.Obs().ResetPrefix("pfs.")
		for _, name := range []string{"pfs.retries", "pfs.faults_injected", "pfs.write_ops"} {
			if n := obstest.Counter(t, cluster.Obs(), name); n != 0 {
				t.Errorf("ResetPrefix left %s = %d", name, n)
				return
			}
		}
		fails := 2
		cluster.InjectFaults(func(write bool, ostIdx, attempt int) error {
			if write && fails > 0 {
				fails--
				return &faultfs.InjectedError{Op: faultfs.OpWrite, Transient: true}
			}
			return nil
		})
		if err := tier.WaitDurable(1); err != nil {
			t.Errorf("drain under transient faults failed: %v", err)
			return
		}
		retries, faults := obstest.Counter(t, cluster.Obs(), "pfs.retries"), obstest.Counter(t, cluster.Obs(), "pfs.faults_injected")
		if retries != 2 || faults != 2 {
			t.Errorf("drain retry accounting: pfs.retries=%d pfs.faults_injected=%d, want 2/2", retries, faults)
		}
		if cluster.Stats().BytesWritten == 0 {
			t.Error("drain wrote no bytes to the PFS")
		}
		cluster.InjectFaults(nil)
		cluster.Obs().ResetPrefix("pfs.")
		if r, f := obstest.Counter(t, cluster.Obs(), "pfs.retries"), obstest.Counter(t, cluster.Obs(), "pfs.faults_injected"); r != 0 || f != 0 {
			t.Errorf("second ResetPrefix left pfs.retries=%d pfs.faults_injected=%d", r, f)
		}
		tier.Close()
		smgr.Close()
		dmgr.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSimWorkerSurvivesEmptyQueueShutdown: closing a tier whose worker
// is parked on an empty queue must not deadlock the kernel (the worker
// is a daemon process).
func TestSimWorkerSurvivesEmptyQueueShutdown(t *testing.T) {
	k := sim.NewKernel()
	k.Spawn("app", func(p *sim.Proc) {
		tier, smgr, dmgr := simTier(t, k, vfs.NewMemFS(), Options{})
		tier.StartWorker()
		p.Sleep(time.Millisecond)
		if err := tier.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := tier.Sync(); err != nil {
			t.Errorf("sync after close: %v", err)
		}
		smgr.Close()
		dmgr.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
