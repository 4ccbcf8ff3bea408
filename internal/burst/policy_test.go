package burst

import (
	"context"
	"errors"
	"testing"
	"time"

	"lsmio/ckpt"
	"lsmio/internal/core"
	"lsmio/internal/faultfs"
	"lsmio/internal/obs"
	"lsmio/internal/obs/obstest"
	"lsmio/internal/pfs"
	"lsmio/internal/resil"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

// pfsStagingTier builds a tier whose STAGING store lives on the given
// PFS client (so staged reads can be faulted) and whose durable store
// is an in-memory FS. The inverse of simTier, for drain-policy tests:
// staging read failures do not poison the durable engine, so a
// drain-level retry can actually succeed.
func pfsStagingTier(t *testing.T, k *sim.Kernel, fs vfs.FS, opts Options) (*Tier, *core.Manager, *core.Manager) {
	rtm := rt.Sim(k)
	t.Helper()
	smgr, err := core.NewManager("stage", core.ManagerOptions{
		Store:   core.StoreOptions{FS: fs},
		Runtime: rtm,
	})
	if err != nil {
		t.Fatal(err)
	}
	dmgr, err := core.NewManager("app", core.ManagerOptions{
		Store:   core.StoreOptions{FS: vfs.NewMemFS()},
		Runtime: rtm,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts.Runtime = rtm
	tier := New(ckpt.New(smgr, ckpt.Options{}), ckpt.New(dmgr, ckpt.Options{}), opts)
	return tier, smgr, dmgr
}

// TestDrainPolicyRetriesTransientReadFaults: a staged read whose pfs
// retry budget is exhausted surfaces a transient-marked error; the
// drain policy must re-run the whole (idempotent) drainStep and
// succeed once the fault clears.
func TestDrainPolicyRetriesTransientReadFaults(t *testing.T) {
	cfg := slowPFSConfig()
	cfg.RetryMax = 1
	cfg.RetryBaseDelay = time.Millisecond
	cfg.RetryMaxDelay = 4 * time.Millisecond
	k := sim.NewKernel()
	cluster := pfs.NewCluster(k, cfg)
	var reg *obs.Registry
	k.Spawn("app", func(p *sim.Proc) {
		tier, smgr, dmgr := pfsStagingTier(t, k, cluster.Client(0), Options{
			DrainPolicy: resil.Policy{MaxRetries: 2, BaseDelay: time.Millisecond},
		})
		reg = tier.reg
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
		// Fail every read RPC until the pfs-level budget (RetryMax=1,
		// so 2 attempts) is gone at least once, forcing one whole
		// drainStep attempt to fail before the fault clears.
		fails := 2
		cluster.InjectFaults(func(write bool, ostIdx, attempt int) error {
			if !write && fails > 0 {
				fails--
				return &faultfs.InjectedError{Op: faultfs.OpRead, Transient: true}
			}
			return nil
		})
		if err := tier.WaitDurable(1); err != nil {
			t.Errorf("drain with policy retry failed: %v", err)
			return
		}
		if _, err := tier.durable.Manifest(1); err != nil {
			t.Errorf("step not durable after retried drain: %v", err)
		}
		cluster.InjectFaults(nil)
		tier.Close()
		smgr.Close()
		dmgr.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	retries := obstest.Counter(t, reg, "burst.drain.retries")
	drained := obstest.Counter(t, reg, "burst.drained.steps")
	if errs := obstest.Counter(t, reg, "burst.drain.errors"); retries == 0 || drained != 1 || errs != 0 {
		t.Errorf("%d drain retries, %d steps drained, %d drain errors; want some, 1 and 0", retries, drained, errs)
	}
}

// TestDrainPolicyTimeoutFailsStep: with every staged read failing
// transiently forever, DrainPolicy.Timeout must bound the drain in
// virtual time and fail the step with a deadline error (classified
// canceled, never counted transient), leaving the staged copy intact.
func TestDrainPolicyTimeoutFailsStep(t *testing.T) {
	cfg := slowPFSConfig()
	cfg.RetryMax = 1
	cfg.RetryBaseDelay = time.Millisecond
	cfg.RetryMaxDelay = 4 * time.Millisecond
	k := sim.NewKernel()
	cluster := pfs.NewCluster(k, cfg)
	var reg *obs.Registry
	k.Spawn("app", func(p *sim.Proc) {
		tier, smgr, dmgr := pfsStagingTier(t, k, cluster.Client(0), Options{
			DrainPolicy: resil.Policy{
				MaxRetries: 100,
				BaseDelay:  time.Millisecond,
				Timeout:    10 * time.Millisecond,
			},
		})
		reg = tier.reg
		c, _ := tier.Begin(1)
		if err := c.Write("state", make([]byte, 64<<10)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := c.Commit(); err != nil {
			t.Errorf("commit: %v", err)
			return
		}
		cluster.InjectFaults(func(write bool, ostIdx, attempt int) error {
			if !write {
				return &faultfs.InjectedError{Op: faultfs.OpRead, Transient: true}
			}
			return nil
		})
		start := p.Now()
		err := tier.WaitDurable(1)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("want deadline error, got %v", err)
			return
		}
		// The whole drain — attempts plus backoffs — stayed near the
		// 10ms budget instead of burning the full 100-retry schedule.
		if elapsed := p.Now().Sub(start); elapsed > 100*time.Millisecond {
			t.Errorf("timed-out drain took %v of virtual time", elapsed)
		}
		// Failed step stays staged for a later re-queue (Recover).
		cluster.InjectFaults(nil)
		if _, err := tier.staging.Manifest(1); err != nil {
			t.Errorf("staged copy lost after timed-out drain: %v", err)
		}
		smgr.Close()
		dmgr.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	errs := obstest.Counter(t, reg, "burst.drain.errors")
	canceled := obstest.Counter(t, reg, "burst.drain.canceled")
	if transient := obstest.Counter(t, reg, "burst.drain.transient"); errs != 1 || canceled != 1 || transient != 0 {
		t.Errorf("%d drain errors, %d canceled, %d transient; want 1, 1 and 0", errs, canceled, transient)
	}
}

// TestDrainCtxCancellation: a canceled DrainCtx fails queued drains
// immediately with the context error — no attempt started, classified
// canceled — and surfaces through Sync's sticky error.
func TestDrainCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tier, staging, _, closeFn := newMemTier(t, 0, Options{DrainCtx: ctx})
	defer closeFn()
	commitStep(t, tier, 1, 4<<10)
	n, err := tier.DrainPending(1)
	if n != 1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("DrainPending = %d, %v; want 1 canceled attempt", n, err)
	}
	if err := tier.Sync(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sync sticky error = %v", err)
	}
	if canceled, drained := obstest.Counter(t, tier.reg, "burst.drain.canceled"), obstest.Counter(t, tier.reg, "burst.drained.steps"); canceled != 1 || drained != 0 {
		t.Fatalf("%d drains canceled, %d steps drained, want 1 and 0", canceled, drained)
	}
	if _, err := staging.Manifest(1); err != nil {
		t.Fatalf("staged copy lost after canceled drain: %v", err)
	}
}

// TestTierRestoreRoutesThroughPipeline: Tier.Restore gives each tier
// the full self-healing pipeline — a corrupt staged-only step is
// quarantined on the staging store and the restore falls back to the
// durable tier, never mixing the two.
func TestTierRestoreRoutesThroughPipeline(t *testing.T) {
	tier, staging, _, closeFn := newMemTier(t, 0, Options{})
	defer closeFn()
	want := commitStep(t, tier, 1, 4<<10)
	if err := tier.WaitDurable(1); err != nil {
		t.Fatal(err)
	}
	commitStep(t, tier, 2, 4<<10) // staged only, not drained
	// Damage the staged copy of step 2.
	if err := staging.Manager().Put("ckpt/data/0000000000000002/temperature", []byte("junk")); err != nil {
		t.Fatal(err)
	}
	step, vars, rep, err := tier.Restore(ckpt.RestoreOptions{Parallel: 2})
	if err != nil || step != 1 {
		t.Fatalf("restore: step=%d err=%v", step, err)
	}
	for name, data := range want {
		if string(vars[name]) != string(data) {
			t.Fatalf("variable %s differs after cross-tier fallback", name)
		}
	}
	if rep == nil || rep.Parallel != 2 {
		t.Fatalf("report: %+v", rep)
	}
	q, err := staging.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || q[2] == "" {
		t.Fatalf("staging quarantine = %v, want exactly step 2", q)
	}
}
