package robustness

import (
	"fmt"
	"testing"
	"time"

	"lsmio/ckpt"
	"lsmio/internal/burst"
	"lsmio/internal/core"
	"lsmio/internal/iosched"
	"lsmio/internal/obs"
	"lsmio/internal/pfs"
	"lsmio/internal/resil"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/svc"
)

// TestSimStackLeaksNoWallTime builds the whole stack on the
// simulator — a sharded service over managers and LSM stores on the
// simulated PFS, a burst tier in front of one more store, one shared
// I/O scheduler — naming the runtime once and injecting NO registry, so
// every layer creates its default one. After a workload that exercises
// admission sleeps, engine flushes, drain pacing and a shard
// crash-restart, every registry must read exactly the kernel's clock,
// and no trace timestamp or histogram sample may lie beyond the
// kernel's final virtual time. The test first lets the process's wall
// clock get ahead of all the virtual time the workload will take, so a
// layer that fell back to the wall clock stamps a time no virtual
// reading can reach.
func TestSimStackLeaksNoWallTime(t *testing.T) {
	const shards = 2
	if d := 500*time.Millisecond - rt.Real().Now(); d > 0 {
		time.Sleep(d)
	}
	wallStart := rt.Real().Now()
	k := sim.NewKernel()
	rtm := rt.Sim(k) // the one place the stack's runtime is named
	cluster := pfs.NewCluster(k, pfs.VikingConfig(shards+2))
	sched := iosched.New(iosched.Config{BytesPerSec: 64 << 20, Clock: rtm})

	regs := map[string]*obs.Registry{"pfs": cluster.Obs(), "iosched": sched.Obs()}
	manager := func(name string, node int) (*core.Manager, error) {
		mgr, err := core.NewManager(name, core.ManagerOptions{
			Store: core.StoreOptions{
				FS: cluster.Client(node), Async: true, EnableWAL: true,
				WriteBufferSize: 64 << 10, IOSched: sched,
			},
			Runtime: rtm,
		})
		if err == nil {
			regs[fmt.Sprintf("core+lsm %s@%v", name, rtm.Now())] = mgr.Obs()
		}
		return mgr, err
	}

	k.Spawn("app", func(p *sim.Proc) {
		s, err := svc.New(svc.Options{
			Shards:     shards,
			Runtime:    rtm,
			OpenShard:  func(i int) (*core.Manager, error) { return manager(fmt.Sprintf("shard%d", i), i) },
			Admission:  svc.AdmissionConfig{CapacityBytesPerSec: 32 << 20},
			Supervisor: svc.SupervisorConfig{RestartBackoff: 200 * time.Microsecond},
		})
		if err != nil {
			t.Error(err)
			return
		}
		regs["svc"] = s.Obs()
		tenant := s.Tenant("a")
		retry := resil.Policy{MaxRetries: 100, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
		for i := 0; i < 40; i++ {
			err := retry.Do(nil, rtm, uint64(i), func(int) error { // rides out the shard restart
				return tenant.Put(fmt.Sprintf("k%03d", i), make([]byte, 8<<10))
			})
			if err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
			if i == 20 {
				if err := tenant.Barrier(); err != nil {
					t.Errorf("barrier: %v", err)
				}
				if err := s.CrashShard(0); err != nil { // restart worker: backoff sleep, reopen, MTTR
					t.Error(err)
				}
			}
		}
		if err := tenant.Barrier(); err != nil {
			t.Errorf("barrier: %v", err)
		}

		smgr, err := manager("stage", shards)
		if err != nil {
			t.Error(err)
			return
		}
		dmgr, err := manager("durable", shards+1)
		if err != nil {
			t.Error(err)
			return
		}
		tier := burst.New(ckpt.New(smgr, ckpt.Options{}), ckpt.New(dmgr, ckpt.Options{}),
			burst.Options{Runtime: rtm, IOSched: sched, StagingBudget: 96 << 10})
		regs["burst"] = tier.Obs()
		tier.StartWorker()
		for step := int64(1); step <= 3; step++ {
			c, err := tier.Begin(step)
			if err == nil {
				err = c.Write("v", make([]byte, 64<<10))
			}
			if err == nil {
				err = c.Commit() // the budget holds one step: the later ones stall on the drain
			}
			if err != nil {
				t.Errorf("step %d: %v", step, err)
				return
			}
		}
		for _, closer := range []func() error{tier.Close, smgr.Close, dmgr.Close, s.Close} {
			if err := closer(); err != nil {
				t.Errorf("close: %v", err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	final := k.Now().Duration()
	if final >= wallStart {
		t.Fatalf("the check needs wall time (%v at start) ahead of virtual time (%v at end)", wallStart, final)
	}
	if len(regs) < 4+shards+1+2 { // pfs, iosched, svc, burst + shards + a restart + two tier stores
		t.Fatalf("only %d registries collected", len(regs))
	}
	events, samples := 0, 0
	for name, reg := range regs {
		if now := reg.Now(); now != final {
			t.Errorf("%s: registry clock reads %v, the kernel %v", name, now, final)
		}
		for _, ev := range reg.Trace().Events() {
			events++
			if ev.At > final || ev.At+ev.Dur > final {
				t.Errorf("%s: trace event %s at %v (+%v) lies beyond the final virtual time %v",
					name, ev.Kind, ev.At, ev.Dur, final)
			}
		}
		for hname, h := range reg.Snapshot().Hists {
			samples += int(h.Count)
			if h.Count > 0 && time.Duration(h.Max) > final {
				t.Errorf("%s: histogram %s holds a sample of %v, beyond the final virtual time %v",
					name, hname, time.Duration(h.Max), final)
			}
		}
	}
	if events == 0 || samples == 0 {
		t.Fatalf("nothing to check: %d trace events, %d histogram samples", events, samples)
	}
}
