package robustness

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"lsmio/internal/core"
	"lsmio/internal/faultfs"
	"lsmio/internal/netsim"
	"lsmio/internal/obs"
	"lsmio/internal/pfs"
	"lsmio/internal/resil"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/svc"
	"lsmio/internal/vfs"
)

// service_chaos_test.go is the end-to-end service chaos sweep
// (`make svc-chaos`): shard crashes injected while tenants commit, a
// fabric partition dropped onto live commits, and a whole-daemon
// kill-and-restart. Two invariants hold throughout:
//
//  1. Every client-acknowledged commit (a Barrier that returned nil) is
//     restorable afterwards, byte-exact.
//  2. No tenant ever sees a non-typed error: everything surfacing from
//     the service maps onto the shared taxonomy (QuotaError,
//     ShardDownError, WriteLossError, resil.ClassError / class
//     markers) — never a raw internal error.

// typedSvcError reports whether err is acceptable for a tenant to see
// under chaos: a typed transient (retry), a canceled deadline (the
// caller's own timeout), or a domain sentinel.
func typedSvcError(err error) bool {
	if err == nil {
		return true
	}
	if errors.Is(err, svc.ErrNotFound) || errors.Is(err, svc.ErrClosed) {
		return true
	}
	switch resil.Classify(err) {
	case resil.ClassTransient, resil.ClassCanceled:
		return true
	}
	return false
}

// chaosTenant drives steps of (put xN, barrier) against an in-process
// tenant handle, retrying typed transient errors, and records which
// steps were acknowledged. Any non-typed error aborts and is reported.
type chaosTenant struct {
	name  string
	acked []int // step numbers whose Barrier returned nil
	fatal error // first non-typed error observed (invariant breach)
	// beforeOp, when set, runs before every operation attempt: the
	// fault-injection point of the crash sweeps.
	beforeOp func()
}

func (ct *chaosTenant) run(tn *svc.Client, steps, blocks int, pause func()) {
	for step := 0; step < steps; step++ {
		for b := 0; b < blocks; b++ {
			if !ct.retry(func() error {
				return tn.Put(svcKey(step, b), svcPayload(0, step, b))
			}, pause) {
				return
			}
		}
		if !ct.retry(tn.Barrier, pause) {
			return
		}
		ct.acked = append(ct.acked, step)
	}
}

// retry drives op to success, pausing between typed transient
// rejections. It returns false on an invariant breach (non-typed
// error) or on retry exhaustion.
func (ct *chaosTenant) retry(op func() error, pause func()) bool {
	for attempt := 0; attempt < 4000; attempt++ {
		if ct.beforeOp != nil {
			ct.beforeOp()
		}
		err := op()
		if err == nil {
			return true
		}
		if !typedSvcError(err) {
			ct.fatal = fmt.Errorf("tenant %s: non-typed error: %w", ct.name, err)
			return false
		}
		pause()
	}
	ct.fatal = fmt.Errorf("tenant %s: retries exhausted", ct.name)
	return false
}

// TestServiceChaosShardCrashUnderLoad crashes shards while tenants
// commit on the real runtime: once tenant0 has issued a given number of
// operations its goroutine crashes the victims (CrashShard, then the
// shard filesystem, so unbarriered bytes are really gone when the
// supervisor's reopen recovers them). Crashing two shards at once runs
// two restart swaps through the write gate together. Acknowledged
// commits survive, only typed errors surface, and every victim is
// restarted.
func TestServiceChaosShardCrashUnderLoad(t *testing.T) {
	const shards, tenants, steps, blocks = 3, 3, 4, 6
	for _, tc := range []struct {
		name    string
		victims []int
		afterOp int64 // tenant0's svc.tenant.tenant0.ops count that fires the crash
	}{
		{"one-early", []int{0}, 3},
		{"one-late", []int{0}, 15},
		{"two-at-once", []int{0, 1}, 8},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			dumpTraceOnFailure(t, "", reg)
			ffs := make([]*faultfs.FS, shards)
			for i := range ffs {
				ffs[i] = faultfs.New(vfs.NewMemFS())
			}
			s, err := svc.New(svc.Options{
				Shards: shards,
				OpenShard: func(i int) (*core.Manager, error) {
					return core.NewManager("store", core.ManagerOptions{
						Store: core.StoreOptions{FS: ffs[i], Async: true},
						Obs:   reg,
					})
				},
				Obs:        reg,
				Supervisor: svc.SupervisorConfig{RestartBackoff: 2 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			ops := reg.Counter("svc.tenant.tenant0.ops")
			fired := false
			crash := func() {
				if fired || ops.Load() < tc.afterOp {
					return
				}
				fired = true
				for _, v := range tc.victims {
					if err := s.CrashShard(v); err != nil {
						t.Errorf("CrashShard(%d): %v", v, err)
					}
					if err := ffs[v].Crash(); err != nil {
						t.Errorf("fs crash %d: %v", v, err)
					}
				}
			}

			cts := make([]*chaosTenant, tenants)
			var wg sync.WaitGroup
			for i := 0; i < tenants; i++ {
				ct := &chaosTenant{name: fmt.Sprintf("tenant%d", i)}
				if i == 0 {
					ct.beforeOp = crash
				}
				cts[i] = ct
				wg.Add(1)
				go func() {
					defer wg.Done()
					ct.run(s.Tenant(ct.name), steps, blocks,
						func() { time.Sleep(500 * time.Microsecond) })
				}()
			}
			wg.Wait()
			if !fired {
				t.Fatal("the crash never fired")
			}

			// Every acknowledged commit is restorable, byte-exact.
			for _, ct := range cts {
				if ct.fatal != nil {
					t.Fatal(ct.fatal)
				}
				if len(ct.acked) != steps {
					t.Fatalf("%s acked %d/%d steps", ct.name, len(ct.acked), steps)
				}
				tn := s.Tenant(ct.name)
				for _, step := range ct.acked {
					for b := 0; b < blocks; b++ {
						v, err := tn.Get(svcKey(step, b))
						if err != nil {
							t.Fatalf("%s %s: %v", ct.name, svcKey(step, b), err)
						}
						if !bytes.Equal(v, svcPayload(0, step, b)) {
							t.Fatalf("%s %s: corrupt payload", ct.name, svcKey(step, b))
						}
					}
				}
			}
			// Close waits for the restart workers, so the count is final.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if got := reg.Snapshot().Counters["svc.supervisor.restarts"]; got < int64(len(tc.victims)) {
				t.Errorf("supervisor restarted %d shard(s), want >= %d", got, len(tc.victims))
			}
		})
	}
}

// TestServiceChaosPartitionMidCommit partitions the clients from the
// shard nodes for a window in the middle of a committing run, over a
// front configured with request deadlines and hedged retries. During
// the partition tenants see only typed transient/canceled errors; after
// it heals, every acknowledged commit reads back exactly.
func TestServiceChaosPartitionMidCommit(t *testing.T) {
	const shards, tenants, steps, blocks = 3, 3, 5, 8
	k := sim.NewKernel()
	rtm := rt.Sim(k)
	reg := obs.NewRegistryOn(rtm.Now)
	dumpTraceOnFailure(t, "", reg)
	cluster := pfs.NewCluster(k, pfs.VikingConfig(tenants+shards))

	// Partition every client from every shard node for [2ms, 50ms) of
	// virtual time — wide enough to straddle several commit steps (a
	// barrier apply alone spends tens of virtual milliseconds in pfs
	// I/O, during which no client<->shard message is in flight).
	plan := netsim.NewPlan()
	clientNodes := make([]int, tenants)
	shardNodes := make([]int, shards)
	for i := range clientNodes {
		clientNodes[i] = i
	}
	for i := range shardNodes {
		shardNodes[i] = tenants + i
	}
	plan.Partition(clientNodes, shardNodes, 2*time.Millisecond, 50*time.Millisecond)
	cluster.Fabric().SetPlan(plan)

	var s *svc.Service
	var front *svc.Front
	var setupErr error
	k.Spawn("setup", func(p *sim.Proc) {
		s, setupErr = svc.New(svc.Options{
			Shards: shards,
			OpenShard: func(i int) (*core.Manager, error) {
				return core.NewManager(fmt.Sprintf("svc/shard%03d", i), core.ManagerOptions{
					Store: core.StoreOptions{
						FS:    cluster.Client(tenants + i),
						Async: true,
					},
					Runtime: rtm,
					Obs:     reg,
				})
			},
			Runtime: rtm,
			Obs:     reg,
		})
		if setupErr != nil {
			return
		}
		// The deadline sits well above steady-state op latency (a
		// barrier apply spends tens of virtual ms in pfs I/O) but still
		// bounds a request wedged behind the partition.
		front = svc.NewFront(s, cluster.Fabric(), shardNodes, svc.FrontOptions{
			RequestTimeout: 400 * time.Millisecond,
		})
	})
	if err := k.Run(); err != nil {
		t.Fatalf("setup run: %v", err)
	}
	if setupErr != nil {
		t.Fatal(setupErr)
	}

	cts := make([]*chaosTenant, tenants)
	for i := 0; i < tenants; i++ {
		i := i
		ct := &chaosTenant{name: fmt.Sprintf("tenant%d", i)}
		cts[i] = ct
		k.Spawn(ct.name, func(p *sim.Proc) {
			c := front.Connect(ct.name, i)
			for step := 0; step < steps; step++ {
				for b := 0; b < blocks; b++ {
					if !ct.retry(func() error {
						return c.Put(svcKey(step, b), svcPayload(i, step, b))
					}, func() { p.Sleep(300 * time.Microsecond) }) {
						return
					}
				}
				if !ct.retry(c.Barrier, func() { p.Sleep(300 * time.Microsecond) }) {
					return
				}
				ct.acked = append(ct.acked, step)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("load run: %v", err)
	}
	t.Logf("load finished at %v (dropped=%d delayed=%d)", k.Now().Duration(), plan.Dropped(), plan.Delayed())
	for _, ct := range cts {
		if ct.fatal != nil {
			t.Fatal(ct.fatal)
		}
		if len(ct.acked) != steps {
			t.Fatalf("%s acked %d/%d steps", ct.name, len(ct.acked), steps)
		}
	}
	// The partition really bit: the plan dropped traffic mid-run.
	if plan.Dropped() == 0 {
		t.Fatal("fault plan dropped nothing; the partition never engaged")
	}

	var verifyErr error
	k.Spawn("verify", func(p *sim.Proc) {
		for i, ct := range cts {
			c := front.Connect(ct.name, i)
			for _, step := range ct.acked {
				for b := 0; b < blocks; b++ {
					v, err := c.Get(svcKey(step, b))
					if err != nil {
						verifyErr = fmt.Errorf("%s %s: %w", ct.name, svcKey(step, b), err)
						return
					}
					if !bytes.Equal(v, svcPayload(i, step, b)) {
						verifyErr = fmt.Errorf("%s %s: corrupt payload", ct.name, svcKey(step, b))
						return
					}
				}
			}
		}
		verifyErr = s.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("verify run: %v", err)
	}
	if verifyErr != nil {
		t.Fatal(verifyErr)
	}
}

// TestServiceChaosDaemonKillRestart kills the whole daemon — every
// shard's node crashes (unsynced state gone), then the service object
// is torn down — and brings a fresh Service up over the surviving
// storage. Every barriered commit is restorable in the new incarnation,
// and it accepts new commits.
func TestServiceChaosDaemonKillRestart(t *testing.T) {
	const shards, tenants, steps, blocks = 3, 3, 3, 8
	reg := obs.NewRegistry()
	dumpTraceOnFailure(t, "", reg)
	ffs := make([]*faultfs.FS, shards)
	for i := range ffs {
		ffs[i] = faultfs.New(vfs.NewMemFS())
	}
	mfs := vfs.NewMemFS()
	openService := func(reg *obs.Registry) (*svc.Service, error) {
		return svc.New(svc.Options{
			Shards: shards,
			OpenShard: func(i int) (*core.Manager, error) {
				return core.NewManager("store", core.ManagerOptions{
					Store: core.StoreOptions{FS: ffs[i], Async: true},
					Obs:   reg,
				})
			},
			Obs:        reg,
			ManifestFS: mfs,
		})
	}
	s, err := openService(reg)
	if err != nil {
		t.Fatal(err)
	}

	cts := make([]*chaosTenant, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		ct := &chaosTenant{name: fmt.Sprintf("tenant%d", i)}
		cts[i] = ct
		wg.Add(1)
		go func() {
			defer wg.Done()
			ct.run(s.Tenant(ct.name), steps, blocks,
				func() { time.Sleep(200 * time.Microsecond) })
		}()
	}
	wg.Wait()
	for _, ct := range cts {
		if ct.fatal != nil {
			t.Fatal(ct.fatal)
		}
		if len(ct.acked) != steps {
			t.Fatalf("%s acked %d/%d steps before the kill", ct.name, len(ct.acked), steps)
		}
	}

	// Unacknowledged tail: written but never barriered — the kill may
	// legally eat it.
	for i := 0; i < tenants; i++ {
		tn := s.Tenant(fmt.Sprintf("tenant%d", i))
		for b := 0; b < blocks/2; b++ {
			if err := tn.Put(svcKey(steps, b), svcPayload(0, steps, b)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Kill: every node loses unsynced state, then the daemon dies. The
	// teardown's flush attempts fail against the crashed filesystems —
	// that is the point: only barriered data may survive.
	for i := range ffs {
		if err := ffs[i].Crash(); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.Close() // errors expected: the stores are dead

	// Restart the daemon over the surviving storage.
	reg2 := obs.NewRegistry()
	dumpTraceOnFailure(t, "restarted", reg2)
	s2, err := openService(reg2)
	if err != nil {
		t.Fatalf("daemon restart: %v", err)
	}
	defer s2.Close()
	for i, ct := range cts {
		_ = i
		tn := s2.Tenant(ct.name)
		for _, step := range ct.acked {
			for b := 0; b < blocks; b++ {
				v, err := tn.Get(svcKey(step, b))
				if err != nil {
					t.Fatalf("%s %s lost across daemon restart: %v", ct.name, svcKey(step, b), err)
				}
				if !bytes.Equal(v, svcPayload(0, step, b)) {
					t.Fatalf("%s %s corrupt across daemon restart", ct.name, svcKey(step, b))
				}
			}
		}
		// The new incarnation accepts fresh commits.
		if err := tn.Put("post-restart", []byte("ok")); err != nil {
			t.Fatal(err)
		}
		if err := tn.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
}
