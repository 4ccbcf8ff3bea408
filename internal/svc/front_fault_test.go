package svc

import (
	"context"
	"errors"
	"testing"
	"time"

	"lsmio/internal/core"
	"lsmio/internal/netsim"
	"lsmio/internal/obs"
	"lsmio/internal/resil"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

// newFaultFront builds a 1-client, simulator-mode service with a fabric
// fault plan installed and explicit FrontOptions. Must be called from a
// simulation process. Client node 0; shard nodes 1..shards.
func newFaultFront(t *testing.T, k *sim.Kernel, shards int, fo FrontOptions, sup SupervisorConfig) (*Service, *Front, *netsim.Plan) {
	rtm := rt.Sim(k)
	t.Helper()
	reg := obs.NewRegistryOn(rtm.Now)
	fabric := netsim.New(k, netsim.DefaultConfig(1+shards))
	plan := netsim.NewPlan()
	fabric.SetPlan(plan)
	s, err := New(Options{
		Shards: shards,
		OpenShard: func(i int) (*core.Manager, error) {
			return core.NewManager("store", core.ManagerOptions{
				Store: core.StoreOptions{
					FS:    vfs.NewMemFS(),
					Async: true,
				},
				Runtime: rtm,
				Obs:     reg,
			})
		},
		Runtime:    rtm,
		Obs:        reg,
		Supervisor: sup,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, shards)
	for i := range nodes {
		nodes[i] = 1 + i
	}
	return s, NewFront(s, fabric, nodes, fo), plan
}

// TestFrontDropHedgedRetry: the fault plan eats the first request
// message; the client's bounded hedged retry resends and the operation
// succeeds without the caller ever seeing the fault.
func TestFrontDropHedgedRetry(t *testing.T) {
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		s, f, plan := newFaultFront(t, k, 1, FrontOptions{}, SupervisorConfig{})
		defer s.Close()
		c := f.Connect("app", 0)
		if err := c.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := c.Barrier(); err != nil {
			t.Fatal(err)
		}
		plan.AddRule(netsim.Rule{From: -1, To: -1, Action: netsim.FaultDrop, Nth: 1, Times: 1})
		v, err := c.Get("k")
		if err != nil || string(v) != "v" {
			t.Fatalf("Get under drop = %q, %v", v, err)
		}
		if got := plan.Dropped(); got != 1 {
			t.Errorf("plan dropped %d messages, want 1", got)
		}
		if got := s.reg.Counter("svc.front.retries").Load(); got != 1 {
			t.Errorf("svc.front.retries = %d, want 1", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFrontDupDelivery: a duplicated request is applied twice without
// corrupting the write-fence accounting — the barrier (which fences all
// in-flight writes) still completes and the value reads back once.
func TestFrontDupDelivery(t *testing.T) {
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		s, f, plan := newFaultFront(t, k, 1, FrontOptions{}, SupervisorConfig{})
		defer s.Close()
		c := f.Connect("app", 0)
		plan.AddRule(netsim.Rule{From: -1, To: -1, Action: netsim.FaultDup, Nth: 1, Times: 1})
		if err := c.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := c.Barrier(); err != nil {
			t.Fatal(err)
		}
		if got := plan.Duplicated(); got != 1 {
			t.Errorf("plan duplicated %d messages, want 1", got)
		}
		v, err := c.Get("k")
		if err != nil || string(v) != "v" {
			t.Fatalf("Get after dup = %q, %v", v, err)
		}
		count := 0
		if err := c.Scan("", func(string, []byte) bool { count++; return true }); err != nil {
			t.Fatal(err)
		}
		if count != 1 {
			t.Errorf("scan found %d keys after duplicated put, want 1", count)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFrontDeadlineClassCanceled is the taxonomy regression for the
// request deadline: under an injected netsim delay longer than the
// deadline, the operation's final error classifies as ClassCanceled
// (the caller gave up) and no hedged retry fires past the deadline.
func TestFrontDeadlineClassCanceled(t *testing.T) {
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		s, f, plan := newFaultFront(t, k, 1, FrontOptions{
			RequestTimeout: 2 * time.Millisecond,
			AttemptTimeout: time.Millisecond,
		}, SupervisorConfig{})
		defer s.Close()
		c := f.Connect("app", 0)
		if err := c.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := c.Barrier(); err != nil {
			t.Fatal(err)
		}
		// Every request message now takes 10ms of injected delay —
		// far past both the attempt and the request deadline.
		plan.AddRule(netsim.Rule{From: -1, To: -1, Action: netsim.FaultDelay, Delay: 10 * time.Millisecond, Times: -1})
		_, err := c.Get("k")
		if err == nil {
			t.Fatal("Get under 10ms delay with 2ms deadline succeeded")
		}
		if got := resil.Classify(err); got != resil.ClassCanceled {
			t.Fatalf("deadline error classified %v, want canceled (err: %v)", got, err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline error does not wrap context.DeadlineExceeded: %v", err)
		}
		// The deadline expired during the first attempt: the policy must
		// not have launched a hedged retry after the caller gave up.
		if got := s.reg.Counter("svc.front.retries").Load(); got != 0 {
			t.Errorf("svc.front.retries = %d after deadline expiry, want 0", got)
		}
		if got := s.reg.Counter("svc.front.attempt_timeouts").Load(); got == 0 {
			t.Error("attempt timeout never fired under injected delay")
		}
		// After the plan heals, the same client recovers.
		plan.Heal()
		plan.ClearRules()
		if v, err := c.Get("k"); err != nil || string(v) != "v" {
			t.Fatalf("Get after heal = %q, %v", v, err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFrontWriteLossFailsBarrier: an async write accepted by a shard
// server that dies before applying it must fail the tenant's next
// barrier with a typed, transient WriteLossError — the commit is never
// silently acknowledged.
func TestFrontWriteLossFailsBarrier(t *testing.T) {
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		// Supervision disabled: the shard stays down so the loss path is
		// deterministic.
		s, f, _ := newFaultFront(t, k, 2, FrontOptions{}, SupervisorConfig{Disabled: true})
		defer s.Close()
		c := f.Connect("app", 0)
		keys := shardKeys(s, "app")
		if err := c.Put(keys[1], []byte("safe")); err != nil {
			t.Fatal(err)
		}
		if err := c.Barrier(); err != nil {
			t.Fatal(err)
		}
		if err := s.CrashShard(0); err != nil {
			t.Fatal(err)
		}
		// The async put is admitted and shipped; the server finds the
		// shard down and must ledger the loss instead of dropping it.
		if err := c.Put(keys[0], []byte("doomed")); err != nil {
			t.Fatal(err)
		}
		err := c.Barrier()
		var wle *WriteLossError
		if !errors.As(err, &wle) {
			t.Fatalf("Barrier after lost write = %v, want WriteLossError", err)
		}
		if wle.Shard != 0 || wle.Tenant != "app" || wle.Lost != 1 {
			t.Fatalf("WriteLossError = %+v", wle)
		}
		if resil.Classify(err) != resil.ClassTransient {
			t.Fatalf("WriteLossError classified %v, want transient", resil.Classify(err))
		}
		if got := s.reg.Counter("svc.front.lost_writes").Load(); got != 1 {
			t.Errorf("svc.front.lost_writes = %d, want 1", got)
		}
		// The loss is reported exactly once; the next barrier fails only
		// because the shard itself is still down (typed ShardDownError).
		err = c.Barrier()
		var sde *ShardDownError
		if !errors.As(err, &sde) {
			t.Fatalf("second Barrier = %v, want ShardDownError", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFrontWriteLossSurvivesLostReply: the loss ledger is cleared by
// two-phase ack, not on read. The first barrier's refusal reply misses
// AttemptTimeout (the request leg is fault-delayed past it), so the
// hedged retry re-delivers the barrier — it must be refused again with
// the same WriteLossError, never acknowledged: a delete-on-read ledger
// would let the retry falsely ack the commit the crash ate.
func TestFrontWriteLossSurvivesLostReply(t *testing.T) {
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		s, f, plan := newFaultFront(t, k, 1, FrontOptions{
			AttemptTimeout: time.Millisecond,
		}, SupervisorConfig{RestartBackoff: 500 * time.Microsecond})
		defer s.Close()
		c := f.Connect("app", 0)
		if err := s.CrashShard(0); err != nil {
			t.Fatal(err)
		}
		// Admitted and shipped while the shard is down: the server
		// ledgers the loss. The supervisor then restarts the shard, so a
		// falsely-acknowledged barrier would actually succeed.
		if err := c.Put("k", []byte("doomed")); err != nil {
			t.Fatal(err)
		}
		for i := 0; s.ShardStatuses()[0].State != "up"; i++ {
			if i > 100 {
				t.Fatal("shard never restarted")
			}
			p.Sleep(time.Millisecond)
		}
		// Delay the first barrier's request leg past AttemptTimeout: the
		// attempt timer (armed before the outbound transfer) wins, the
		// refusal reply lands in the abandoned queue, and the policy
		// hedge-retries the barrier.
		plan.AddRule(netsim.Rule{From: 0, To: 1, Nth: 1, Times: 1,
			Action: netsim.FaultDelay, Delay: 5 * time.Millisecond})
		err := c.Barrier()
		var wle *WriteLossError
		if !errors.As(err, &wle) {
			t.Fatalf("Barrier with lost refusal reply = %v, want WriteLossError", err)
		}
		if wle.Shard != 0 || wle.Lost != 1 {
			t.Fatalf("WriteLossError = %+v", wle)
		}
		if got := s.reg.Counter("svc.front.attempt_timeouts").Load(); got == 0 {
			t.Error("attempt timeout never fired; the refusal reply was not lost")
		}
		if got := s.reg.Counter("svc.front.retries").Load(); got == 0 {
			t.Error("hedged retry never fired")
		}
		// The observed error's Seq is the ack token: after replaying the
		// step, the re-barrier clears the ledger and commits.
		if err := c.Put("k", []byte("v2")); err != nil {
			t.Fatal(err)
		}
		if err := c.Barrier(); err != nil {
			t.Fatalf("Barrier after replay = %v", err)
		}
		if v, err := c.Get("k"); err != nil || string(v) != "v2" {
			t.Fatalf("Get after replay = %q, %v", v, err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFrontDupAsyncLossRecordedOnce: a fault-plan duplicated async put
// that fails server-side is one logical write — only its primary
// delivery records the loss, so WriteLossError.Lost (and the
// lost_writes counter) match what the tenant must actually replay.
func TestFrontDupAsyncLossRecordedOnce(t *testing.T) {
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		s, f, plan := newFaultFront(t, k, 1, FrontOptions{}, SupervisorConfig{Disabled: true})
		defer s.Close()
		c := f.Connect("app", 0)
		if err := s.CrashShard(0); err != nil {
			t.Fatal(err)
		}
		plan.AddRule(netsim.Rule{From: -1, To: -1, Action: netsim.FaultDup, Nth: 1, Times: 1})
		if err := c.Put("k", []byte("doomed")); err != nil {
			t.Fatal(err)
		}
		err := c.Barrier()
		var wle *WriteLossError
		if !errors.As(err, &wle) {
			t.Fatalf("Barrier after duplicated lost put = %v, want WriteLossError", err)
		}
		if wle.Lost != 1 {
			t.Errorf("WriteLossError.Lost = %d, want 1 (dup delivery must not double-count)", wle.Lost)
		}
		if got := s.reg.Counter("svc.front.lost_writes").Load(); got != 1 {
			t.Errorf("svc.front.lost_writes = %d, want 1", got)
		}
		if got := plan.Duplicated(); got != 1 {
			t.Errorf("plan duplicated %d messages, want 1", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFrontPostCloseErrClosed: after Service.Close every fabric-client
// operation fails with ErrClosed — the transport must not hang on the
// closed pool or surface an untyped error.
func TestFrontPostCloseErrClosed(t *testing.T) {
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		s, f, _ := newFaultFront(t, k, 2, FrontOptions{}, SupervisorConfig{})
		c := f.Connect("app", 0)
		if err := c.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("second Close = %v, want nil (idempotent)", err)
		}
		if err := c.Put("k", []byte("v2")); !errors.Is(err, ErrClosed) {
			t.Errorf("Put after close = %v, want ErrClosed", err)
		}
		if _, err := c.Get("k"); !errors.Is(err, ErrClosed) {
			t.Errorf("Get after close = %v, want ErrClosed", err)
		}
		if err := c.Del("k"); !errors.Is(err, ErrClosed) {
			t.Errorf("Del after close = %v, want ErrClosed", err)
		}
		if err := c.Barrier(); !errors.Is(err, ErrClosed) {
			t.Errorf("Barrier after close = %v, want ErrClosed", err)
		}
		if err := c.Scan("", func(string, []byte) bool { return true }); !errors.Is(err, ErrClosed) {
			t.Errorf("Scan after close = %v, want ErrClosed", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFrontShardDownRetrySurfaces: with supervision disabled and a
// shard crashed, a synchronous request against it is hedged once and
// then surfaces the typed ShardDownError (never a raw error).
func TestFrontShardDownRetrySurfaces(t *testing.T) {
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		s, f, _ := newFaultFront(t, k, 2, FrontOptions{}, SupervisorConfig{Disabled: true})
		defer s.Close()
		c := f.Connect("app", 0)
		keys := shardKeys(s, "app")
		if err := s.CrashShard(0); err != nil {
			t.Fatal(err)
		}
		_, err := c.Get(keys[0])
		var sde *ShardDownError
		if !errors.As(err, &sde) {
			t.Fatalf("Get on downed shard = %v, want ShardDownError", err)
		}
		if sde.Shard != 0 {
			t.Fatalf("ShardDownError names shard %d, want 0", sde.Shard)
		}
		if got := s.reg.Counter("svc.front.retries").Load(); got != 1 {
			t.Errorf("svc.front.retries = %d, want 1 (one hedged retry)", got)
		}
		// The healthy shard is untouched.
		if _, err := c.Get(keys[1]); !errors.Is(err, ErrNotFound) {
			t.Fatalf("healthy shard Get = %v, want ErrNotFound", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
