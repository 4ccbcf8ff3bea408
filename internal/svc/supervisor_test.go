package svc

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lsmio/internal/core"
	"lsmio/internal/faultfs"
	"lsmio/internal/obs"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

// newCrashableService builds a goroutine-mode service whose shards sit
// on pinned faultfs-wrapped memory filesystems, so a shard can be
// crashed (ffs[i].Crash()) and the supervisor's reopen recovers from
// the same filesystem — unlike newLocalService, which hands every open
// a fresh MemFS.
func newCrashableService(t *testing.T, shards int, sup SupervisorConfig) (*Service, []*faultfs.FS) {
	t.Helper()
	reg := obs.NewRegistry()
	ffs := make([]*faultfs.FS, shards)
	for i := range ffs {
		ffs[i] = faultfs.New(vfs.NewMemFS())
	}
	s, err := New(Options{
		Shards: shards,
		OpenShard: func(i int) (*core.Manager, error) {
			return core.NewManager("store", core.ManagerOptions{
				Store: core.StoreOptions{FS: ffs[i], Async: true},
				Obs:   reg,
			})
		},
		Obs:        reg,
		Supervisor: sup,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, ffs
}

// shardKeys returns per-shard tenant keys: keys[i] routes to shard i.
func shardKeys(s *Service, tenant string) []string {
	keys := make([]string, s.Shards())
	found := 0
	for n := 0; found < len(keys); n++ {
		k := fmt.Sprintf("probe%04d", n)
		idx := route(nsKey(tenant, k), s.Shards())
		if keys[idx] == "" {
			keys[idx] = k
			found++
		}
	}
	return keys
}

func waitShardUp(t *testing.T, s *Service, idx int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := s.ShardStatuses()[idx]
		if st.State == "up" && st.Restarts >= 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("shard %d never restarted: %+v", idx, s.ShardStatuses()[idx])
}

// TestSupervisorBreakerRestart crashes a shard's backing filesystem and
// drives requests at it: the request-outcome breaker must trip, the
// supervisor must restart the shard on the same (rebooted) filesystem,
// and every barriered write must survive the round trip.
func TestSupervisorBreakerRestart(t *testing.T) {
	s, ffs := newCrashableService(t, 2, SupervisorConfig{RestartBackoff: time.Millisecond})
	defer s.Close()
	ten := s.Tenant("app")
	keys := shardKeys(s, "app")

	for i, k := range keys {
		if err := ten.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ten.Barrier(); err != nil {
		t.Fatal(err)
	}

	// Kill shard 0's node. Reads may keep serving from the manager's
	// in-memory state, but writes and barriers hit the dead handles; the
	// breaker needs a few consecutive failures before it trips, and the
	// first raw (untyped) errors may surface to callers.
	if err := ffs[0].Crash(); err != nil {
		t.Fatal(err)
	}
	sawDown := false
	for i := 0; i < 50 && !sawDown; i++ {
		err := ten.Put(keys[0], []byte("post-crash"))
		if err == nil {
			err = ten.Barrier()
		}
		var sde *ShardDownError
		if errors.As(err, &sde) {
			if sde.Shard != 0 || sde.Retry <= 0 {
				t.Fatalf("bad ShardDownError: %+v", sde)
			}
			sawDown = true
		}
		time.Sleep(time.Millisecond)
	}
	if !sawDown {
		t.Fatal("breaker never tripped into ShardDownError")
	}

	waitShardUp(t, s, 0)
	// The pre-crash barriered value must be restorable. A post-crash
	// overwrite may also have survived (recovery keeps unacked writes
	// whose log records made it down — allowed; the invariant is that
	// acked data is never lost, not that unacked data is).
	got, err := ten.Get(keys[0])
	if err != nil {
		t.Fatalf("post-restart Get(%s): %v", keys[0], err)
	}
	if string(got) != "v0" && string(got) != "post-crash" {
		t.Fatalf("post-restart Get(%s) = %q", keys[0], got)
	}
	if got, err := ten.Get(keys[1]); err != nil || string(got) != "v1" {
		t.Fatalf("healthy-shard Get = %q, %v", got, err)
	}
	if n := s.ShardStatuses()[1].Restarts; n != 0 {
		t.Fatalf("healthy shard restarted %d times", n)
	}
}

// TestSupervisorCrashShardSim injects a shard crash inside the
// simulator: requests fail fast with the typed error while the shard is
// down, and the restart process brings it back on virtual time.
func TestSupervisorCrashShardSim(t *testing.T) {
	kern := sim.NewKernel()
	rtm := rt.Sim(kern)
	fss := []vfs.FS{vfs.NewMemFS(), vfs.NewMemFS()}
	var s *Service
	kern.Spawn("main", func(p *sim.Proc) {
		var err error
		s, err = New(Options{
			Shards:  2,
			Runtime: rtm,
			OpenShard: func(i int) (*core.Manager, error) {
				return core.NewManager("store", core.ManagerOptions{
					Store: core.StoreOptions{FS: fss[i], Async: true},
				})
			},
			Supervisor: SupervisorConfig{RestartBackoff: time.Millisecond},
		})
		if err != nil {
			t.Error(err)
			return
		}
		ten := s.Tenant("app")
		keys := shardKeys(s, "app")
		for _, k := range keys {
			if err := ten.Put(k, []byte("x")); err != nil {
				t.Error(err)
				return
			}
		}
		if err := ten.Barrier(); err != nil {
			t.Error(err)
			return
		}

		if err := s.CrashShard(0); err != nil {
			t.Error(err)
			return
		}
		var sde *ShardDownError
		if _, err := ten.Get(keys[0]); !errors.As(err, &sde) {
			t.Errorf("Get on downed shard = %v, want ShardDownError", err)
		}
		if st := s.ShardStatuses()[0]; st.State != "down" && st.State != "restarting" {
			t.Errorf("crashed shard state = %q", st.State)
		}

		p.Sleep(time.Second) // let the restart worker run its backoff
		if got, err := ten.Get(keys[0]); err != nil || string(got) != "x" {
			t.Errorf("post-restart Get = %q, %v", got, err)
		}
		st := s.ShardStatuses()[0]
		if st.State != "up" || st.Restarts != 1 {
			t.Errorf("post-restart status = %+v", st)
		}
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	})
	kern.Run()
}

// TestSupervisorDisabled verifies the opt-out: a crashed shard stays
// down (still failing fast with the typed error) and no breaker state
// is reported.
func TestSupervisorDisabled(t *testing.T) {
	s, _ := newCrashableService(t, 2, SupervisorConfig{Disabled: true})
	defer s.Close()
	ten := s.Tenant("app")
	keys := shardKeys(s, "app")
	if err := ten.Put(keys[0], []byte("x")); err != nil {
		t.Fatal(err)
	}

	if err := s.CrashShard(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	var sde *ShardDownError
	if _, err := ten.Get(keys[0]); !errors.As(err, &sde) {
		t.Fatalf("Get = %v, want ShardDownError", err)
	}
	st := s.ShardStatuses()[0]
	if st.State != "down" || st.Restarts != 0 || st.Breaker != "" {
		t.Fatalf("disabled-supervisor status = %+v", st)
	}
	// The other shard keeps serving.
	if _, err := ten.Get(keys[1]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("healthy shard Get = %v, want ErrNotFound", err)
	}
}

// TestCrashShardBadIndex covers the error path for a nonexistent slot.
func TestCrashShardBadIndex(t *testing.T) {
	s, _ := newCrashableService(t, 1, SupervisorConfig{})
	defer s.Close()
	if err := s.CrashShard(7); err == nil {
		t.Fatal("CrashShard(7) on a 1-shard pool succeeded")
	}
}

// TestRestartSwapsShareTheWriteGate: a restart swap waits while another
// holder has the write gate, and so does a writer. The test takes the
// gate itself and crashes two shards; neither shard comes back and no
// put lands until it lets go, and then both swaps take the gate in turn.
func TestRestartSwapsShareTheWriteGate(t *testing.T) {
	s, _ := newCrashableService(t, 3, SupervisorConfig{RestartBackoff: time.Millisecond})
	defer s.Close()
	ten := s.Tenant("app")
	keys := shardKeys(s, "app")

	s.pauseWrites()
	for _, i := range []int{0, 1} {
		if err := s.CrashShard(i); err != nil {
			t.Fatal(err)
		}
	}
	put := make(chan error, 1)
	go func() { put <- ten.Put(keys[2], []byte("x")) }()
	// Both workers are past their backoff once they report restarting;
	// the reopen is quick, so they soon wait for the gate.
	deadline := time.Now().Add(5 * time.Second)
	for s.ShardStatuses()[0].State == "down" || s.ShardStatuses()[1].State == "down" {
		if time.Now().After(deadline) {
			t.Fatalf("restart workers never started: %+v", s.ShardStatuses())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	for _, i := range []int{0, 1} {
		if st := s.ShardStatuses()[i]; st.State == "up" {
			t.Fatalf("shard %d swapped in while the gate was held", i)
		}
	}
	select {
	case err := <-put:
		t.Fatalf("a put landed while the gate was held (err %v)", err)
	default:
	}
	s.resumeWrites()
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	waitShardUp(t, s, 0)
	waitShardUp(t, s, 1)
}
