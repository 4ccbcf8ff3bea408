package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"lsmio/internal/lsm"
	"lsmio/internal/netsim"
	"lsmio/internal/pfs"
	"lsmio/internal/resil"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

// TestCollectiveGroupSharedStore exercises the §5.1 collective mode: four
// ranks share one leader-hosted store; after the barrier, every rank's
// data is present and readable from any rank.
func TestCollectiveGroupSharedStore(t *testing.T) {
	const ranks = 4
	k := sim.NewKernel()
	rtm := rt.Sim(k)
	cluster := pfs.NewCluster(k, pfs.VikingConfig(ranks))

	var svc *KVService
	var leaderStore Store

	// Leader setup runs first, in its own process.
	k.Spawn("setup", func(p *sim.Proc) {
		var err error
		leaderStore, err = OpenStore("shared-db", StoreOptions{
			FS:      cluster.Client(0),
			Runtime: rtm,
			Async:   true,
		})
		if err != nil {
			t.Error(err)
			return
		}
		svc = NewKVService(k, cluster.Fabric(), 0, leaderStore)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if svc == nil {
		t.Fatal("setup failed")
	}

	done := make([]bool, ranks)
	for r := 0; r < ranks; r++ {
		r := r
		k.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			var st Store
			if r == 0 {
				st = leaderStore
			} else {
				st = svc.Connect(r)
			}
			mgr, err := NewManager("", ManagerOptions{Runtime: rtm, Remote: st})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("rank%d/key%02d", r, i)
				if err := mgr.Put(key, bytes.Repeat([]byte{byte(r)}, 256)); err != nil {
					t.Error(err)
					return
				}
			}
			if err := mgr.WriteBarrier(); err != nil {
				t.Error(err)
				return
			}
			done[r] = true
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for r, ok := range done {
		if !ok {
			t.Fatalf("rank %d did not finish", r)
		}
	}

	// Cross-rank reads plus shutdown.
	k.Spawn("verify", func(p *sim.Proc) {
		member := svc.Connect(3)
		for r := 0; r < ranks; r++ {
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("rank%d/key%02d", r, i)
				v, err := member.Get(key)
				if err != nil || len(v) != 256 || v[0] != byte(r) {
					t.Errorf("key %s: %v", key, err)
					return
				}
			}
		}
		if svc.Served() == 0 {
			t.Error("service applied no operations")
		}
		svc.Stop()
		if err := leaderStore.Close(); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveBarrierOrdering verifies FIFO semantics: a member's
// barrier completes only after all its earlier puts are applied.
func TestCollectiveBarrierOrdering(t *testing.T) {
	k := sim.NewKernel()
	rtm := rt.Sim(k)
	fabric := netsim.New(k, netsim.DefaultConfig(2))
	var put, served int64
	k.Spawn("main", func(p *sim.Proc) {
		store, err := OpenStore("db", StoreOptions{
			FS:      vfs.NewMemFS(),
			Runtime: rtm,
		})
		if err != nil {
			t.Error(err)
			return
		}
		svc := NewKVService(k, fabric, 0, store)
		member := svc.Connect(1)
		for i := 0; i < 50; i++ {
			member.Put(fmt.Sprintf("k%02d", i), []byte("v"), false)
			put++
		}
		member.WriteBarrier(false)
		served = svc.Served()
		// After the barrier, all 50 puts must already be applied.
		for i := 0; i < 50; i++ {
			if _, err := store.Get(fmt.Sprintf("k%02d", i)); err != nil {
				t.Errorf("k%02d missing after member barrier: %v", i, err)
			}
		}
		svc.Stop()
		store.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if served < put {
		t.Fatalf("barrier returned with %d/%d ops applied", served, put)
	}
}

// faultyStore wraps a Store and fails selected operations with a given
// error, for wire-taxonomy tests.
type faultyStore struct {
	Store
	putErr error
}

func (f *faultyStore) Put(key string, value []byte, sync bool) error {
	if f.putErr != nil {
		return f.putErr
	}
	return f.Store.Put(key, value, sync)
}

type transientErr struct{ msg string }

func (e transientErr) Error() string        { return e.msg }
func (e transientErr) TransientFault() bool { return true }

// TestCollectiveErrorClassRoundTrip is the wire-taxonomy regression: a
// classified error raised at the leader (here a transient quota/stall
// style fault) must come back over the fabric still carrying its resil
// class, not collapsed into a generic failure — and the ErrNotFound
// sentinel must survive the trip too.
func TestCollectiveErrorClassRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	rtm := rt.Sim(k)
	fabric := netsim.New(k, netsim.DefaultConfig(2))
	k.Spawn("main", func(p *sim.Proc) {
		store, err := OpenStore("db", StoreOptions{
			FS:      vfs.NewMemFS(),
			Runtime: rtm,
		})
		if err != nil {
			t.Error(err)
			return
		}
		defer store.Close()
		faulty := &faultyStore{Store: store, putErr: transientErr{msg: "store stalled: admission quota exhausted"}}
		svc := NewKVService(k, fabric, 0, faulty)
		defer svc.Stop()
		member := svc.Connect(1)

		err = member.Put("k", []byte("v"), true)
		if err == nil {
			t.Error("expected the leader's put error to round-trip")
			return
		}
		if got := resil.Classify(err); got != resil.ClassTransient {
			t.Errorf("round-tripped error classified %v, want transient (err: %v)", got, err)
		}
		var ce *resil.ClassError
		if !errors.As(err, &ce) || ce.Msg == "" {
			t.Errorf("expected a resil.ClassError with the leader's message, got %T %v", err, err)
		}

		// The miss sentinel also survives the wire.
		if _, err := member.Get("absent"); !errors.Is(err, ErrNotFound) {
			t.Errorf("remote miss returned %v, want ErrNotFound", err)
		}

		// A fatal-class error stays fatal.
		faulty.putErr = errors.New("corrupt block")
		if err := member.Put("k2", nil, true); resil.Classify(err) != resil.ClassFatal {
			t.Errorf("fatal error came back as %v", resil.Classify(err))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteStoreClose verifies the connection lifecycle: Close releases
// the member's connection and every later call — including a second
// Close — reports ErrClosed instead of silently succeeding.
func TestRemoteStoreClose(t *testing.T) {
	k := sim.NewKernel()
	rtm := rt.Sim(k)
	fabric := netsim.New(k, netsim.DefaultConfig(2))
	k.Spawn("main", func(p *sim.Proc) {
		store, err := OpenStore("db", StoreOptions{
			FS:      vfs.NewMemFS(),
			Runtime: rtm,
		})
		if err != nil {
			t.Error(err)
			return
		}
		defer store.Close()
		svc := NewKVService(k, fabric, 0, store)
		defer svc.Stop()

		member := svc.Connect(1)
		if got := svc.Conns(); got != 1 {
			t.Errorf("Conns() = %d after Connect, want 1", got)
		}
		if err := member.StartBatch(); err != nil {
			t.Errorf("StartBatch on live connection: %v", err)
		}
		if err := member.Put("k", []byte("v"), false); err != nil {
			t.Errorf("Put on live connection: %v", err)
		}
		if err := member.Close(); err != nil {
			t.Errorf("first Close: %v", err)
		}
		if got := svc.Conns(); got != 0 {
			t.Errorf("Conns() = %d after Close, want 0", got)
		}
		if err := member.Close(); !errors.Is(err, ErrClosed) {
			t.Errorf("second Close = %v, want ErrClosed", err)
		}
		if err := member.Put("k", []byte("v"), false); !errors.Is(err, ErrClosed) {
			t.Errorf("Put after Close = %v, want ErrClosed", err)
		}
		if _, err := member.Get("k"); !errors.Is(err, ErrClosed) {
			t.Errorf("Get after Close = %v, want ErrClosed", err)
		}
		if err := member.StartBatch(); !errors.Is(err, ErrClosed) {
			t.Errorf("StartBatch after Close = %v, want ErrClosed", err)
		}
		if err := member.StopBatch(); !errors.Is(err, ErrClosed) {
			t.Errorf("StopBatch after Close = %v, want ErrClosed", err)
		}
		if err := member.WriteBarrier(true); !errors.Is(err, ErrClosed) {
			t.Errorf("WriteBarrier after Close = %v, want ErrClosed", err)
		}
		if s := member.EngineStats(); s != (lsm.Stats{}) {
			t.Errorf("EngineStats after Close = %+v, want zero", s)
		}
		// A fresh connection still works: the service survived.
		again := svc.Connect(1)
		if _, err := again.Get("k"); err != nil {
			t.Errorf("Get on fresh connection: %v", err)
		}
		if err := again.Close(); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
