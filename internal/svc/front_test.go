package svc

import (
	"bytes"
	"errors"
	"fmt"
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

// newSimService builds a simulator-mode service plus its fabric front:
// client nodes [0, clients), shard nodes [clients, clients+shards).
// Must be called from a simulation process.
func newSimService(t *testing.T, k *sim.Kernel, shards, clients int, adm AdmissionConfig) (*Service, *Front) {
	rtm := rt.Sim(k)
	t.Helper()
	reg := obs.NewRegistryOn(rtm.Now)
	fabric := netsim.New(k, netsim.DefaultConfig(clients+shards))
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
		Runtime:   rtm,
		Obs:       reg,
		Admission: adm,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, shards)
	for i := range nodes {
		nodes[i] = clients + i
	}
	return s, NewFront(s, fabric, nodes, FrontOptions{})
}

func TestFrontBasic(t *testing.T) {
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		s, f := newSimService(t, k, 2, 2, AdmissionConfig{})
		defer s.Close()
		a := f.Connect("app-a", 0)
		b := f.Connect("app-b", 1)
		if got := s.reg.Gauge("svc.conns").Load(); got != 2 {
			t.Errorf("svc.conns = %d, want 2", got)
		}
		if err := s.Tenant("app-a").Close(); err != nil {
			t.Fatal(err)
		}
		if got := s.reg.Gauge("svc.conns").Load(); got != 2 {
			t.Errorf("svc.conns = %d after closing an in-process client, want 2", got)
		}
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("step000/block%03d", i)
			if err := a.Put(key, []byte(fmt.Sprintf("a%03d", i))); err != nil {
				t.Fatal(err)
			}
			if err := b.Put(key, []byte(fmt.Sprintf("b%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Barrier(); err != nil {
			t.Fatal(err)
		}
		if err := b.Barrier(); err != nil {
			t.Fatal(err)
		}
		v, err := a.Get("step000/block011")
		if err != nil || string(v) != "a011" {
			t.Fatalf("tenant a read %q, %v", v, err)
		}
		v, err = b.Get("step000/block011")
		if err != nil || string(v) != "b011" {
			t.Fatalf("tenant b read %q, %v", v, err)
		}
		if _, err := a.Get("absent"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("miss over fabric = %v, want ErrNotFound", err)
		}
		count := 0
		if err := a.Scan("step000/", func(k string, v []byte) bool {
			if !bytes.HasPrefix(v, []byte("a")) {
				t.Fatalf("scan leaked foreign value %q", v)
			}
			count++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if count != 40 {
			t.Fatalf("scan found %d keys, want 40", count)
		}
		if err := a.Del("step000/block011"); err != nil {
			t.Fatal(err)
		}
		if err := a.Barrier(); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Get("step000/block011"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key still readable: %v", err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := a.Put("x", nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("Put on closed client = %v, want ErrClosed", err)
		}
		// Both shards saw traffic (the hash spread the namespaces).
		s0 := s.reg.Counter("svc.shard.000.ops").Load()
		s1 := s.reg.Counter("svc.shard.001.ops").Load()
		if s0 == 0 || s1 == 0 {
			t.Errorf("shard ops skewed: %d / %d", s0, s1)
		}
		f.Stop(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// faultyBarrierStore fails WriteBarrier with a transient fault, for
// the wire-taxonomy regression over the sharded front.
type faultyBarrierStore struct {
	core.Store
	fail error
}

func (f *faultyBarrierStore) WriteBarrier(sync bool) error {
	if f.fail != nil {
		return f.fail
	}
	return f.Store.WriteBarrier(sync)
}

type stallErr struct{}

func (stallErr) Error() string        { return "svc-test: engine stalled" }
func (stallErr) TransientFault() bool { return true }

// TestFrontErrorClassRoundTrip: a transient stall raised inside a
// shard store must reach the fabric client still classified transient
// (as a resil.ClassError), not collapsed into a generic failure.
func TestFrontErrorClassRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	rtm := rt.Sim(k)
	k.Spawn("main", func(p *sim.Proc) {
		reg := obs.NewRegistryOn(rtm.Now)
		fabric := netsim.New(k, netsim.DefaultConfig(2))
		var faulty *faultyBarrierStore
		s, err := New(Options{
			Shards: 1,
			OpenShard: func(i int) (*core.Manager, error) {
				st, err := core.OpenStore("store", core.StoreOptions{
					FS:      vfs.NewMemFS(),
					Runtime: rtm,
					Async:   true,
					Obs:     reg,
				})
				if err != nil {
					return nil, err
				}
				faulty = &faultyBarrierStore{Store: st}
				return core.NewManager("", core.ManagerOptions{Runtime: rtm, Remote: faulty, Obs: reg})
			},
			Runtime: rtm,
			Obs:     reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		f := NewFront(s, fabric, []int{1}, FrontOptions{})
		c := f.Connect("app", 0)
		if err := c.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		faulty.fail = stallErr{}
		err = c.Barrier()
		if err == nil {
			t.Fatal("expected the shard's barrier fault to round-trip")
		}
		if got := resil.Classify(err); got != resil.ClassTransient {
			t.Fatalf("round-tripped error classified %v, want transient (err: %v)", got, err)
		}
		var ce *resil.ClassError
		if !errors.As(err, &ce) || ce.Msg == "" {
			t.Fatalf("want a resil.ClassError carrying the shard's message, got %T %v", err, err)
		}
		faulty.fail = nil
		if err := c.Barrier(); err != nil {
			t.Fatalf("barrier after fault cleared: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFrontFairShareIsolation is the admission headline in miniature:
// with a shared byte capacity, a flooding tenant is paced at its share
// while a polite tenant's requests see negligible admission wait.
func TestFrontFairShareIsolation(t *testing.T) {
	k := sim.NewKernel()
	var s *Service
	var f *Front
	k.Spawn("setup", func(p *sim.Proc) {
		s, f = newSimService(t, k, 2, 2, AdmissionConfig{
			CapacityBytesPerSec: 64 << 20,
			MaxWait:             time.Second,
		})
		if _, err := s.RegisterTenant("noisy", TenantConfig{Weight: 1}); err != nil {
			t.Error(err)
		}
		if _, err := s.RegisterTenant("polite", TenantConfig{Weight: 1}); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s == nil || t.Failed() {
		t.Fatal("setup failed")
	}
	done := 0
	k.Spawn("noisy", func(p *sim.Proc) {
		c := f.Connect("noisy", 0)
		for i := 0; i < 100; i++ {
			if err := c.Put(fmt.Sprintf("n%04d", i), make([]byte, 1<<20)); err != nil {
				var qe *QuotaError
				if errors.As(err, &qe) {
					p.Sleep(qe.RetryAfter)
					i--
					continue
				}
				t.Errorf("noisy put: %v", err)
				return
			}
		}
		done++
	})
	k.Spawn("polite", func(p *sim.Proc) {
		c := f.Connect("polite", 1)
		for i := 0; i < 50; i++ {
			if err := c.Put(fmt.Sprintf("p%04d", i), make([]byte, 64<<10)); err != nil {
				t.Errorf("polite put: %v", err)
				return
			}
			p.Sleep(2 * time.Millisecond)
		}
		done++
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("only %d/2 tenants completed", done)
	}
	noisyW := s.reg.Histogram("svc.tenant.noisy.admission_wait_ns").Snapshot().Quantile(0.99)
	politeW := s.reg.Histogram("svc.tenant.polite.admission_wait_ns").Snapshot().Quantile(0.99)
	if politeW >= noisyW {
		t.Fatalf("polite p99 admission wait %v not below noisy %v", politeW, noisyW)
	}
	// The polite tenant's demand (~1.6 MB/s) is far below its 32 MB/s
	// share: its requests should be admitted essentially immediately.
	if politeW > int64(time.Millisecond) {
		t.Fatalf("polite tenant waited %v at p99; fair share failed to isolate it", politeW)
	}
	k.Spawn("teardown", func(p *sim.Proc) { s.Close() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
