package robustness

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"lsmio/internal/core"
	"lsmio/internal/obs"
	"lsmio/internal/pfs"
	"lsmio/internal/resil"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/svc"
)

// service_test.go is the multi-tenant service robustness sweep: a
// tenant crashing mid-commit must not hurt its neighbors or its own
// committed checkpoints, and quota exhaustion must surface as a typed
// retryable error the shared resil policy can drive to success.

const (
	svcTenants = 3
	svcBlocks  = 12
	svcBlockSz = 64 << 10
)

// svcHarness is one simulated service deployment: a shard pool hosted
// on a Lustre-like cluster, fronted over its fabric.
type svcHarness struct {
	k       *sim.Kernel
	rt      rt.Runtime
	cluster *pfs.Cluster
	reg     *obs.Registry
	s       *svc.Service
	front   *svc.Front
}

// newSvcHarness builds the service on a fresh cluster: svcTenants
// client nodes and one server node per shard.
func newSvcHarness(t *testing.T, shards int, adm svc.AdmissionConfig) *svcHarness {
	t.Helper()
	h := &svcHarness{k: sim.NewKernel()}
	rtm := rt.Sim(h.k)
	h.rt, h.reg = rtm, obs.NewRegistryOn(rtm.Now)
	h.cluster = pfs.NewCluster(h.k, pfs.VikingConfig(svcTenants+shards))
	var err error
	h.k.Spawn("setup", func(p *sim.Proc) {
		h.s, err = svc.New(svc.Options{
			Shards: shards,
			OpenShard: func(i int) (*core.Manager, error) {
				return core.NewManager(fmt.Sprintf("svc/shard%03d", i), core.ManagerOptions{
					Store: core.StoreOptions{
						FS:    h.cluster.Client(svcTenants + i),
						Async: true,
					},
					Runtime: rtm,
					Obs:     h.reg,
				})
			},
			Runtime:   rtm,
			Obs:       h.reg,
			Admission: adm,
		})
		if err != nil {
			return
		}
		nodes := make([]int, shards)
		for i := range nodes {
			nodes[i] = svcTenants + i
		}
		h.front = svc.NewFront(h.s, h.cluster.Fabric(), nodes, svc.FrontOptions{})
	})
	if runErr := h.k.Run(); runErr != nil {
		t.Fatalf("setup run: %v", runErr)
	}
	if err != nil {
		t.Fatalf("service setup: %v", err)
	}
	return h
}

func svcPayload(tenant, step, block int) []byte {
	b := make([]byte, svcBlockSz)
	for i := range b {
		b[i] = byte(i + tenant*31 + step*7 + block*13)
	}
	return b
}

func svcKey(step, block int) string {
	return fmt.Sprintf("step%03d/block%03d", step, block)
}

// TestServiceTenantCrashMidCommit kills one tenant halfway through a
// checkpoint step (no barrier, no close). The neighbors' commits and
// the victim's own earlier barriered step must survive, and a
// reconnected client for the crashed tenant must be able to resume.
func TestServiceTenantCrashMidCommit(t *testing.T) {
	h := newSvcHarness(t, 3, svc.AdmissionConfig{})
	errs := make([]error, svcTenants)
	for tn := 0; tn < svcTenants; tn++ {
		tn := tn
		h.k.Spawn(fmt.Sprintf("tenant%d", tn), func(p *sim.Proc) {
			c := h.front.Connect(fmt.Sprintf("tenant%d", tn), tn)
			for step := 0; step < 2; step++ {
				for b := 0; b < svcBlocks; b++ {
					if tn == 0 && step == 1 && b == svcBlocks/2 {
						return // crash mid-commit: half a step sent, no barrier
					}
					if err := c.Put(svcKey(step, b), svcPayload(tn, step, b)); err != nil {
						errs[tn] = err
						return
					}
				}
				if err := c.Barrier(); err != nil {
					errs[tn] = err
					return
				}
			}
		})
	}
	if err := h.k.Run(); err != nil {
		t.Fatalf("load run: %v", err)
	}
	for tn, err := range errs {
		if err != nil {
			t.Fatalf("tenant %d: %v", tn, err)
		}
	}

	var verifyErr error
	h.k.Spawn("verify", func(p *sim.Proc) {
		defer func() {
			if verifyErr == nil {
				verifyErr = h.s.Close()
			}
		}()
		// Survivors: every block of both steps, exact payloads.
		for tn := 1; tn < svcTenants; tn++ {
			c := h.front.Connect(fmt.Sprintf("tenant%d", tn), tn)
			for step := 0; step < 2; step++ {
				for b := 0; b < svcBlocks; b++ {
					v, err := c.Get(svcKey(step, b))
					if err != nil {
						verifyErr = fmt.Errorf("tenant %d %s: %w", tn, svcKey(step, b), err)
						return
					}
					if !bytes.Equal(v, svcPayload(tn, step, b)) {
						verifyErr = fmt.Errorf("tenant %d %s: corrupt payload", tn, svcKey(step, b))
						return
					}
				}
			}
		}
		// The crashed tenant reconnects: its barriered step 0 is intact
		// and the service accepts new commits from it.
		c := h.front.Connect("tenant0", 0)
		for b := 0; b < svcBlocks; b++ {
			v, err := c.Get(svcKey(0, b))
			if err != nil {
				verifyErr = fmt.Errorf("crashed tenant step0 %s: %w", svcKey(0, b), err)
				return
			}
			if !bytes.Equal(v, svcPayload(0, 0, b)) {
				verifyErr = fmt.Errorf("crashed tenant step0 %s: corrupt payload", svcKey(0, b))
				return
			}
		}
		if err := c.Put("resume", []byte("ok")); err != nil {
			verifyErr = fmt.Errorf("resume put: %w", err)
			return
		}
		if err := c.Barrier(); err != nil {
			verifyErr = fmt.Errorf("resume barrier: %w", err)
			return
		}
	})
	if err := h.k.Run(); err != nil {
		t.Fatalf("verify run: %v", err)
	}
	if verifyErr != nil {
		t.Fatal(verifyErr)
	}
}

// TestServiceQuotaExhaustionRetry floods a tightly capped tenant until
// admission rejects, then shows the rejection is a typed, transient,
// retryable error: resil.Classify maps it to ClassTransient, RetryAfter
// is advertised, and the shared retry policy drives the same request to
// success once the bucket drains.
func TestServiceQuotaExhaustionRetry(t *testing.T) {
	h := newSvcHarness(t, 2, svc.AdmissionConfig{
		CapacityBytesPerSec: 4 << 20,
		MaxWait:             time.Millisecond,
	})
	var qe *svc.QuotaError
	var retryErr error
	retries := 0
	h.k.Spawn("greedy", func(p *sim.Proc) {
		c := h.front.Connect("greedy", 0)
		payload := svcPayload(0, 0, 0)
		var err error
		for i := 0; i < 4096; i++ {
			if err = c.Put(svcKey(0, i), payload); err != nil {
				break
			}
		}
		if !errors.As(err, &qe) {
			retryErr = fmt.Errorf("flood never hit the quota (last err: %v)", err)
			return
		}
		if cls := resil.Classify(err); cls != resil.ClassTransient {
			retryErr = fmt.Errorf("quota rejection classified %v, want transient", cls)
			return
		}
		if qe.RetryAfter <= 0 {
			retryErr = fmt.Errorf("quota rejection advertises no retry delay: %+v", qe)
			return
		}
		// The unified retry policy turns the advertised backoff into an
		// eventual admit without any service-specific handling.
		pol := resil.Policy{MaxRetries: 64, BaseDelay: qe.RetryAfter, MaxDelay: qe.RetryAfter}
		retryErr = pol.Do(nil, h.rt, 1, func(attempt int) error {
			if attempt > 0 {
				retries = attempt
			}
			return c.Put("after-quota", payload)
		})
		if retryErr == nil {
			retryErr = c.Barrier()
		}
	})
	if err := h.k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if retryErr != nil {
		t.Fatal(retryErr)
	}
	if retries == 0 {
		t.Fatal("retry policy succeeded without ever backing off")
	}
	if h.reg.Snapshot().Counters["svc.tenant.greedy.quota_rejects"] == 0 {
		t.Fatal("quota_rejects counter never incremented")
	}
}
