package svc

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lsmio/internal/core"
	"lsmio/internal/netsim"
	"lsmio/internal/obs"
	"lsmio/internal/resil"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

// tenantAPI is the operation set both of a tenant's clients offer.
type tenantAPI interface {
	Put(key string, value []byte) error
	Del(key string) error
	Get(key string) ([]byte, error)
	Scan(prefix string, fn func(key string, value []byte) bool) error
	Barrier() error
}

// agreementService builds a two-shard service on rtm with supervision
// off (a crashed shard stays down) and a "greedy" tenant whose byte cap
// one 128 KiB put exhausts for the rest of the run.
func agreementService(t *testing.T, rtm rt.Runtime) *Service {
	reg := obs.NewRegistryOn(rtm.Now)
	s, err := New(Options{
		Shards: 2,
		OpenShard: func(int) (*core.Manager, error) {
			return core.NewManager("store", core.ManagerOptions{
				Store:   core.StoreOptions{FS: vfs.NewMemFS(), Async: true},
				Runtime: rtm,
				Obs:     reg,
			})
		},
		Runtime:    rtm,
		Obs:        reg,
		Supervisor: SupervisorConfig{Disabled: true},
	})
	if err != nil {
		t.Error(err)
		return nil
	}
	if _, err := s.RegisterTenant("greedy", TenantConfig{Weight: 1, BytesPerSec: 1, BurstBytes: 64 << 10}); err != nil {
		t.Error(err)
	}
	return s
}

// errShape describes err by what a caller can test: its resil class,
// the sentinels and the typed errors with their fields.
func errShape(err error) string {
	if err == nil {
		return "ok"
	}
	shape := fmt.Sprintf("class=%v notfound=%v closed=%v",
		resil.Classify(err), errors.Is(err, ErrNotFound), errors.Is(err, ErrClosed))
	var qe *QuotaError
	if errors.As(err, &qe) {
		shape += " quota(" + qe.Tenant + ")"
	}
	var sde *ShardDownError
	if errors.As(err, &sde) {
		shape += fmt.Sprintf(" down(shard=%d state=%s)", sde.Shard, sde.State)
	}
	return shape
}

// agreementScript runs one program through app and greedy, returning
// one line per step: the values or scan pairs it saw and its error's
// shape. It leaves out the one difference between the transports: a
// failed asynchronous Put is reported by the Put in-process but by the
// next Barrier (WriteLossError) over the fabric, so no Put here targets
// a crashed shard.
func agreementScript(s *Service, app, greedy tenantAPI) []string {
	var out []string
	step := func(name, seen string, err error) {
		out = append(out, fmt.Sprintf("%s: %s %s", name, seen, errShape(err)))
	}
	get := func(key string) {
		v, err := app.Get(key)
		step("get "+key, fmt.Sprintf("%q", v), err)
	}
	scan := func(prefix string, limit int) {
		var pairs []string
		err := app.Scan(prefix, func(k string, v []byte) bool {
			pairs = append(pairs, k+"="+string(v))
			return len(pairs) < limit
		})
		step(fmt.Sprintf("scan %q limit %d", prefix, limit), strings.Join(pairs, ","), err)
	}
	keys := shardKeys(s, "app") // keys[i] routes to shard i

	step("put ck/a", "", app.Put("ck/a", []byte("1")))
	step("put ck/b", "", app.Put("ck/b", []byte("2")))
	step("overwrite ck/a", "", app.Put("ck/a", []byte("3")))
	step("put other/x", "", app.Put("other/x", []byte("x")))
	for i, k := range keys {
		step("put "+k, "", app.Put(k, []byte(fmt.Sprintf("shard%d", i))))
	}
	step("del ck/b", "", app.Del("ck/b"))
	step("barrier", "", app.Barrier())
	get("ck/a")
	get("ck/b")
	get("ck/missing")
	scan("ck/", 10)
	scan("", 10)
	scan("", 2)
	step("barrier", "", app.Barrier())

	step("greedy put 128KiB", "", greedy.Put("big", make([]byte, 128<<10)))
	step("greedy put 1B", "", greedy.Put("small", []byte("s")))

	if err := s.CrashShard(0); err != nil {
		step("crash shard 0", "", err)
	}
	get(keys[0])
	get(keys[1])
	step("barrier", "", app.Barrier())

	step("close service", "", s.Close())
	step("put after close", "", app.Put("late", []byte("l")))
	step("del after close", "", app.Del("ck/a"))
	get("ck/a")
	scan("", 10)
	step("barrier after close", "", app.Barrier())
	return out
}

// TestTransportsAgree runs one program through an in-process Tenant (on
// the real runtime) and through a fault-free fabric Client (on the
// simulator): every step must see the same values, the same scan pairs
// and the same error shape.
func TestTransportsAgree(t *testing.T) {
	local := agreementService(t, rt.Real())
	if local == nil {
		t.FailNow()
	}
	inProc := agreementScript(local, local.Tenant("app"), local.Tenant("greedy"))

	var fabric []string
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		s := agreementService(t, rt.Sim(k))
		if s == nil {
			return
		}
		f := NewFront(s, netsim.New(k, netsim.DefaultConfig(4)), []int{2, 3}, FrontOptions{})
		fabric = agreementScript(s, f.Connect("app", 0), f.Connect("greedy", 1))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	if len(inProc) != len(fabric) {
		t.Fatalf("in-process ran %d steps, fabric %d", len(inProc), len(fabric))
	}
	for i := range inProc {
		if inProc[i] != fabric[i] {
			t.Errorf("step %d differs:\n  in-process %s\n  fabric     %s", i, inProc[i], fabric[i])
		}
	}
	// Agreement on a wrong answer is no agreement: pin the steps that
	// carry the semantics.
	for _, want := range []string{
		`get ck/a: "3" ok`,
		`get ck/b: "" class=fatal notfound=true closed=false`,
		`scan "ck/" limit 10: ck/a=3 ok`,
		`scan "" limit 2: ck/a=3,other/x=x ok`,
		`greedy put 1B:  class=transient notfound=false closed=false quota(greedy)`,
		`down(shard=0 state=down)`,
		`barrier after close:  class=fatal notfound=false closed=true`,
	} {
		found := false
		for _, line := range inProc {
			found = found || strings.Contains(line, want)
		}
		if !found {
			t.Errorf("no step shows %q; in-process transcript:\n%s", want, strings.Join(inProc, "\n"))
		}
	}
}
