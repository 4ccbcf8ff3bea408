package svc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lsmio/internal/core"
	"lsmio/internal/obs"
	"lsmio/internal/resil"
	"lsmio/internal/vfs"
)

// newLocalService builds a goroutine-mode service: every shard on its
// own MemFS, one shared registry, optional manifest filesystem.
func newLocalService(t *testing.T, shards int, adm AdmissionConfig, mfs vfs.FS) *Service {
	t.Helper()
	reg := obs.NewRegistry()
	s, err := New(Options{
		Shards: shards,
		OpenShard: func(i int) (*core.Manager, error) {
			return core.NewManager("store", core.ManagerOptions{
				Store: core.StoreOptions{FS: vfs.NewMemFS(), Async: true},
				Obs:   reg,
			})
		},
		Obs:        reg,
		Admission:  adm,
		ManifestFS: mfs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLocalBasic(t *testing.T) {
	mfs := vfs.NewMemFS()
	s := newLocalService(t, 3, AdmissionConfig{}, mfs)
	defer s.Close()

	a := s.Tenant("app-a")
	b := s.Tenant("app-b")
	for i := 0; i < 50; i++ {
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

	// Tenant namespaces are disjoint: same key, different values.
	v, err := a.Get("step000/block007")
	if err != nil || string(v) != "a007" {
		t.Fatalf("tenant a read %q, %v", v, err)
	}
	v, err = b.Get("step000/block007")
	if err != nil || string(v) != "b007" {
		t.Fatalf("tenant b read %q, %v", v, err)
	}
	if _, err := a.Get("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss returned %v, want ErrNotFound", err)
	}

	// Scan sees only the tenant's own keys, in order, unprefixed.
	var keys []string
	if err := a.Scan("step000/", func(k string, v []byte) bool {
		if !bytes.HasPrefix(v, []byte("a")) {
			t.Fatalf("tenant a scan leaked value %q", v)
		}
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 50 || keys[0] != "step000/block000" || keys[49] != "step000/block049" {
		t.Fatalf("scan returned %d keys (first %q)", len(keys), keys[0])
	}

	if err := a.Del("step000/block007"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get("step000/block007"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key still readable: %v", err)
	}

	// The manifest reflects the layout and tenant table.
	m, err := ReadManifest(mfs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 3 || len(m.Tenants) != 0 {
		// Tenants registered via Tenant() (defaults) only enter the
		// manifest after an explicit RegisterTenant.
		t.Logf("manifest: %+v", m)
	}
	if _, err := s.RegisterTenant("app-a", TenantConfig{Weight: 2}); err != nil {
		t.Fatal(err)
	}
	m, err = ReadManifest(mfs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 3 || len(m.Tenants) == 0 || m.Tenants[0].Weight != 2 {
		t.Fatalf("manifest after register: %+v", m)
	}
}

func writeFile(fs vfs.FS, name string, data []byte) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestReopenWithOtherShardCountRefused: a service directory keeps the
// shard count and the layout version its SERVICE.json records. Under
// another count, or over two shards laid out by the version-1 ring,
// keys would route to shards that do not hold them, so New refuses with
// a *LayoutError; reopening with the recorded count reads every key
// back. A version-1 single-shard directory opens (every key is on shard
// 0 under both versions) and is rewritten as the current version. A
// manifest that still carries the old "epoch" field reads; one that
// does not parse is an error.
func TestReopenWithOtherShardCountRefused(t *testing.T) {
	const n = 200
	fill := func(s *Service) {
		t.Helper()
		tn := s.Tenant("app")
		for i := 0; i < n; i++ {
			if err := tn.Put(fmt.Sprintf("k%04d", i), []byte(fmt.Sprintf("v%04d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tn.Barrier(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	readBack := func(s *Service) {
		t.Helper()
		tn := s.Tenant("app")
		for i := 0; i < n; i++ {
			v, err := tn.Get(fmt.Sprintf("k%04d", i))
			if err != nil || string(v) != fmt.Sprintf("v%04d", i) {
				t.Fatalf("k%04d after reopen: %q %v", i, v, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	refused := func(err error, version, shards, want int) {
		t.Helper()
		var le *LayoutError
		if !errors.As(err, &le) {
			t.Fatalf("want a *LayoutError, got %v", err)
		}
		if le.Version != version || le.Shards != shards || le.Want != want {
			t.Fatalf("refusal %+v, want version %d, %d shard(s), asked %d", *le, version, shards, want)
		}
	}

	mfs := vfs.NewMemFS()
	shardFS := []vfs.FS{vfs.NewMemFS(), vfs.NewMemFS(), vfs.NewMemFS()}
	open := func(n int) (*Service, error) {
		return New(Options{
			Shards: n,
			OpenShard: func(i int) (*core.Manager, error) {
				return core.NewManager("store", core.ManagerOptions{
					Store: core.StoreOptions{FS: shardFS[i], Async: true},
				})
			},
			ManifestFS: mfs,
		})
	}
	s, err := open(2)
	if err != nil {
		t.Fatal(err)
	}
	fill(s)

	s, err = open(3)
	if err == nil {
		s.Close()
		t.Fatal("reopening a 2-shard directory with 3 shards succeeded")
	}
	refused(err, manifestVersion, 2, 3)
	if !strings.Contains(err.Error(), "2 shard") || !strings.Contains(err.Error(), "3") {
		t.Fatalf("refusal does not name both shard counts: %v", err)
	}

	if err := writeFile(mfs, ManifestName, []byte(`{"version": 1, "shards": 2}`)); err != nil {
		t.Fatal(err)
	}
	s, err = open(2)
	if err == nil {
		s.Close()
		t.Fatal("a version-1 2-shard directory was opened")
	}
	refused(err, 1, 2, 2)

	old := []byte(fmt.Sprintf(`{"version": %d, "shards": 2, "epoch": 0}`, manifestVersion))
	if err := writeFile(mfs, ManifestName, old); err != nil {
		t.Fatal(err)
	}
	s, err = open(2)
	if err != nil {
		t.Fatalf("reopen with the recorded count: %v", err)
	}
	readBack(s)

	if err := writeFile(mfs, ManifestName, []byte("{")); err != nil {
		t.Fatal(err)
	}
	if s, err := open(2); err == nil {
		s.Close()
		t.Fatal("an unparseable SERVICE.json was accepted")
	}

	mfs = vfs.NewMemFS()
	shardFS[0] = vfs.NewMemFS()
	if s, err = open(1); err != nil {
		t.Fatal(err)
	}
	fill(s)
	if err := writeFile(mfs, ManifestName, []byte(`{"version": 1, "shards": 1}`)); err != nil {
		t.Fatal(err)
	}
	if s, err = open(1); err != nil {
		t.Fatalf("reopen a version-1 single-shard directory: %v", err)
	}
	readBack(s)
	if m, err := ReadManifest(mfs); err != nil || m.Version != manifestVersion {
		t.Fatalf("manifest after reopen: version %d, %v; want %d", m.Version, err, manifestVersion)
	}
}

// TestConcurrentTenants drives N goroutine tenants into a shared shard
// pool; with -race this is the data-race regression for the service
// core.
func TestConcurrentTenants(t *testing.T) {
	s := newLocalService(t, 2, AdmissionConfig{}, nil)
	defer s.Close()
	const tenants, puts = 8, 120
	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for ti := 0; ti < tenants; ti++ {
		ti := ti
		wg.Add(1)
		go func() {
			defer wg.Done()
			tn := s.Tenant(fmt.Sprintf("tenant%d", ti))
			for i := 0; i < puts; i++ {
				if err := tn.Put(fmt.Sprintf("k%04d", i), bytes.Repeat([]byte{byte(ti)}, 128)); err != nil {
					errs <- err
					return
				}
			}
			if err := tn.Barrier(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for ti := 0; ti < tenants; ti++ {
		tn := s.Tenant(fmt.Sprintf("tenant%d", ti))
		count := 0
		if err := tn.Scan("", func(k string, v []byte) bool {
			if len(v) != 128 || v[0] != byte(ti) {
				t.Fatalf("tenant %d key %s holds foreign value", ti, k)
			}
			count++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if count != puts {
			t.Fatalf("tenant %d has %d keys, want %d", ti, count, puts)
		}
	}
}

func TestQuotaExhaustion(t *testing.T) {
	s := newLocalService(t, 1, AdmissionConfig{
		CapacityBytesPerSec: 1 << 20, // 1 MB/s
		MaxWait:             20 * time.Millisecond,
	}, nil)
	defer s.Close()
	if _, err := s.RegisterTenant("greedy", TenantConfig{Weight: 1, BurstBytes: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	tn := s.Tenant("greedy")
	var qe *QuotaError
	var last error
	for i := 0; i < 64 && qe == nil; i++ {
		last = tn.Put(fmt.Sprintf("k%d", i), make([]byte, 32<<10))
		errors.As(last, &qe)
	}
	if qe == nil {
		t.Fatal("quota never exhausted")
	}
	if got := resil.Classify(last); got != resil.ClassTransient {
		t.Fatalf("QuotaError classified %v, want transient", got)
	}
	if qe.RetryAfter <= 0 || qe.Tenant != "greedy" {
		t.Fatalf("unexpected QuotaError: %+v", qe)
	}
	if s.reg.Counter("svc.tenant.greedy.quota_rejects").Load() == 0 {
		t.Fatal("rejects counter not incremented")
	}
}

// TestQuotaRejectChargesNothing: a request admission rejects does not
// run, so it adds one to its tenant's quota_rejects and nothing to its
// ops or bytes_in.
func TestQuotaRejectChargesNothing(t *testing.T) {
	s := newLocalService(t, 1, AdmissionConfig{
		CapacityBytesPerSec: 1 << 20,
		MaxWait:             20 * time.Millisecond,
	}, nil)
	defer s.Close()
	if _, err := s.RegisterTenant("greedy", TenantConfig{Weight: 1, BurstBytes: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	tn := s.Tenant("greedy")
	counter := func(name string) int64 { return s.reg.Counter("svc.tenant.greedy." + name).Load() }
	var qe *QuotaError
	for i := 0; i < 64 && qe == nil; i++ {
		ops, in, rejects := counter("ops"), counter("bytes_in"), counter("quota_rejects")
		err := tn.Put(fmt.Sprintf("k%d", i), make([]byte, 32<<10))
		if !errors.As(err, &qe) {
			if err != nil {
				t.Fatal(err)
			}
			if counter("ops") != ops+1 || counter("bytes_in") != in+32<<10 || counter("quota_rejects") != rejects {
				t.Fatalf("admitted put %d: ops %d -> %d, bytes_in %d -> %d, quota_rejects %d -> %d",
					i, ops, counter("ops"), in, counter("bytes_in"), rejects, counter("quota_rejects"))
			}
			continue
		}
		if counter("ops") != ops || counter("bytes_in") != in || counter("quota_rejects") != rejects+1 {
			t.Fatalf("rejected put %d: ops %d -> %d, bytes_in %d -> %d, quota_rejects %d -> %d",
				i, ops, counter("ops"), in, counter("bytes_in"), rejects, counter("quota_rejects"))
		}
	}
	if qe == nil {
		t.Fatal("quota never exhausted")
	}
}

// TestFairShareWeights verifies the admission math directly: with a
// shared capacity, a weight-3 tenant gets three times the byte rate of
// a weight-1 tenant.
func TestFairShareWeights(t *testing.T) {
	s := newLocalService(t, 1, AdmissionConfig{CapacityBytesPerSec: 4 << 20}, nil)
	defer s.Close()
	if _, err := s.RegisterTenant("heavy", TenantConfig{Weight: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterTenant("light", TenantConfig{Weight: 1}); err != nil {
		t.Fatal(err)
	}
	s.adm.mu.Lock()
	heavy := s.adm.tenants["heavy"].bytesB.rate
	light := s.adm.tenants["light"].bytesB.rate
	s.adm.mu.Unlock()
	if heavy != 3<<20 || light != 1<<20 {
		t.Fatalf("rates heavy=%v light=%v, want 3MiB/1MiB split", heavy, light)
	}
	// A hard cap tightens the share, never loosens it.
	if _, err := s.RegisterTenant("heavy", TenantConfig{Weight: 3, BytesPerSec: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	s.adm.mu.Lock()
	capped := s.adm.tenants["heavy"].bytesB.rate
	s.adm.mu.Unlock()
	if capped != 1<<20 {
		t.Fatalf("hard cap ignored: rate=%v", capped)
	}
}

// TestZeroWeightTenant: a zero (or negative) Weight means weight 1,
// never a zero share — a misconfigured tenant must still be admitted,
// and must not poison the shared-capacity split for everyone else.
func TestZeroWeightTenant(t *testing.T) {
	s := newLocalService(t, 1, AdmissionConfig{CapacityBytesPerSec: 4 << 20}, nil)
	defer s.Close()
	if _, err := s.RegisterTenant("zero", TenantConfig{Weight: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterTenant("neg", TenantConfig{Weight: -2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterTenant("one", TenantConfig{Weight: 1}); err != nil {
		t.Fatal(err)
	}
	s.adm.mu.Lock()
	zero := s.adm.tenants["zero"].bytesB.rate
	neg := s.adm.tenants["neg"].bytesB.rate
	one := s.adm.tenants["one"].bytesB.rate
	s.adm.mu.Unlock()
	if zero != one || neg != one {
		t.Fatalf("rates zero=%v neg=%v one=%v, want an even three-way split", zero, neg, one)
	}
	if zero <= 0 {
		t.Fatalf("zero-weight tenant got rate %v", zero)
	}
	if err := s.Tenant("zero").Put("k", []byte("v")); err != nil {
		t.Fatalf("zero-weight tenant rejected: %v", err)
	}
}

func TestServiceClosed(t *testing.T) {
	s := newLocalService(t, 2, AdmissionConfig{}, nil)
	tn := s.Tenant("app")
	if err := tn.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent: a second call is a no-op, not an error.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	// Every other post-close operation reports ErrClosed.
	if err := tn.Put("k2", []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	if _, err := tn.Get("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
	if err := tn.Del("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Del after Close = %v, want ErrClosed", err)
	}
	if err := tn.Barrier(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Barrier after Close = %v, want ErrClosed", err)
	}
	if err := tn.Scan("", func(string, []byte) bool { return true }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Scan after Close = %v, want ErrClosed", err)
	}
	if _, err := s.RegisterTenant("late", TenantConfig{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("RegisterTenant after Close = %v, want ErrClosed", err)
	}
}

// TestScanRecordsRequestLatency: a Scan, like every other tenant
// request, adds one sample to the tenant's request-latency histogram.
func TestScanRecordsRequestLatency(t *testing.T) {
	s := newLocalService(t, 2, AdmissionConfig{}, nil)
	defer s.Close()
	tn := s.Tenant("app")
	if err := tn.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	lat := s.Obs().Histogram("svc.tenant.app.request_ns")
	before := lat.Count()
	if err := tn.Scan("", func(string, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if got := lat.Count() - before; got != 1 {
		t.Fatalf("one scan added %d request-latency samples, want 1", got)
	}
}
