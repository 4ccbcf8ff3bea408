package svc

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lsmio/internal/core"
	"lsmio/internal/obs"
	"lsmio/internal/vfs"
)

// gateFS parks the first table read after arm until release, so a test
// can act while a Scan is inside a store read.
type gateFS struct {
	vfs.FS
	armed   atomic.Bool
	parked  chan struct{} // closed when a read parks
	release chan struct{} // closed to let it go
}

func newGateFS(inner vfs.FS) *gateFS {
	return &gateFS{FS: inner, parked: make(chan struct{}), release: make(chan struct{})}
}

// Open wraps every file the engine opens to read (tables included).
func (g *gateFS) Open(name string) (vfs.File, error) {
	f, err := g.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return gateFile{File: f, g: g}, nil
}

type gateFile struct {
	vfs.File
	g *gateFS
}

func (f gateFile) ReadAt(p []byte, off int64) (int, error) {
	if strings.HasSuffix(f.Name(), ".sst") && f.g.armed.CompareAndSwap(true, false) {
		close(f.g.parked)
		<-f.g.release
	}
	return f.File.ReadAt(p, off)
}

// parkedScan is a service whose shard gated sits on a gateFS, holding
// nKeys barriered keys of tenant "reader", and a Scan of that tenant
// parked inside a table read on shard gated.
type parkedScan struct {
	s     *Service
	gate  *gateFS
	nKeys int
	done  chan error // the scan's outcome
	pairs chan int   // how many pairs it returned
}

func startParkedScan(t *testing.T, shards, gated int) *parkedScan {
	t.Helper()
	reg := obs.NewRegistry()
	fss := make([]vfs.FS, shards)
	for i := range fss {
		fss[i] = vfs.NewMemFS()
	}
	p := &parkedScan{gate: newGateFS(fss[gated]),
		done: make(chan error, 1), pairs: make(chan int, 1)}
	fss[gated] = p.gate
	s, err := New(Options{
		Shards: shards,
		OpenShard: func(i int) (*core.Manager, error) {
			return core.NewManager("store", core.ManagerOptions{
				Store: core.StoreOptions{FS: fss[i], Async: true},
				Obs:   reg,
			})
		},
		Obs:        reg,
		Supervisor: SupervisorConfig{RestartBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.s = s
	// Put until every shard holds some keys, so the scan reads a table
	// on each.
	reader := s.Tenant("reader")
	per := make([]int, shards)
	for n := 0; slices.Min(per) < 8; n++ {
		key := fmt.Sprintf("k%04d", n)
		if err := reader.Put(key, []byte("v"+key)); err != nil {
			t.Fatal(err)
		}
		per[route(nsKey("reader", key), shards)]++
		p.nKeys++
	}
	if err := reader.Barrier(); err != nil {
		t.Fatal(err)
	}
	p.gate.armed.Store(true)
	go func() {
		n := 0
		err := reader.Scan("", func(string, []byte) bool { n++; return true })
		p.pairs <- n
		p.done <- err
	}()
	select {
	case <-p.gate.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the scan never reached a table read on the gated shard")
	}
	return p
}

// finish releases the parked read and returns the scan's outcome.
func (p *parkedScan) finish() (int, error) {
	p.releaseOnce()
	return <-p.pairs, <-p.done
}

func (p *parkedScan) releaseOnce() {
	select {
	case <-p.gate.release:
	default:
		close(p.gate.release)
	}
}

// TestRequestsPassAParkedScan: a Scan parked inside a store read holds
// its shard's lock shared, so a Put and a Barrier routed to that shard
// by another tenant return while the read is still parked.
func TestRequestsPassAParkedScan(t *testing.T) {
	const gated = 1
	p := startParkedScan(t, 2, gated)
	defer p.s.Close()
	defer p.releaseOnce() // before Close, also when the test fails

	writer := p.s.Tenant("writer")
	key := shardKeys(p.s, "writer")[gated]
	errc := make(chan error, 1)
	go func() {
		if err := writer.Put(key, []byte("x")); err != nil {
			errc <- err
			return
		}
		errc <- writer.Barrier()
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a Put and Barrier on the scanned shard waited for the parked scan")
	}
	n, err := p.finish()
	if err != nil || n != p.nKeys {
		t.Fatalf("scan returned %d pairs, %v; want %d, nil", n, err, p.nKeys)
	}
	if v, err := writer.Get(key); err != nil || string(v) != "x" {
		t.Fatalf("writer read %q, %v", v, err)
	}
}

// TestCrashShardWaitsForAParkedScan: CrashShard detaches the manager
// exclusively, so it waits for a scan parked inside that manager's read
// instead of closing the store under it. The scan returns every pair or
// a typed ShardDownError, never a closed-store error.
func TestCrashShardWaitsForAParkedScan(t *testing.T) {
	const gated = 0
	p := startParkedScan(t, 2, gated)
	defer p.s.Close()
	defer p.releaseOnce()

	crashed := make(chan error, 1)
	go func() { crashed <- p.s.CrashShard(gated) }()
	select {
	case err := <-crashed:
		t.Fatalf("CrashShard returned (%v) while a scan was parked inside the shard's store", err)
	case <-time.After(20 * time.Millisecond):
	}
	n, err := p.finish()
	var down *ShardDownError
	switch {
	case err == nil && n == p.nKeys:
	case errors.As(err, &down):
	default:
		t.Fatalf("scan returned %d pairs, %v; want %d pairs or a ShardDownError", n, err, p.nKeys)
	}
	if err := <-crashed; err != nil {
		t.Fatal(err)
	}
	waitShardUp(t, p.s, gated)
}
