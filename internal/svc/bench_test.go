package svc

import (
	"fmt"
	"sync"
	"testing"

	"lsmio/internal/core"
	"lsmio/internal/vfs"
)

// The svc round trip on the real runtime: one tenant commits steps of
// 256 × 64 KiB puts, each step ended by a Barrier, through the
// in-process transport onto 2 MemFS shards. BenchmarkServicePutBesideScan
// adds a second tenant that scans a 16 MiB dataset over and over, the
// shape of the repository benchmark's svc-readwrite workload.
const (
	benchShards    = 2
	benchValue     = 64 << 10
	benchStepPuts  = 256
	benchLoadPuts  = 256
	benchWindowPut = 4 * benchStepPuts
)

func BenchmarkServicePut(b *testing.B) { benchServicePut(b, false) }

func BenchmarkServicePutBesideScan(b *testing.B) { benchServicePut(b, true) }

// benchEnv is one service, with the scanning tenant running if asked.
type benchEnv struct {
	s    *Service
	stop chan struct{}
	wg   sync.WaitGroup
	err  error // the scanner's first error
}

func openBenchEnv(b *testing.B, scan bool) *benchEnv {
	fss := make([]vfs.FS, benchShards)
	for i := range fss {
		fss[i] = vfs.NewMemFS()
	}
	s, err := New(Options{
		Shards: benchShards,
		OpenShard: func(i int) (*core.Manager, error) {
			return core.NewManager("store", core.ManagerOptions{
				Store: core.StoreOptions{FS: fss[i], Async: true},
			})
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	e := &benchEnv{s: s, stop: make(chan struct{})}
	if !scan {
		return e
	}
	r := s.Tenant("r")
	val := benchPayload(1)
	for i := 0; i < benchLoadPuts; i++ {
		if err := r.Put(fmt.Sprintf("blk.%04d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := r.Barrier(); err != nil {
		b.Fatal(err)
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			select {
			case <-e.stop:
				return
			default:
			}
			n := 0
			err := r.Scan("", func(string, []byte) bool { n++; return true })
			if err == nil && n != benchLoadPuts {
				err = fmt.Errorf("scan returned %d pairs, loaded %d", n, benchLoadPuts)
			}
			if err != nil {
				e.err = err
				return
			}
		}
	}()
	return e
}

// close stops the scanner and the service, failing b on either's error.
func (e *benchEnv) close(b *testing.B) {
	if e == nil {
		return
	}
	close(e.stop)
	e.wg.Wait()
	if e.err != nil {
		b.Fatal(e.err)
	}
	if err := e.s.Close(); err != nil {
		b.Fatal(err)
	}
}

func benchPayload(seed byte) []byte {
	v := make([]byte, benchValue)
	for i := range v {
		v[i] = byte(i*31) ^ seed
	}
	return v
}

// benchServicePut times b.N puts by tenant "w", a Barrier after every
// benchStepPuts and one at the end. The stores never compact, so every
// step stays in memory: the benchmark replaces the service, with its
// timer stopped, every benchWindowPut puts.
func benchServicePut(b *testing.B, scan bool) {
	val := benchPayload(2)
	b.SetBytes(benchValue)
	b.ReportAllocs()
	var e *benchEnv
	var w *Client
	for i := 0; i < b.N; i++ {
		if i%benchWindowPut == 0 {
			b.StopTimer()
			e.close(b)
			e = openBenchEnv(b, scan)
			w = e.s.Tenant("w")
			b.StartTimer()
		}
		if err := w.Put(fmt.Sprintf("step%04d/blk.%04d", i/benchStepPuts, i%benchStepPuts), val); err != nil {
			b.Fatal(err)
		}
		if i%benchStepPuts == benchStepPuts-1 {
			if err := w.Barrier(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if b.N%benchStepPuts != 0 {
		if err := w.Barrier(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	e.close(b)
}
