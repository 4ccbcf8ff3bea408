package main

// svc-readwrite: two tenants of one in-process service on two shards.
// Tenant w commits steps while tenant r scans a pre-loaded dataset.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lsmio/internal/core"
	"lsmio/internal/obs"
	"lsmio/internal/svc"
	"lsmio/internal/vfs"
)

const (
	svcShards     = 2
	svcBlock      = 64 << 10
	svcStepBlocks = 256  // one step: 256 × 64 KiB = 16 MiB
	svcLoadBlocks = 1024 // the reader's dataset: 64 MiB
	svcSteps      = 20   // steps per epoch
)

var svcBlockMix = []sizeClass{{"blk", 1.0, svcBlock, svcBlock}}

// svcStore is what `lsmiod -dir` opens its shards with.
func svcStore(fs vfs.FS) core.StoreOptions {
	return core.StoreOptions{FS: fs, Async: true}
}

type svcReadWrite struct {
	steps int // commits per epoch
}

func (w svcReadWrite) durability(seed int64) error {
	return durabilityCheck(seed, svcBlockMix, false, svcStore)
}

func (w svcReadWrite) epoch(seed int64, ep int, dir string, tr *tracer) (res *epochResult, err error) {
	const stepBytes = svcStepBlocks * svcBlock
	const loadBytes = svcLoadBlocks * svcBlock
	res = &epochResult{restoreEach: loadBytes}

	t0 := time.Now()
	stepData := genPayload(epochSeed(seed, ep), svcBlockMix, stepBytes, false)
	dataset := genPayload(epochSeed(seed, ep)+1, svcBlockMix, loadBytes, false)
	fs, err := scratchFS(dir)
	if err != nil {
		return res, err
	}
	tr.pause(true) // opening and pre-loading are set-up, not part of the traced epoch
	reg := obs.NewRegistry()
	var closers []func() error
	s, err := svc.New(svc.Options{
		Shards: svcShards,
		OpenShard: func(i int) (*core.Manager, error) {
			if tr == nil {
				return core.NewManager(svc.ShardDirName(i), core.ManagerOptions{Store: svcStore(fs), Obs: reg})
			}
			so := svcStore(timedFS{FS: fs, t: tr})
			so.Obs = reg
			st, err := core.OpenStore(svc.ShardDirName(i), so)
			if err != nil {
				return nil, err
			}
			closers = append(closers, st.Close)
			return core.NewManager(svc.ShardDirName(i), core.ManagerOptions{Remote: timedStore{Store: st, t: tr}, Obs: reg})
		},
		Obs:        reg,
		Admission:  svc.AdmissionConfig{},
		ManifestFS: fs,
	})
	if err != nil {
		return res, err
	}
	closed := false
	closeAll := func() error {
		closed = true
		err := s.Close()
		for _, c := range closers {
			if cerr := c(); err == nil {
				err = cerr
			}
		}
		return err
	}
	defer func() {
		if !closed {
			closeAll() // error path; the first error is already being returned
		}
	}()
	wt, rt := s.Tenant("w"), s.Tenant("r")
	for i := range dataset.objects {
		if err := rt.Put(dataset.objects[i].name, dataset.objects[i].data); err != nil {
			return res, fmt.Errorf("pre-load: %w", err)
		}
	}
	if err := rt.Barrier(); err != nil {
		return res, fmt.Errorf("pre-load barrier: %w", err)
	}
	res.setup = time.Since(t0)
	loaded := reg.Snapshot()
	tr.pause(false)

	var writerDone atomic.Bool
	var wg sync.WaitGroup
	var werr, rerr error
	var wAttempted, rAttempted int

	gw := openGoWindow()
	cpu0 := cpuSeconds()
	wg.Add(2)
	go func() { // tenant w: the committing application
		defer wg.Done()
		defer writerDone.Store(true)
		for step := 1; step <= w.steps; step++ {
			wAttempted++
			t := time.Now()
			for i := range stepData.objects {
				o := &stepData.objects[i]
				id := tr.beginRoot(kSvcPut, step)
				err := wt.Put(fmt.Sprintf("step%04d/%s", step, o.name), o.data)
				tr.finish(id, int64(len(o.data)))
				if err != nil {
					werr = fmt.Errorf("step %d put: %w", step, err)
					return
				}
			}
			id := tr.beginRoot(kSvcBarrier, step)
			err := wt.Barrier()
			tr.finish(id, 0)
			if err != nil {
				werr = fmt.Errorf("step %d barrier: %w", step, err)
				return
			}
			res.commitLat = append(res.commitLat, time.Since(t))
			res.commitBytes += stepBytes
		}
	}()
	go func() { // tenant r: scans until w is done
		defer wg.Done()
		got := make([]svc.Pair, 0, svcLoadBlocks)
		for pass := 0; !writerDone.Load(); pass++ {
			rAttempted++
			got = got[:0]
			t := time.Now()
			id := tr.beginRoot(kSvcScan, restoreStepBase+pass)
			err := rt.Scan("", func(k string, v []byte) bool {
				got = append(got, svc.Pair{Key: k, Value: v})
				return true
			})
			tr.finish(id, loadBytes)
			d := time.Since(t)
			if err == nil && len(got) != svcLoadBlocks {
				err = fmt.Errorf("scan returned %d objects, loaded %d", len(got), svcLoadBlocks)
			}
			for i := 0; err == nil && i < len(got); i++ {
				err = dataset.verifyObject(got[i].Key, got[i].Value)
			}
			if err != nil {
				rerr = fmt.Errorf("scan pass %d: %w", pass, err)
				return
			}
			// A pass that outlived the writer ran partly uncontended;
			// it is verified but not a latency sample.
			if !writerDone.Load() {
				res.restoreLat = append(res.restoreLat, d)
			}
		}
	}()
	wg.Wait()
	res.cpuSeconds = cpuSeconds() - cpu0
	var gcCount uint32
	var gcPause time.Duration
	res.allocBytes, res.mallocs, gcCount, gcPause = gw.close()
	res.allocOver = res.movedBytes()
	res.attempted = wAttempted + rAttempted
	for _, e := range []error{werr, rerr} {
		if e != nil {
			res.failed++
			err = errors.Join(err, e)
		}
	}
	if err != nil {
		return res, err
	}

	snap := reg.Snapshot().Delta(loaded)
	if err := closeAll(); err != nil {
		return res, fmt.Errorf("close: %w", err)
	}
	stored, tables, err := dirBytes(dir, ".sst")
	if err != nil {
		return res, err
	}
	res.storedBytes = stored
	res.liveBytes = loadBytes + res.commitBytes

	if tr != nil {
		res.spans = tr.recorded()
		res.layer = map[string]float64{
			"go.gc_count":         float64(gcCount),
			"go.gc_pause_s":       gcPause.Seconds(),
			"go.mallocs_per_step": float64(res.mallocs) / float64(w.steps),
			"svc.admit_wait_s": nsToS(snap.Hists["svc.tenant.w.admission_wait_ns"].Sum +
				snap.Hists["svc.tenant.r.admission_wait_ns"].Sum),
		}
		spanLayers(res.layer, res.spans, res.commitBytes, int64(len(res.restoreLat))*loadBytes)
		engineLayers(res.layer, snap, res.commitBytes, tables)
	}
	return res, nil
}
