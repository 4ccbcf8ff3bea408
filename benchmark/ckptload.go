package main

// The two ckpt workloads: the same ckpt.Store calls over two engine
// configurations and two object-size mixes.

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"lsmio/ckpt"
	"lsmio/internal/core"
	"lsmio/internal/faultfs"
	"lsmio/internal/lsm"
	"lsmio/internal/obs"
	"lsmio/internal/vfs"
)

// storeName is the store's directory inside an epoch's filesystem.
const storeName = "store"

// restoreStepBase offsets restore span step ids from commit step ids.
const restoreStepBase = 1000

type ckptWorkload struct {
	mix          []sizeClass
	total        int64 // payload bytes per step
	compressible bool
	steps        int // commits per epoch
	restores     int // verified restores per epoch
	keep         int
	store        func(fs vfs.FS) core.StoreOptions

	buf []byte // payload bytes, refilled every epoch
}

// ckptLLM is the paper's configuration under an LLM checkpoint's
// object-size mix.
func ckptLLM() *ckptWorkload {
	return &ckptWorkload{
		mix: llmMix, total: 128 << 20,
		steps: 8, restores: 10, keep: 2,
		store: func(fs vfs.FS) core.StoreOptions {
			return core.StoreOptions{
				Backend: core.BackendRocks, FS: fs, Async: true,
				WriteBufferSize: 32 << 20, BlockSize: 64 << 10,
			}
		},
	}
}

// ckptSmallObj turns every engine feature the paper disables back on.
func ckptSmallObj() *ckptWorkload {
	return &ckptWorkload{
		mix: smallMix, total: 32 << 20, compressible: true,
		steps: 4, restores: 10, keep: 2,
		store: func(fs vfs.FS) core.StoreOptions {
			return core.StoreOptions{
				Backend: core.BackendRocks, FS: fs, Async: true,
				WriteBufferSize: 4 << 20, BlockSize: 4 << 10,
				EnableWAL: true, EnableCompression: true, EnableCache: true, EnableCompaction: true,
				Codec: lsm.CompressionSnappy,
			}
		},
	}
}

// openManager opens a manager over so. With a tracer the filesystem and
// the store are wrapped; the returned closer closes whatever the
// manager does not own.
func openManager(dir string, so core.StoreOptions, tr *tracer) (*core.Manager, func() error, error) {
	if tr == nil {
		mgr, err := core.NewManager(dir, core.ManagerOptions{Store: so})
		if err != nil {
			return nil, nil, err
		}
		return mgr, mgr.Close, nil
	}
	reg := obs.NewRegistry()
	so.FS = timedFS{FS: so.FS, t: tr}
	so.Obs = reg
	st, err := core.OpenStore(dir, so)
	if err != nil {
		return nil, nil, err
	}
	mgr, err := core.NewManager(dir, core.ManagerOptions{Remote: timedStore{Store: st, t: tr}, Obs: reg})
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return mgr, st.Close, nil
}

// commitStep writes every object of pl as checkpoint `step` and commits.
func commitStep(st *ckpt.Store, pl *payload, step int, tr *tracer) error {
	id := tr.beginRoot(kCkptWrite, step)
	c, err := st.Begin(int64(step))
	tr.finish(id, 0)
	if err != nil {
		return err
	}
	for i := range pl.objects {
		o := &pl.objects[i]
		id := tr.beginRoot(kCkptWrite, step)
		err := c.Write(o.name, o.data)
		tr.finish(id, int64(len(o.data)))
		if err != nil {
			return err
		}
	}
	id = tr.beginRoot(kCkptCommit, step)
	err = c.Commit()
	tr.finish(id, 0)
	return err
}

func (w *ckptWorkload) epoch(seed int64, ep int, dir string, tr *tracer) (res *epochResult, err error) {
	res = &epochResult{restoreEach: w.total, allocOver: int64(w.steps) * w.total}

	t0 := time.Now()
	// One layout of the same bytes per step; the last is what restores see.
	if w.buf == nil {
		w.buf = make([]byte, w.total)
	}
	layouts := make([]*payload, w.steps)
	layouts[0] = genPayloadInto(w.buf, epochSeed(seed, ep), w.mix, w.compressible)
	for i := 1; i < w.steps; i++ {
		layouts[i] = layout(epochSeed(seed, ep)+int64(i)*7919, w.mix, layouts[0].buf)
	}
	pl := layouts[w.steps-1]
	fs, err := scratchFS(dir)
	if err != nil {
		return res, err
	}
	mgr, closeStore, err := openManager(storeName, w.store(fs), tr)
	if err != nil {
		return res, err
	}
	closed := false
	defer func() {
		if !closed {
			closeStore() // error path; the first error is already being returned
		}
	}()
	st := ckpt.New(mgr, ckpt.Options{Keep: w.keep})
	res.setup = time.Since(t0)

	gw := openGoWindow()
	cpu0 := cpuSeconds()
	for step := 1; step <= w.steps; step++ {
		res.attempted++
		t := time.Now()
		if err := commitStep(st, layouts[step-1], step, tr); err != nil {
			res.failed++
			return res, fmt.Errorf("commit step %d: %w", step, err)
		}
		res.commitLat = append(res.commitLat, time.Since(t))
		res.commitBytes += pl.bytes
	}
	res.cpuSeconds += cpuSeconds() - cpu0
	var gcCount uint32
	var gcPause time.Duration
	res.allocBytes, res.mallocs, gcCount, gcPause = gw.close()

	for i := 0; i < w.restores; i++ {
		res.attempted++
		cpu0, t := cpuSeconds(), time.Now()
		id := tr.beginRoot(kCkptRestore, restoreStepBase+i)
		step, state, _, rerr := st.Restore(ckpt.RestoreOptions{Parallel: 2})
		tr.finish(id, pl.bytes)
		d := time.Since(t)
		res.cpuSeconds += cpuSeconds() - cpu0
		if rerr == nil && step != int64(w.steps) {
			rerr = fmt.Errorf("restored step %d, committed %d", step, w.steps)
		}
		if rerr == nil {
			rerr = pl.verify(state)
		}
		if rerr != nil {
			res.failed++
			return res, fmt.Errorf("restore %d: %w", i, rerr)
		}
		res.restoreLat = append(res.restoreLat, d)
	}

	snap := mgr.Obs().Snapshot()
	closed = true
	if err := closeStore(); err != nil {
		return res, fmt.Errorf("close: %w", err)
	}
	stored, tables, err := dirBytes(filepath.Join(dir, storeName), ".sst")
	if err != nil {
		return res, err
	}
	res.storedBytes = stored
	res.liveBytes = int64(min(w.keep, w.steps)) * w.total

	if tr != nil {
		res.spans = tr.recorded()
		res.layer = map[string]float64{
			"go.gc_count":         float64(gcCount),
			"go.gc_pause_s":       gcPause.Seconds(),
			"go.mallocs_per_step": float64(res.mallocs) / float64(w.steps),
		}
		spanLayers(res.layer, res.spans, res.commitBytes, int64(w.restores)*w.total)
		engineLayers(res.layer, snap, res.commitBytes, tables)
		latencyLayers(res.layer, res, len(pl.objects))
	}
	return res, nil
}

// epochSeed derives the payload seed of one epoch from the round's.
func epochSeed(seed int64, ep int) int64 { return seed*1_000_003 + int64(ep) }

// durability commits one small step through a filesystem that forgets
// unsynced bytes, leaves a second step unacknowledged, crashes, and
// requires the acknowledged step to restore intact.
func (w *ckptWorkload) durability(seed int64) error {
	return durabilityCheck(seed, w.mix, w.compressible, w.store)
}

// durabilityBytes is the size of the durability check's step.
const durabilityBytes = 16 << 20

func durabilityCheck(seed int64, mix []sizeClass, compressible bool, store func(vfs.FS) core.StoreOptions) error {
	ffs := faultfs.New(vfs.NewMemFS())
	pl := genPayload(seed, mix, durabilityBytes, compressible)
	mgr, err := core.NewManager(storeName, core.ManagerOptions{Store: store(ffs)})
	if err != nil {
		return err
	}
	st := ckpt.New(mgr, ckpt.Options{})
	if err := commitStep(st, pl, 1, nil); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	// A second step, written but never committed: the crash may keep
	// any part of it, and none of it may surface.
	c, err := st.Begin(2)
	if err != nil {
		return err
	}
	for i := range pl.objects[:len(pl.objects)/2] {
		if err := c.Write(pl.objects[i].name, pl.objects[i].data); err != nil {
			return err
		}
	}
	if err := ffs.Crash(); err != nil {
		return err
	}
	// The crashed manager is abandoned, as a killed process would be.
	// Its background tasks may still be failing on their dead handles,
	// so recovery runs on a copy of what the crash left behind.
	after, err := copyStore(ffs.Inner())
	if err != nil {
		return err
	}
	mgr2, err := core.NewManager(storeName, core.ManagerOptions{Store: store(after)})
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	defer mgr2.Close()
	step, state, _, err := ckpt.New(mgr2, ckpt.Options{}).Restore(ckpt.RestoreOptions{})
	if err != nil {
		return fmt.Errorf("restore after crash: %w", err)
	}
	if step != 1 {
		return fmt.Errorf("restored step %d after crash, acknowledged step 1", step)
	}
	return pl.verify(state)
}

// copyStore copies the store directory of src into a fresh MemFS.
func copyStore(src vfs.FS) (vfs.FS, error) {
	dst := vfs.NewMemFS()
	names, err := src.List(storeName)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		path := storeName + "/" + n
		in, err := src.Open(path)
		if errors.Is(err, vfs.ErrNotExist) {
			continue // removed by the crashed session's cleanup
		}
		if err != nil {
			return nil, err
		}
		data, err := vfs.ReadAll(in)
		in.Close()
		if err != nil {
			return nil, err
		}
		out, err := dst.Create(path)
		if err != nil {
			return nil, err
		}
		if _, err := out.Write(data); err != nil {
			return nil, err
		}
		if err := out.Close(); err != nil {
			return nil, err
		}
	}
	return dst, nil
}
