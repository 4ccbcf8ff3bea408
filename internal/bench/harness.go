package bench

import (
	"bytes"
	"fmt"
	"time"

	"lsmio/ckpt"
	"lsmio/internal/core"
	"lsmio/internal/iosched"
	"lsmio/internal/lsm"
	"lsmio/internal/obs"
	"lsmio/internal/pfs"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

// The extension figures share one shape of experiment: ranks on a
// simulated cluster, each driving a store, timed on the virtual clock.
// The pieces of that shape live here, once.

// simRun is one run on a fresh simulated cluster: its kernel, the
// kernel's runtime, the cluster, and the procs spawned for the current
// pass of the kernel.
type simRun struct {
	k       *sim.Kernel
	rtm     rt.Runtime
	cluster *pfs.Cluster
	errs    []*error
}

func newSimRun(cfg pfs.Config) *simRun {
	k := sim.NewKernel()
	return &simRun{k: k, rtm: rt.Sim(k), cluster: pfs.NewCluster(k, cfg)}
}

// spawn starts body as a proc of the next pass; run reports its error.
func (s *simRun) spawn(name string, body func(p *sim.Proc) error) {
	err := new(error)
	s.errs = append(s.errs, err)
	s.k.Spawn(name, func(p *sim.Proc) { *err = body(p) })
}

// ranks spawns body once per rank r in 0..n-1, as proc <name>NN.
func (s *simRun) ranks(name string, n int, body func(p *sim.Proc, r int) error) {
	for r := 0; r < n; r++ {
		r := r
		s.spawn(fmt.Sprintf("%s%02d", name, r), func(p *sim.Proc) error { return body(p, r) })
	}
}

// run runs the kernel until the pass's procs have finished and returns
// the kernel's error, else the first proc error in spawn order.
func (s *simRun) run() error {
	err := s.k.Run()
	errs := s.errs
	s.errs = nil
	if err != nil {
		return err
	}
	for _, e := range errs {
		if *e != nil {
			return *e
		}
	}
	return nil
}

// manager opens a rank's asynchronous checkpoint manager on fs with a
// bufferSize memtable, on the run's runtime, recording into reg (nil: a
// registry of its own) and drawing I/O from sched (nil: unscheduled).
func (s *simRun) manager(name string, fs vfs.FS, bufferSize int, reg *obs.Registry, sched *iosched.Scheduler) (*core.Manager, error) {
	return core.NewManager(name, core.ManagerOptions{
		Store: core.StoreOptions{
			FS:              fs,
			Async:           true,
			WriteBufferSize: bufferSize,
			IOSched:         sched,
		},
		Runtime: s.rtm,
		Obs:     reg,
	})
}

// closeAll closes every opened manager in rank order and returns the
// first error.
func closeAll(mgrs []*core.Manager) error {
	var first error
	for _, mgr := range mgrs {
		if mgr == nil {
			continue
		}
		if err := mgr.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// emitter appends a custom figure's points and prints one progress line
// per point. A custom figure plots one transfer size at one stripe count.
type emitter struct {
	fr       *FigureResult
	progress func(string)
	transfer int64
	stripe   int
}

func newEmitter(f Figure, progress func(string)) emitter {
	e := emitter{fr: &FigureResult{Figure: f}, progress: progress, transfer: f.Transfers[0], stripe: 4}
	if len(f.StripeCounts) > 0 {
		e.stripe = f.StripeCounts[0]
	}
	return e
}

// point appends a point; a non-empty format prints its progress line.
func (e emitter) point(series string, nodes int, bw float64, format string, args ...any) {
	e.fr.Points = append(e.fr.Points, Point{
		Series:      series,
		Transfer:    e.transfer,
		StripeCount: e.stripe,
		Nodes:       nodes,
		BW:          bw,
	})
	if format != "" {
		e.log(format, args...)
	}
}

// log prints a progress line prefixed with the figure's ID.
func (e emitter) log(format string, args ...any) {
	if e.progress != nil {
		e.progress(e.fr.Figure.ID + " " + fmt.Sprintf(format, args...))
	}
}

// writeStep commits one checkpoint step of vars patterned payloads
// splitting perRank bytes, so a restore detects corruption, not just
// presence.
func writeStep(store *ckpt.Store, step int64, vars int, perRank int64) error {
	w, err := store.Begin(step)
	if err != nil {
		return err
	}
	for v := 0; v < vars; v++ {
		if err := w.Write(fmt.Sprintf("var%02d", v), stepPayload(step, v, perRank/int64(vars))); err != nil {
			return err
		}
	}
	return w.Commit()
}

// checkStep verifies that a rank restored step want with the payloads
// writeStep committed for it.
func checkStep(rank int, step, want int64, state map[string][]byte, vars int, perRank int64) error {
	if step != want {
		return fmt.Errorf("rank %d restored step %d, want %d", rank, step, want)
	}
	for v := 0; v < vars; v++ {
		name := fmt.Sprintf("var%02d", v)
		if !bytes.Equal(state[name], stepPayload(step, v, perRank/int64(vars))) {
			return fmt.Errorf("rank %d step %d %s corrupted", rank, step, name)
		}
	}
	return nil
}

func stepPayload(step int64, v int, n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int64(i) + step*31 + int64(v)*7)
	}
	return b
}

// overwriteOptions are the engine options of the overwrite-heavy
// workloads: asynchronous flushes on jobs background workers, a buf-byte
// memtable, a small L0 trigger and level fan-out so compaction debt
// builds fast, and no filters or compression.
func overwriteOptions(fs vfs.FS, rtm rt.Runtime, jobs, buf int) lsm.Options {
	opts := lsm.DefaultOptions(fs)
	opts.Runtime = rtm
	opts.AsyncFlush = true
	opts.MaxBackgroundJobs = jobs
	opts.MaxImmutableMemtables = 4
	opts.WriteBufferSize = buf
	opts.L0CompactionTrigger = 4
	opts.BaseLevelSize = int64(4 * buf)
	opts.LevelSizeMultiplier = 4
	opts.BitsPerKey = 0
	opts.DisableCompression = true
	return opts
}

// runOverwrite drives the overwrite-heavy workload of ext-compaction and
// of ext-pipeline's compaction arm on one client: 4×PerRankBytes of
// compValueSize puts (payload plus key) over a keyspace half that many
// keys, so every key is overwritten about twice, then a flush and a full
// background drain. A fixed 64 puts per memtable keeps the stall
// frequency scale-invariant. smooth selects paced admission or the bare
// hard stall; tune, when set, adjusts the options further. It
// returns the end-to-end virtual time, every Put's latency and the
// engine's registry snapshot.
func runOverwrite(scale Scale, jobs int, smooth bool, payload []byte, tune func(*lsm.Options)) (time.Duration, []time.Duration, obs.Snapshot, error) {
	s := newSimRun(pfs.VikingConfig(1))
	buf := 64 * compValueSize
	totalPuts := int(4 * scale.PerRankBytes / compValueSize)
	keyspace := totalPuts / 2

	var total time.Duration
	var snap obs.Snapshot
	lats := make([]time.Duration, 0, totalPuts)
	s.spawn("lsm-writer", func(p *sim.Proc) error {
		opts := overwriteOptions(s.cluster.Client(0), s.rtm, jobs, buf)
		opts.L0StopTrigger = 12
		if !smooth {
			opts.L0SlowdownTrigger = -1
		}
		if tune != nil {
			tune(&opts)
		}
		db, err := lsm.Open("lsmdb", opts)
		if err != nil {
			return err
		}
		for i := 0; i < totalPuts; i++ {
			key := fmt.Sprintf("key%08d", i%keyspace)
			start := p.Now()
			if err := db.Put([]byte(key), payload); err != nil {
				return err
			}
			lats = append(lats, p.Now().Sub(start))
		}
		if err := db.Flush(); err != nil {
			return err
		}
		if err := db.WaitBackground(); err != nil {
			return err
		}
		total = p.Now().Duration()
		snap = db.Obs().Snapshot()
		return db.Close()
	})
	if err := s.run(); err != nil {
		return 0, nil, obs.Snapshot{}, err
	}
	return total, lats, snap, nil
}
