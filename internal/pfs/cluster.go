package pfs

import (
	"fmt"
	"time"

	"lsmio/internal/iosched"
	"lsmio/internal/netsim"
	"lsmio/internal/obs"
	"lsmio/internal/resil"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

// Cluster is the simulated storage system plus its interconnect. Compute
// nodes occupy fabric endpoints [0, ComputeNodes); OSS j sits at endpoint
// ComputeNodes+j.
type Cluster struct {
	k      *sim.Kernel
	clk    rt.Clock // k's virtual clock: retry backoffs, the registry
	cfg    Config
	fabric *netsim.Fabric

	store *vfs.MemFS // the actual bytes of every file
	mds   busyClock
	oss   []busyClock
	osts  []*ost

	layouts    map[string]*layout // path -> striping
	nextFileID uint64
	allocNext  int // MDS round-robin OST allocator

	faultFn FaultFunc

	// Resilience layer (nil/zero unless EnableResilience was called).
	tracker *resil.Tracker
	res     Resilience

	// iosched, when set, throttles scrub/repair I/O: every stripe-unit
	// read or write a scrub pass issues buys Scrub-class tokens first,
	// so a repair storm cannot monopolize OST bandwidth against
	// foreground commits. Set via SetIOScheduler; nil = unthrottled.
	iosched *iosched.Scheduler

	// reg is the obs registry (clocked on the cluster's virtual time)
	// backing every `pfs.*` counter and latency histogram; m caches the
	// instrument handles. Counters are atomic: sim-mode runs are
	// single-threaded, but go-mode shares a cluster between app
	// goroutines and the burst drain worker.
	reg *obs.Registry
	m   pfsMetrics
}

// FaultFunc decides whether one OST RPC attempt fails. It is consulted
// once per attempt (attempt 0 is the first try) and returns nil for
// success or the error to deliver. Errors exposing a
// `TransientFault() bool` method returning true (e.g. faultfs injected
// errors) are retried with backoff up to Config.RetryMax; anything else is
// surfaced immediately.
type FaultFunc func(write bool, ostIdx int, attempt int) error

// InjectFaults installs (or, with nil, removes) the cluster's RPC fault
// hook. Tests use it to model failing or flaky OSTs.
func (c *Cluster) InjectFaults(fn FaultFunc) { c.faultFn = fn }

// SetIOScheduler attaches (or, with nil, detaches) the shared bandwidth
// scheduler that throttles the cluster's scrub/repair I/O under the
// Scrub class. Foreground client I/O is never scheduled here — it is
// paced by the engine's own Foreground/Flush classes.
func (c *Cluster) SetIOScheduler(s *iosched.Scheduler) { c.iosched = s }

// scrubAcquire buys Scrub-class tokens for n bytes of repair I/O. Free
// when no scheduler is attached (the pre-PR-10 unthrottled behavior).
func (c *Cluster) scrubAcquire(n int64) {
	c.iosched.Acquire(iosched.Scrub, n)
}

// retryPolicy builds the cluster's RPC retry discipline from the Config
// knobs. Both the read and the write path run every OST attempt under
// this one resil.Policy, so transient vs target-down vs fatal faults
// classify identically across tiers; OnRetry feeds the pfs.retries
// counter exactly once per backoff.
func (c *Cluster) retryPolicy() resil.Policy {
	return resil.Policy{
		MaxRetries: c.cfg.RetryMax,
		BaseDelay:  c.cfg.RetryBaseDelay,
		MaxDelay:   c.cfg.RetryMaxDelay,
		OnRetry:    func(int, error) { c.m.retries.Inc() },
	}
}

// retrySeed derives the deterministic jitter seed for one OST's retry
// sequence from the OST and the global retry count — no real-time
// randomness, so simulations stay reproducible.
func (c *Cluster) retrySeed(ostIdx int) uint64 {
	return uint64(ostIdx+1)*0x94d049bb133111eb + uint64(c.m.retries.Load()+1)
}

// layout is a file's stripe mapping, fixed at creation (Lustre semantics).
// Scrub relocation is the one exception: it may remap a lost member onto a
// healthy spare OST.
type layout struct {
	id          uint64
	stripeSize  int64
	stripeCount int
	osts        []int // stripe i lives on osts[i % stripeCount]

	// K+1 XOR-parity extension (resilience layer; zero for plain RAID-0).
	parity     bool
	parityOST  int
	lost       map[int]bool // data slot -> write absorbed while member dead
	parityLost bool
	// pdata holds the real parity bytes: parity object offset
	// row*stripeSize+within = XOR over the row's data units.
	pdata []byte
	// crc is the per-stripe-unit checksum (global unit index -> CRC32),
	// finalized at sync boundaries; dirty tracks units touched since.
	crc   map[int64]uint32
	dirty map[int64]bool
}

// slotOf returns the data slot an OST serves in this layout, -1 if none.
func (l *layout) slotOf(ostIdx int) int {
	for i, o := range l.osts {
		if o == ostIdx {
			return i
		}
	}
	return -1
}

// ensureParity grows the parity byte array to at least n bytes.
func (l *layout) ensureParity(n int64) {
	if int64(len(l.pdata)) < n {
		l.pdata = append(l.pdata, make([]byte, n-int64(len(l.pdata)))...)
	}
}

// xorUpdate folds a write of new bytes over old bytes into the parity
// object and marks the touched stripe units dirty for CRC finalization.
func (l *layout) xorUpdate(off int64, newb, oldb []byte) {
	s, k := l.stripeSize, int64(l.stripeCount)
	for i := int64(0); i < int64(len(newb)); i++ {
		fo := off + i
		ci := fo / s
		po := (ci/k)*s + fo%s
		l.ensureParity(po + 1)
		l.pdata[po] ^= oldb[i] ^ newb[i]
		l.dirty[ci] = true
	}
}

// busyClock is a serial server modelled by a busy-until timestamp:
// a request arriving at t is serviced during [max(t, busy), ...+d].
type busyClock struct {
	busyUntil sim.Time
}

// serve books d of service starting no earlier than now and returns the
// completion time.
func (b *busyClock) serve(now sim.Time, d time.Duration) sim.Time {
	start := b.busyUntil
	if now > start {
		start = now
	}
	b.busyUntil = start.Add(d)
	return b.busyUntil
}

// ost is one object storage target: a busy clock plus positioning and
// lock state. The array's controller cache absorbs a small number of
// concurrent sequential streams (tracked LRU by recent position); a
// request near any tracked stream costs no seek.
type ost struct {
	busyClock
	streams    []streamPos    // most recent first, at most streamCacheSize
	lockHolder map[uint64]int // fileID -> last writing client

	// Fail-stop / slow fault model (SetOSTHealth), distinct from the
	// transient FaultFunc: a degraded OST serves every request slow times
	// slower; a dead OST refuses requests outright.
	health OSTHealth
	slow   float64
}

type streamPos struct {
	fileID uint64
	end    int64
}

// matchStream reports whether the request continues a tracked stream and
// updates / inserts the stream position (LRU).
func (o *ost) matchStream(fileID uint64, objOff, n, window int64, cacheSize int) bool {
	for i, s := range o.streams {
		if s.fileID != fileID {
			continue
		}
		gap := objOff - s.end
		if gap < 0 {
			gap = -gap
		}
		if gap <= window {
			// Continue this stream; move it to the front.
			copy(o.streams[1:i+1], o.streams[:i])
			o.streams[0] = streamPos{fileID: fileID, end: objOff + n}
			return true
		}
	}
	// New stream: seek, insert at front, evict the oldest.
	o.streams = append(o.streams, streamPos{})
	copy(o.streams[1:], o.streams)
	o.streams[0] = streamPos{fileID: fileID, end: objOff + n}
	if len(o.streams) > cacheSize {
		o.streams = o.streams[:cacheSize]
	}
	return false
}

// NewCluster builds the storage system on kernel k.
func NewCluster(k *sim.Kernel, cfg Config) *Cluster {
	c := &Cluster{
		k:       k,
		clk:     rt.Sim(k),
		cfg:     cfg.withDefaults(),
		store:   vfs.NewMemFS(),
		layouts: make(map[string]*layout),
	}
	c.reg = obs.NewRegistryOn(c.clk.Now)
	c.m = newPFSMetrics(c.reg)
	c.fabric = netsim.New(k, netsim.Config{
		Nodes:     c.cfg.ComputeNodes + c.cfg.NumOSSs,
		Latency:   c.cfg.NetLatency,
		Bandwidth: c.cfg.NetBandwidth,
		MaxPacket: c.cfg.NetMaxPacket,
	})
	c.oss = make([]busyClock, c.cfg.NumOSSs)
	c.osts = make([]*ost, c.cfg.NumOSTs)
	for i := range c.osts {
		c.osts[i] = &ost{lockHolder: make(map[uint64]int)}
	}
	return c
}

// Kernel returns the simulation kernel.
func (c *Cluster) Kernel() *sim.Kernel { return c.k }

// Fabric returns the interconnect (shared with the MPI world).
func (c *Cluster) Fabric() *netsim.Fabric { return c.fabric }

// Stats returns the cumulative bytes written, read from the
// `pfs.bytes_written` counter of the obs registry (Cluster.Obs).
func (c *Cluster) Stats() Stats {
	return Stats{BytesWritten: c.m.bytesWritten.Load()}
}

// Obs returns the cluster's registry: every `pfs.*` counter plus the
// per-operation latency histograms (pfs.ost.write_latency /
// pfs.ost.read_latency) and the trace ring, all on virtual time.
func (c *Cluster) Obs() *obs.Registry { return c.reg }

// Store exposes the backing in-memory store (tests use it to verify data).
func (c *Cluster) Store() *vfs.MemFS { return c.store }

// Close ends the cluster once its results are read: the pages of its
// files go back to vfs's page pool for the next cluster to reuse, and
// every later call through one of its clients, or on a file opened
// through one, returns vfs.ErrClosed. Stats and the registry stay
// readable.
func (c *Cluster) Close() error { return c.store.Close() }

// live is what a client call returns before it charges any time:
// vfs.ErrClosed once the cluster is closed, whose kernel is done.
func (c *Cluster) live() error {
	if c.store.Closed() {
		return fmt.Errorf("pfs: %w", vfs.ErrClosed)
	}
	return nil
}

func (c *Cluster) ossNodeID(ossIdx int) int { return c.cfg.ComputeNodes + ossIdx }
func (c *Cluster) ossOf(ostIdx int) int     { return ostIdx % c.cfg.NumOSSs }

// cur returns the calling simulation process.
func (c *Cluster) cur() *sim.Proc {
	p := c.k.Current()
	if p == nil {
		panic("pfs: filesystem used outside a simulation process")
	}
	return p
}

// newLayout allocates striping for a new file. Dead OSTs and OSTs whose
// circuit breaker rejects routing are skipped (degraded-mode re-striping);
// if fewer healthy OSTs remain than the requested width, the stripe count
// is narrowed rather than failing the create. With parity, one extra OST
// is allocated as the dedicated parity target (K+1); parity is silently
// dropped when fewer than two usable OSTs exist.
func (c *Cluster) newLayout(stripeCount int, stripeSize int64, parity bool) *layout {
	if stripeCount <= 0 {
		stripeCount = c.cfg.DefaultStripeCount
	}
	if stripeCount > c.cfg.NumOSTs {
		stripeCount = c.cfg.NumOSTs
	}
	if stripeSize <= 0 {
		stripeSize = c.cfg.DefaultStripeSize
	}
	want := stripeCount
	if parity {
		if want < c.cfg.NumOSTs {
			want++
		}
	}
	sel := make([]int, 0, want)
	skipped := 0
	for i := 0; i < c.cfg.NumOSTs && len(sel) < want; i++ {
		idx := (c.allocNext + i) % c.cfg.NumOSTs
		if c.osts[idx].health == OSTDead {
			skipped++
			continue
		}
		// Route may grant a half-open probe: the OST joins this layout and
		// its first write resolves the probe.
		if c.tracker != nil && !c.tracker.Route(idx) {
			skipped++
			continue
		}
		sel = append(sel, idx)
	}
	if len(sel) == 0 {
		// Nothing usable: fall back to blind round-robin so the error
		// surfaces at write time (DeadOSTError) instead of losing it here.
		for i := 0; i < want && i < c.cfg.NumOSTs; i++ {
			sel = append(sel, (c.allocNext+i)%c.cfg.NumOSTs)
		}
	}
	if skipped > 0 {
		c.m.degradedLayouts.Inc()
	}
	c.allocNext = (c.allocNext + stripeCount) % c.cfg.NumOSTs
	c.nextFileID++
	l := &layout{
		id:         c.nextFileID,
		stripeSize: stripeSize,
	}
	if parity && len(sel) >= 2 {
		l.parity = true
		l.parityOST = sel[len(sel)-1]
		sel = sel[:len(sel)-1]
		l.lost = make(map[int]bool)
		l.crc = make(map[int64]uint32)
		l.dirty = make(map[int64]bool)
	}
	l.stripeCount = len(sel)
	l.osts = sel
	return l
}

// chargeMDS books one metadata operation to the calling process: a network
// round trip plus serialized MDS service.
func (c *Cluster) chargeMDS(p *sim.Proc, client int) {
	c.m.metadataOps.Inc()
	// Request to the MDS (modelled as living beside OSS 0).
	c.fabric.Transfer(p, client, c.ossNodeID(0), 256)
	done := c.mds.serve(p.Now(), c.cfg.MDSOpTime)
	if wait := done.Sub(p.Now()); wait > 0 {
		p.Sleep(wait)
	}
	p.Sleep(c.cfg.NetLatency) // reply
}

// run is one contiguous byte range on a single OST object.
type run struct {
	ostIdx int
	objOff int64
	n      int64
}

// stripeRuns splits a file byte range into per-OST contiguous object runs,
// in ascending file-offset order of their first chunk.
func (l *layout) stripeRuns(off, n int64) []run {
	if n <= 0 {
		return nil
	}
	var runs []run
	byOST := make(map[int]int) // ostIdx -> index in runs
	for rem := n; rem > 0; {
		ci := off / l.stripeSize
		within := off % l.stripeSize
		take := l.stripeSize - within
		if take > rem {
			take = rem
		}
		ostIdx := l.osts[int(ci)%l.stripeCount]
		objOff := (ci/int64(l.stripeCount))*l.stripeSize + within
		if i, ok := byOST[ostIdx]; ok && runs[i].objOff+runs[i].n == objOff {
			runs[i].n += take
		} else {
			byOST[ostIdx] = len(runs)
			runs = append(runs, run{ostIdx: ostIdx, objOff: objOff, n: take})
		}
		off += take
		rem -= take
	}
	return runs
}

// ostService computes and books one request's service on an OST,
// returning its completion time.
func (c *Cluster) ostService(o *ost, now sim.Time, client int, l *layout, r run, isWrite bool) sim.Time {
	var d time.Duration
	d += c.cfg.OSTOpOverhead
	if isWrite {
		d += time.Duration(float64(r.n) / c.cfg.OSTSeqWriteBW * 1e9)
	} else {
		d += time.Duration(float64(r.n) / c.cfg.OSTSeqReadBW * 1e9)
	}
	// Positioning: a request near one of the OST's tracked streams is
	// absorbed by the elevator and controller cache; anything else seeks.
	if !o.matchStream(l.id, r.objOff, r.n, c.cfg.CoalesceWindow, c.cfg.OSTStreamCache) {
		if isWrite {
			d += c.cfg.WriteSeek
		} else {
			d += c.cfg.ReadSeek
		}
		c.m.seeks.Inc()
	}
	// Extent locks: writes by a non-holder migrate the lock.
	if isWrite {
		if holder, ok := o.lockHolder[l.id]; ok && holder != client {
			d += c.cfg.LockSwitch
			c.m.lockSwitches.Inc()
		}
		o.lockHolder[l.id] = client
	}
	if o.health == OSTDegraded && o.slow > 1 {
		d = time.Duration(float64(d) * o.slow)
	}
	return o.serve(now, d)
}

// chargeWriteCPU books the client-side data-path cost of accepting n
// bytes into the write-back cache (page copy + checksum).
func (c *Cluster) chargeWriteCPU(p *sim.Proc, n int64) {
	c.m.bytesWritten.Add(n)
	p.Sleep(time.Duration(float64(n) / c.cfg.ClientStreamBW * 1e9))
}

// chargeWriteRPC ships a coalesced dirty extent: per-stripe-run RPC
// overhead and network transfer synchronously, then asynchronous device
// completion with dirty-lag backpressure. It returns the latest device
// completion time. Transient RPC faults (InjectFaults) are retried with
// bounded exponential backoff on the virtual clock; permanent faults and
// exhausted budgets surface as errors.
//
// With the resilience layer on, a straggling run may be hedged to a spare
// OST; on a parity layout, a run whose member OST is dead is absorbed (at
// most one member) instead of failing the write, and the amortized parity
// update is shipped to the dedicated parity OST.
func (c *Cluster) chargeWriteRPC(p *sim.Proc, client int, l *layout, off, n int64) (sim.Time, error) {
	var latest sim.Time
	for _, r := range l.stripeRuns(off, n) {
		done, err := c.writeRun(p, client, l, r, true)
		if err != nil {
			if l.parity && targetDown(err) {
				if slot := l.slotOf(r.ostIdx); slot >= 0 && c.absorbLostWrite(l, slot) {
					continue
				}
			}
			return latest, err
		}
		if done > latest {
			latest = done
		}
	}
	if l.parity && n > 0 {
		done, err := c.writeParityRun(p, client, l, off, n)
		if err != nil {
			if targetDown(err) && c.absorbLostParity(l) {
				return latest, nil
			}
			return latest, err
		}
		if done > latest {
			latest = done
		}
	}
	return latest, nil
}

// writeRun ships one contiguous run to its OST with the transient-retry
// policy, health checks, tracker observation, and (for data runs) hedging.
func (c *Cluster) writeRun(p *sim.Proc, client int, l *layout, r run, allowHedge bool) (sim.Time, error) {
	o := c.osts[r.ostIdx]
	if l.parity {
		if slot := l.slotOf(r.ostIdx); slot >= 0 && l.lost[slot] {
			// Member already absorbed by parity; don't resurrect it.
			return 0, &DeadOSTError{OST: r.ostIdx}
		}
	}
	var done sim.Time
	attempts := 0
	err := c.retryPolicy().Do(nil, c.clk, c.retrySeed(r.ostIdx), func(attempt int) error {
		attempts = attempt + 1
		c.m.writeOps.Inc()
		p.Sleep(c.cfg.ClientRPCOverhead)
		// Wire to the OSS.
		ossIdx := c.ossOf(r.ostIdx)
		c.fabric.Transfer(p, client, c.ossNodeID(ossIdx), r.n)
		if o.health == OSTDead {
			c.observeErr(r.ostIdx)
			return &DeadOSTError{OST: r.ostIdx}
		}
		if c.faultFn != nil {
			if err := c.faultFn(true, r.ostIdx, attempt); err != nil {
				c.m.faults.Inc()
				c.observeErr(r.ostIdx)
				return err
			}
		}
		// OSS backend, then OST, asynchronously from the client.
		start := p.Now()
		ossDone := c.oss[ossIdx].serve(start,
			time.Duration(float64(r.n)/c.cfg.OSSBandwidth*1e9))
		primaryDone := c.ostService(o, ossDone, client, l, r, true)
		// The health tracker must see the PRIMARY's own completion time:
		// crediting it with a faster hedged completion would launder a
		// straggler's latency through the spare, hold its EWMA down, and
		// keep the slow-trip breaker from ever opening.
		c.observeOK(r.ostIdx, primaryDone.Sub(start))
		done = primaryDone
		if allowHedge {
			done = c.maybeHedge(p, client, l, r, start, primaryDone)
		}
		// The latency histogram records what the CLIENT experienced — the
		// first completion to land, hedged or not. It feeds both the bench
		// percentiles and the hedge-delay median.
		c.m.writeLatency.ObserveDuration(done.Sub(start))
		// Dirty-lag backpressure: stall until the device is close enough.
		if lag := done.Sub(p.Now()); lag > c.cfg.MaxDirtyLag {
			c.m.clientStalls.Inc()
			p.Sleep(lag - c.cfg.MaxDirtyLag)
		}
		return nil
	})
	if err != nil {
		if resil.Classify(err) == resil.ClassTargetDown {
			return 0, err // dead target: callers may absorb via parity
		}
		return 0, fmt.Errorf("pfs: write to OST %d failed after %d attempt(s): %w",
			r.ostIdx, attempts, err)
	}
	return done, nil
}

// chargeRead books a synchronous client read, with the same transient
// retry policy as writes. On a parity layout with exactly one member
// down, the run is served by parity reconstruction from the survivors.
func (c *Cluster) chargeRead(p *sim.Proc, client int, l *layout, off, n int64) error {
	c.m.bytesRead.Add(n)
	for _, r := range l.stripeRuns(off, n) {
		slot := l.slotOf(r.ostIdx)
		down := c.osts[r.ostIdx].health == OSTDead ||
			(l.parity && slot >= 0 && l.lost[slot])
		if down {
			if l.parity && c.canDegradeRead(l, slot) {
				c.degradedRead(p, client, l, r)
				continue
			}
			return fmt.Errorf("pfs: read of %d bytes unavailable: %w",
				r.n, &DeadOSTError{OST: r.ostIdx})
		}
		if err := c.readRun(p, client, l, r); err != nil {
			return err
		}
	}
	return nil
}

// readRun ships one contiguous read run under the same resil.Policy as
// the write path: transient faults are retried with deterministic
// backoff on the virtual clock, dead targets and fatal faults surface
// immediately.
func (c *Cluster) readRun(p *sim.Proc, client int, l *layout, r run) error {
	attempts := 0
	err := c.retryPolicy().Do(nil, c.clk, c.retrySeed(r.ostIdx), func(attempt int) error {
		attempts = attempt + 1
		c.m.readOps.Inc()
		p.Sleep(c.cfg.ClientRPCOverhead)
		ossIdx := c.ossOf(r.ostIdx)
		// Request travels to the OSS (small), data comes back.
		c.fabric.Transfer(p, client, c.ossNodeID(ossIdx), 128)
		if c.osts[r.ostIdx].health == OSTDead {
			c.observeErr(r.ostIdx)
			return &DeadOSTError{OST: r.ostIdx}
		}
		if c.faultFn != nil {
			if err := c.faultFn(false, r.ostIdx, attempt); err != nil {
				c.m.faults.Inc()
				c.observeErr(r.ostIdx)
				return err
			}
		}
		start := p.Now()
		done := c.ostService(c.osts[r.ostIdx], start, client, l, r, false)
		if wait := done.Sub(p.Now()); wait > 0 {
			p.Sleep(wait)
		}
		c.observeOK(r.ostIdx, done.Sub(start))
		c.m.readLatency.ObserveDuration(done.Sub(start))
		c.fabric.Transfer(p, c.ossNodeID(ossIdx), client, r.n)
		// Client-side copy out of the reply.
		p.Sleep(time.Duration(float64(r.n) / c.cfg.ClientStreamBW * 1e9))
		return nil
	})
	if err != nil {
		if resil.Classify(err) == resil.ClassTargetDown {
			return fmt.Errorf("pfs: read of %d bytes unavailable: %w", r.n, err)
		}
		return fmt.Errorf("pfs: read from OST %d failed after %d attempt(s): %w",
			r.ostIdx, attempts, err)
	}
	return nil
}

// DescribeLayout reports a file's striping, for tests and tooling.
func (c *Cluster) DescribeLayout(path string) (stripeCount int, stripeSize int64, osts []int, err error) {
	l, ok := c.layouts[normalize(path)]
	if !ok {
		return 0, 0, nil, fmt.Errorf("pfs: no layout for %s: %w", path, vfs.ErrNotExist)
	}
	return l.stripeCount, l.stripeSize, append([]int(nil), l.osts...), nil
}
