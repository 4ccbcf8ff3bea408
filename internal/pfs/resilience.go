package pfs

// Degraded-mode striping: the resilience layer over the simulated cluster.
//
// Three mechanisms cooperate so checkpoint traffic survives bad storage
// targets instead of stalling or erroring:
//
//   - Fail-stop / slow fault model (SetOSTHealth): an OST can be marked
//     degraded (every request served slow× slower) or dead (requests
//     refused with DeadOSTError). This is distinct from the transient
//     FaultFunc hook — dead is permanent and never retried.
//   - Health tracking + circuit breaking (EnableResilience): every served
//     or failed RPC is observed by a resil.Tracker; newLayout skips
//     breakered OSTs, and straggling stripe writes are hedged to a spare
//     OST after a quantile-calibrated delay.
//   - K+1 XOR parity (ResilientClient): files created by a resilient
//     client stripe over K data OSTs plus one dedicated parity OST with
//     real parity bytes and per-stripe-unit CRCs, so commits stay
//     writable and readable with one member down, and Scrub can verify
//     and rebuild.
//
// DESIGN.md §8 documents the model and its boundary with real Lustre.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"lsmio/internal/resil"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

// OSTHealth is the fail-stop fault-model state of one OST.
type OSTHealth int

const (
	// OSTHealthy serves normally.
	OSTHealthy OSTHealth = iota
	// OSTDegraded serves every request slower by the configured factor.
	OSTDegraded
	// OSTDead refuses every request with DeadOSTError.
	OSTDead
)

func (h OSTHealth) String() string {
	switch h {
	case OSTHealthy:
		return "healthy"
	case OSTDegraded:
		return "degraded"
	case OSTDead:
		return "dead"
	}
	return fmt.Sprintf("health(%d)", int(h))
}

// DeadOSTError reports an RPC refused because the target OST is dead (or
// its stripe member was already absorbed by parity). It is permanent:
// not transient (never retried) and marks itself as a down target so the
// burst drain can distinguish it from retry exhaustion.
type DeadOSTError struct {
	OST int
}

func (e *DeadOSTError) Error() string {
	return fmt.Sprintf("pfs: OST %d is dead", e.OST)
}

// TargetDown marks the failure as a down storage target (vs transient).
func (e *DeadOSTError) TargetDown() bool { return true }

// targetDown reports whether err marks itself as a down-target failure.
func targetDown(err error) bool {
	var t interface{ TargetDown() bool }
	return errors.As(err, &t) && t.TargetDown()
}

// SetOSTHealth sets the fail-stop model state of OST idx. slowFactor is
// the service-time multiplier for OSTDegraded (values ≤ 1 mean "no
// slowdown"); it is ignored for the other states.
func (c *Cluster) SetOSTHealth(idx int, h OSTHealth, slowFactor float64) {
	if idx < 0 || idx >= len(c.osts) {
		panic(fmt.Sprintf("pfs: OST %d out of range", idx))
	}
	o := c.osts[idx]
	o.health = h
	o.slow = slowFactor
}

// Resilience configures the cluster's degraded-mode machinery.
type Resilience struct {
	// Hedge enables hedged stripe writes: when a run's predicted device
	// completion lags the issue time by more than the hedge delay, the
	// run is duplicated to a spare OST and the first completion wins.
	Hedge bool
	// Parity makes clients obtained via ResilientClient create K+1
	// XOR-parity layouts (one extra dedicated parity OST per file).
	Parity bool
	// Tracker tunes the health tracker / circuit breaker.
	Tracker resil.Options
}

// The hedge delay is hedgeFactor × the recent median observed write
// latency, clamped to [hedgeMinDelay, hedgeMaxDelay].
const (
	hedgeFactor   = 1.5
	hedgeMinDelay = time.Millisecond
	hedgeMaxDelay = 500 * time.Millisecond
)

// EnableResilience turns on health tracking (and, per r, hedging and
// parity striping for resilient clients). The tracker's breaker timers
// run on the cluster's virtual clock, its hedge-calibration quantiles
// come from the cluster's pfs.ost.write_latency histogram (the cluster
// records, the tracker reads), and breaker life-cycle events land in
// the cluster's trace ring.
func (c *Cluster) EnableResilience(r Resilience) {
	c.res = r
	topts := c.res.Tracker
	if topts.Latency == nil {
		topts.Latency = c.m.writeLatency
	}
	if topts.Trace == nil {
		topts.Trace = c.m.trace
	}
	c.tracker = resil.New(c.cfg.NumOSTs, func() time.Duration {
		return c.k.Now().Duration()
	}, topts)
}

// Tracker returns the health tracker (nil before EnableResilience).
func (c *Cluster) Tracker() *resil.Tracker { return c.tracker }

// ResilientClient returns a client whose created files use parity
// striping when the cluster's Resilience.Parity is set. EnableResilience
// must have been called.
func (c *Cluster) ResilientClient(nodeID int) *ClientFS {
	if c.tracker == nil {
		panic("pfs: ResilientClient before EnableResilience")
	}
	f := c.Client(nodeID)
	f.parity = c.res.Parity
	return f
}

func (c *Cluster) observeOK(ostIdx int, lat time.Duration) {
	if c.tracker != nil {
		c.tracker.ObserveOK(ostIdx, lat)
	}
}

func (c *Cluster) observeErr(ostIdx int) {
	if c.tracker != nil {
		c.tracker.ObserveErr(ostIdx)
	}
}

// hedgeDelay is the straggler threshold: hedgeFactor × the median
// recent observed write latency, clamped. Zero (no observations yet)
// disables hedging for the request.
func (c *Cluster) hedgeDelay() time.Duration {
	med := c.tracker.Quantile(0.5)
	if med == 0 {
		return 0
	}
	d := time.Duration(float64(med) * hedgeFactor)
	if d < hedgeMinDelay {
		d = hedgeMinDelay
	}
	if d > hedgeMaxDelay {
		d = hedgeMaxDelay
	}
	return d
}

// pickSpare chooses the healthiest routable OST outside layout l (lowest
// EWMA latency), excluding `not`; -1 when none qualifies.
func (c *Cluster) pickSpare(l *layout, not int) int {
	best, bestLat := -1, time.Duration(0)
	for i := 0; i < c.cfg.NumOSTs; i++ {
		if i == not || c.osts[i].health != OSTHealthy {
			continue
		}
		if l.slotOf(i) >= 0 || (l.parity && i == l.parityOST) {
			continue
		}
		if c.tracker != nil && c.tracker.State(i) != resil.Closed {
			continue
		}
		lat := time.Duration(0)
		if c.tracker != nil {
			lat = c.tracker.EWMA(i)
		}
		if best == -1 || lat < bestLat {
			best, bestLat = i, lat
		}
	}
	return best
}

// maybeHedge duplicates a straggling run to a spare OST after the hedge
// delay and returns the effective completion time (first success wins —
// the spare's copy supersedes the primary's). The simulation computes the
// primary's completion synchronously, so "waited past the delay" becomes
// "predicted completion exceeds the delay".
func (c *Cluster) maybeHedge(p *sim.Proc, client int, l *layout, r run, start sim.Time, done sim.Time) sim.Time {
	if c.tracker == nil || !c.res.Hedge {
		return done
	}
	hd := c.hedgeDelay()
	if hd <= 0 || done.Sub(start) <= hd {
		return done
	}
	spare := c.pickSpare(l, r.ostIdx)
	if spare < 0 {
		return done
	}
	c.m.hedges.Inc()
	c.m.writeOps.Inc()
	hedgeStart := start.Duration()
	// The client issues the duplicate RPC once the delay elapses.
	p.Sleep(c.cfg.ClientRPCOverhead)
	ossIdx := c.ossOf(spare)
	c.fabric.Transfer(p, client, c.ossNodeID(ossIdx), r.n)
	t0 := start.Add(hd)
	if now := p.Now(); now > t0 {
		t0 = now
	}
	ossDone := c.oss[ossIdx].serve(t0,
		time.Duration(float64(r.n)/c.cfg.OSSBandwidth*1e9))
	// Spare service: a scratch object, so always a positioning cost and
	// no extent-lock interaction.
	so := c.osts[spare]
	d := c.cfg.OSTOpOverhead + c.cfg.WriteSeek +
		time.Duration(float64(r.n)/c.cfg.OSTSeqWriteBW*1e9)
	if so.health == OSTDegraded && so.slow > 1 {
		d = time.Duration(float64(d) * so.slow)
	}
	spareDone := so.serve(ossDone, d)
	c.observeOK(spare, spareDone.Sub(t0))
	won := spareDone < done
	if won {
		c.m.hedgeWins.Inc()
		done = spareDone
	}
	c.m.trace.EmitSpan("pfs.hedge",
		fmt.Sprintf("primary=%d spare=%d bytes=%d won=%t", r.ostIdx, spare, r.n, won),
		hedgeStart)
	return done
}

// lostMembers reports which data slots (and whether the parity object)
// are unavailable, combining write-time absorption with current health.
func (c *Cluster) lostMembers(l *layout) (dataLost []int, parityLost bool) {
	for slot, ostIdx := range l.osts {
		if l.lost[slot] || c.osts[ostIdx].health == OSTDead {
			dataLost = append(dataLost, slot)
		}
	}
	parityLost = l.parityLost || c.osts[l.parityOST].health == OSTDead
	return dataLost, parityLost
}

// absorbLostWrite marks a data slot as absorbed by parity, if the layout
// can still tolerate it (at most one member lost in total).
func (c *Cluster) absorbLostWrite(l *layout, slot int) bool {
	dataLost, parityLost := c.lostMembers(l)
	for _, s := range dataLost {
		if s != slot {
			return false // a second data member would exceed K+1 tolerance
		}
	}
	if parityLost {
		return false
	}
	l.lost[slot] = true
	c.m.lostStripeWrites.Inc()
	return true
}

// absorbLostParity drops the parity object for new writes when the parity
// OST is dead and all data members are intact (the file degenerates to
// plain RAID-0 until scrub relocates the parity object).
func (c *Cluster) absorbLostParity(l *layout) bool {
	dataLost, _ := c.lostMembers(l)
	if len(dataLost) > 0 {
		return false
	}
	l.parityLost = true
	c.m.lostStripeWrites.Inc()
	return true
}

// canDegradeRead reports whether the layout can serve slot's data by
// reconstruction: exactly that one member down and parity available.
func (c *Cluster) canDegradeRead(l *layout, slot int) bool {
	dataLost, parityLost := c.lostMembers(l)
	if parityLost {
		return false
	}
	return len(dataLost) == 1 && dataLost[0] == slot
}

// degradedRead serves one run by parity reconstruction: the equivalent
// extent is read from every surviving data member plus the parity object,
// and the client XORs them back together. The real bytes are intact in
// the backing store (fail-stop model), so only the cost is booked.
func (c *Cluster) degradedRead(p *sim.Proc, client int, l *layout, r run) {
	c.m.degradedReads.Inc()
	c.m.degradedReadBytes.Add(r.n)
	lostSlot := l.slotOf(r.ostIdx)
	for slot, ostIdx := range l.osts {
		if slot == lostSlot {
			continue
		}
		c.readRun(p, client, l, run{ostIdx: ostIdx, objOff: r.objOff, n: r.n})
	}
	c.readRun(p, client, l, run{ostIdx: l.parityOST, objOff: r.objOff, n: r.n})
	// Client-side XOR of K streams into the result.
	p.Sleep(time.Duration(float64(r.n*int64(l.stripeCount)) / c.cfg.ClientStreamBW * 1e9))
}

// writeParityRun ships the amortized parity update for a write of n file
// bytes: roughly n/K parity bytes (a small write updates its full byte
// range read-modify-write style) to the dedicated parity OST. Parity
// runs hedge like data runs — the parity image lives in the layout, so
// a hedged parity write is the same pure-timing redirect — otherwise a
// slow parity OST would be an unmitigated straggler for every file it
// backs.
func (c *Cluster) writeParityRun(p *sim.Proc, client int, l *layout, off, n int64) (sim.Time, error) {
	if l.parityLost {
		return 0, &DeadOSTError{OST: l.parityOST}
	}
	pn := n / int64(l.stripeCount)
	if pn == 0 {
		pn = n
	}
	c.m.parityBytes.Add(pn)
	r := run{ostIdx: l.parityOST, objOff: off / int64(l.stripeCount), n: pn}
	return c.writeRun(p, client, l, r, true)
}

// Layouts returns the sorted paths of parity-striped files under prefix
// (the scrubber's work list).
func (c *Cluster) Layouts(prefix string) []string {
	prefix = normalize(prefix)
	var out []string
	for p, l := range c.layouts {
		if !l.parity {
			continue
		}
		if prefix == "." || p == prefix || len(p) > len(prefix) && p[:len(prefix)] == prefix && p[len(prefix)] == '/' {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Files         int
	Verified      int // stripe units whose checksum matched
	Repaired      int // stripe units rebuilt (relocation or corruption)
	Unrecoverable int // stripe units lost beyond parity's tolerance
}

// Scrub runs one scrub pass over every parity-striped file under dir:
// it verifies per-stripe-unit checksums, rebuilds corrupted units from
// parity, and relocates members living on dead OSTs onto healthy spares
// (remapping the layout). I/O time is charged to the calling process.
func (f *ClientFS) Scrub(dir string) (ScrubReport, error) {
	c := f.c
	p := c.cur()
	var rep ScrubReport
	for _, path := range c.Layouts(dir) {
		l := c.layouts[path]
		rep.Files++
		size, err := c.store.Stat(path)
		if err != nil {
			return rep, fmt.Errorf("pfs: scrub stat %s: %w", path, err)
		}
		units := finalizedUnits(l)
		dataLost, parityLost := c.lostMembers(l)
		if len(dataLost)+btoi(parityLost) > 1 {
			rep.Unrecoverable += len(units)
			c.m.scrubUnrecoverable.Add(int64(len(units)))
			continue
		}
		if len(dataLost) == 1 {
			n, err := c.rebuildDataMember(p, f.nodeID, path, l, dataLost[0], size, units)
			if err != nil {
				return rep, err
			}
			rep.Repaired += n
			c.m.scrubRepaired.Add(int64(n))
		} else if parityLost {
			if err := c.relocateParity(p, f.nodeID, path, l, size); err != nil {
				return rep, err
			}
			rep.Repaired++
			c.m.scrubRepaired.Add(1)
		}
		v, r, u, err := c.verifyUnits(p, f.nodeID, path, l, size, units)
		if err != nil {
			return rep, err
		}
		rep.Verified += v
		rep.Repaired += r
		rep.Unrecoverable += u
		c.m.scrubVerified.Add(int64(v))
		c.m.scrubRepaired.Add(int64(r))
		c.m.scrubUnrecoverable.Add(int64(u))
	}
	return rep, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// finalizedUnits returns the sorted stripe-unit indexes with a CRC.
func finalizedUnits(l *layout) []int64 {
	units := make([]int64, 0, len(l.crc))
	for ci := range l.crc {
		units = append(units, ci)
	}
	sort.Slice(units, func(a, b int) bool { return units[a] < units[b] })
	return units
}

// unitLen is the byte length of stripe unit ci in a file of `size` bytes.
func unitLen(l *layout, ci, size int64) int64 {
	start := ci * l.stripeSize
	if start >= size {
		return 0
	}
	n := l.stripeSize
	if start+n > size {
		n = size - start
	}
	return n
}

// rebuildDataMember relocates a lost data member's finalized units onto a
// healthy spare OST: every survivor (including parity) is read and the
// member's units are rewritten to the spare, then the layout is remapped.
// Returns how many units were rebuilt.
func (c *Cluster) rebuildDataMember(p *sim.Proc, client int, path string, l *layout, slot int, size int64, units []int64) (int, error) {
	spare := c.pickSpare(l, -1)
	if spare < 0 {
		return 0, fmt.Errorf("pfs: scrub %s: no healthy spare OST to rebuild slot %d", path, slot)
	}
	rebuilt := 0
	for _, ci := range units {
		if int(ci%int64(l.stripeCount)) != slot {
			continue
		}
		n := unitLen(l, ci, size)
		if n == 0 {
			continue
		}
		objOff := (ci / int64(l.stripeCount)) * l.stripeSize
		// Read the row from every survivor plus parity, XOR, write to the
		// spare. The whole row's I/O buys Scrub-class tokens up front so
		// a rebuild storm is paced against foreground traffic.
		c.scrubAcquire(n * int64(len(l.osts)+1))
		for s, ostIdx := range l.osts {
			if s == slot {
				continue
			}
			c.readRun(p, client, l, run{ostIdx: ostIdx, objOff: objOff, n: n})
		}
		c.readRun(p, client, l, run{ostIdx: l.parityOST, objOff: objOff, n: n})
		if _, err := c.writeRun(p, client, l, run{ostIdx: spare, objOff: objOff, n: n}, false); err != nil {
			return rebuilt, fmt.Errorf("pfs: scrub %s: rebuild write: %w", path, err)
		}
		rebuilt++
	}
	l.osts[slot] = spare
	delete(l.lost, slot)
	return rebuilt, nil
}

// relocateParity recomputes the parity object on a healthy spare after
// the parity OST died: every data member is read and parity rewritten.
func (c *Cluster) relocateParity(p *sim.Proc, client int, path string, l *layout, size int64) error {
	spare := c.pickSpare(l, -1)
	if spare < 0 {
		return fmt.Errorf("pfs: scrub %s: no healthy spare OST for parity", path)
	}
	pn := size / int64(l.stripeCount)
	if pn == 0 {
		pn = size
	}
	c.scrubAcquire(pn * int64(len(l.osts)+1))
	for _, ostIdx := range l.osts {
		c.readRun(p, client, l, run{ostIdx: ostIdx, objOff: 0, n: pn})
	}
	if _, err := c.writeRun(p, client, l, run{ostIdx: spare, objOff: 0, n: pn}, false); err != nil {
		return fmt.Errorf("pfs: scrub %s: parity rewrite: %w", path, err)
	}
	l.parityOST = spare
	l.parityLost = false
	// The in-memory parity bytes were maintained through every write, so
	// the relocated object is immediately authoritative.
	return nil
}

// verifyUnits checks every finalized unit on live members against its
// CRC, reconstructing corrupted units from the real parity bytes.
func (c *Cluster) verifyUnits(p *sim.Proc, client int, path string, l *layout, size int64, units []int64) (verified, repaired, unrecoverable int, err error) {
	file, err := c.store.Open(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("pfs: scrub open %s: %w", path, err)
	}
	defer file.Close()
	buf := make([]byte, l.stripeSize)
	for _, ci := range units {
		n := unitLen(l, ci, size)
		if n == 0 {
			continue
		}
		slot := int(ci % int64(l.stripeCount))
		objOff := (ci / int64(l.stripeCount)) * l.stripeSize
		c.scrubAcquire(n)
		c.readRun(p, client, l, run{ostIdx: l.osts[slot], objOff: objOff, n: n})
		got, rerr := readFull(file, buf[:n], ci*l.stripeSize)
		if rerr != nil {
			return verified, repaired, unrecoverable, fmt.Errorf("pfs: scrub read %s unit %d: %w", path, ci, rerr)
		}
		if crc32.ChecksumIEEE(got) == l.crc[ci] {
			verified++
			continue
		}
		// Reconstruct from siblings + parity and write the true bytes back.
		fixed, ferr := c.reconstructUnit(p, client, file, l, ci, size)
		if ferr != nil {
			return verified, repaired, unrecoverable, ferr
		}
		if crc32.ChecksumIEEE(fixed) != l.crc[ci] {
			unrecoverable++
			continue
		}
		if _, werr := file.WriteAt(fixed, ci*l.stripeSize); werr != nil {
			return verified, repaired, unrecoverable, fmt.Errorf("pfs: scrub rewrite %s unit %d: %w", path, ci, werr)
		}
		c.scrubAcquire(n)
		if _, werr := c.writeRun(p, client, l, run{ostIdx: l.osts[slot], objOff: objOff, n: n}, false); werr != nil {
			return verified, repaired, unrecoverable, fmt.Errorf("pfs: scrub rewrite %s unit %d: %w", path, ci, werr)
		}
		repaired++
	}
	return verified, repaired, unrecoverable, nil
}

// reconstructUnit rebuilds stripe unit ci's original bytes from the
// sibling units in its row XORed with the maintained parity bytes.
func (c *Cluster) reconstructUnit(p *sim.Proc, client int, file vfs.File, l *layout, ci, size int64) ([]byte, error) {
	k := int64(l.stripeCount)
	row := ci / k
	slot := int(ci % k)
	n := unitLen(l, ci, size)
	out := make([]byte, n)
	pOff := row * l.stripeSize
	for i := int64(0); i < n; i++ {
		if pOff+i < int64(len(l.pdata)) {
			out[i] = l.pdata[pOff+i]
		}
	}
	buf := make([]byte, l.stripeSize)
	objOff := row * l.stripeSize
	for s := 0; s < int(k); s++ {
		if s == slot {
			continue
		}
		sib := row*k + int64(s)
		sn := unitLen(l, sib, size)
		if sn == 0 {
			continue
		}
		c.scrubAcquire(sn)
		c.readRun(p, client, l, run{ostIdx: l.osts[s], objOff: objOff, n: sn})
		got, err := readFull(file, buf[:sn], sib*l.stripeSize)
		if err != nil {
			return nil, fmt.Errorf("pfs: scrub reconstruct unit %d: %w", ci, err)
		}
		for i := 0; i < len(got) && int64(i) < n; i++ {
			out[i] ^= got[i]
		}
	}
	c.scrubAcquire(n)
	c.readRun(p, client, l, run{ostIdx: l.parityOST, objOff: objOff, n: n})
	return out, nil
}

// readFull reads exactly len(buf) bytes at off (the unit is known to be
// inside the file).
func readFull(file vfs.File, buf []byte, off int64) ([]byte, error) {
	n, err := file.ReadAt(buf, off)
	if n == len(buf) {
		return buf, nil
	}
	return nil, err
}
