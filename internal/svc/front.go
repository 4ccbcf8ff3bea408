package svc

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"lsmio/internal/netsim"
	"lsmio/internal/obs"
	"lsmio/internal/resil"
	"lsmio/internal/sim"
)

// Front is the simulated-fabric transport for a Service: one server
// process per shard slot, each draining a FIFO request queue, with
// clients on compute nodes paying netsim transfer costs for requests
// and replies. It is the sharded, multi-tenant form of the paper's §5.1
// group store; admission control runs client-side
// (modelling credit-based flow control), so a throttled tenant's
// requests never occupy fabric or shard-queue capacity.
//
// Under a netsim fault plan the front is the layer that keeps requests
// alive: every client operation carries an optional end-to-end deadline
// (FrontOptions.RequestTimeout) and a bounded sequential retry driven
// by resil.Policy, so a dropped message, a timed-out reply, or a request
// that raced a shard restart is retried once before the typed transient
// error surfaces — and never after the caller's deadline has passed
// (deadline expiry classifies as resil.ClassCanceled).
type Front struct {
	s          *Service
	fabric     *netsim.Fabric
	shardNodes []int
	opts       FrontOptions
	queues     []*sim.Queue
	qDepth     []*obs.Gauge
	// lost tracks asynchronous writes a shard server accepted but lost
	// before application (the shard crashed mid-request), per tenant.
	// Each slot's map and sequence counter are owned by that slot's
	// server process. lossSeq only grows, so an ack token issued for an
	// earlier loss can never clear an entry recorded after it.
	lost    []map[string]lossEntry
	lossSeq []uint64

	cRetries  *obs.Counter
	cTimeouts *obs.Counter
	cLost     *obs.Counter
}

// FrontOptions tunes the fabric transport's fault handling. The zero
// value keeps historical behavior (no deadlines, no extra virtual-time
// events) apart from the bounded retry, which only fires on transport
// faults that previously surfaced raw.
type FrontOptions struct {
	// RequestTimeout bounds one client operation end to end — attempts
	// plus backoff — on virtual time. Expiry surfaces as an error
	// wrapping context.DeadlineExceeded (resil.ClassCanceled: the
	// caller gave up, so retries never fire past it). Zero means
	// no deadline.
	RequestTimeout time.Duration
	// AttemptTimeout bounds one reply wait. A timed-out attempt counts
	// as a transient transport fault and is retried. Zero
	// defaults to RequestTimeout/2 (no per-attempt bound when both are
	// zero).
	AttemptTimeout time.Duration
	// Retry is the retry policy for transport faults: dropped
	// messages, attempt timeouts, and shard-down rejections. Zero
	// MaxRetries defaults to 1 (one retry); zero BaseDelay to
	// 50µs. Retry.Timeout is overwritten with RequestTimeout.
	Retry resil.Policy
}

func (o FrontOptions) withDefaults() FrontOptions {
	if o.Retry.MaxRetries <= 0 {
		o.Retry.MaxRetries = 1
	}
	if o.Retry.BaseDelay <= 0 {
		o.Retry.BaseDelay = 50 * time.Microsecond
	}
	if o.AttemptTimeout <= 0 && o.RequestTimeout > 0 {
		o.AttemptTimeout = o.RequestTimeout / 2
	}
	o.Retry.Timeout = o.RequestTimeout
	return o
}

type frontOp int

const (
	fopPut frontOp = iota
	fopDel
	fopGet
	fopScan
	fopBarrier
	fopStop
)

type frontReq struct {
	op     frontOp
	shard  int
	tenant string
	key    string // namespaced key (or scan prefix)
	value  []byte
	write  bool // registered via enterWrites; server must exitWrite
	dup    bool // fault-plan duplicated delivery of an already-sent request
	// lossAck (barriers only) echoes the Seq of the latest WriteLossError
	// the client observed for this shard — the two-phase ack that lets
	// the server clear its loss ledger.
	lossAck uint64
	reply   *sim.Queue
}

// lossEntry is one tenant's outstanding lost-write record on a shard:
// how many accepted-but-lost async writes, and the slot's sequence
// number at the latest loss. The sequence is the two-phase-ack token —
// a WriteLossError carries it, and only a barrier echoing a sequence at
// least this new clears the entry, proving the tenant observed the
// report even if earlier refusal replies were eaten by the fault plan.
type lossEntry struct {
	n   int
	seq uint64
}

// frontRep is a reply as it would cross the wire: values, flags, and
// plain-old-data error payloads (the typed errors the client must be
// able to reconstruct — sentinels, shard-down, write-loss — travel as
// data; everything else degrades to a resil class + message).
type frontRep struct {
	value    []byte
	pairs    []Pair
	notFound bool
	closed   bool
	down     *ShardDownError
	loss     *WriteLossError
	errClass resil.Class
	errMsg   string
}

func (rep *frontRep) encodeErr(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, ErrNotFound) {
		rep.notFound = true
		return
	}
	if errors.Is(err, ErrClosed) {
		rep.closed = true
		return
	}
	var sde *ShardDownError
	if errors.As(err, &sde) {
		rep.down = sde
		return
	}
	var wle *WriteLossError
	if errors.As(err, &wle) {
		rep.loss = wle
		return
	}
	rep.errClass = resil.Classify(err)
	rep.errMsg = err.Error()
}

func (rep *frontRep) decodeErr() error {
	switch {
	case rep.notFound:
		return ErrNotFound
	case rep.closed:
		return ErrClosed
	case rep.down != nil:
		d := *rep.down
		return &d
	case rep.loss != nil:
		l := *rep.loss
		return &l
	}
	if rep.errMsg == "" && rep.errClass == resil.ClassOK {
		return nil
	}
	return &resil.ClassError{C: rep.errClass, Msg: rep.errMsg}
}

// WriteLossError reports asynchronous writes a shard server accepted
// but lost before they were applied (the shard crashed with them in
// flight). It surfaces on the tenant's next Barrier against that shard
// so a commit covering lost writes is never acknowledged; transient,
// because re-running the step's writes and re-barriering succeeds once
// the shard is back. The front never auto-retries it — only the tenant
// can replay the lost writes.
type WriteLossError struct {
	Shard  int
	Tenant string
	Lost   int
	// Seq is the two-phase-ack token: the tenant's next barrier to this
	// shard echoes it (Client does so automatically), proving the report
	// was delivered before the server clears its loss ledger. Without
	// it, a refusal reply lost to a timeout or drop would let the
	// barrier's retry find an emptied ledger and falsely acknowledge the
	// commit.
	Seq uint64
}

func (e *WriteLossError) Error() string {
	return fmt.Sprintf("svc: shard %d lost %d async write(s) for tenant %q before barrier",
		e.Shard, e.Lost, e.Tenant)
}

// TransientFault marks the error retryable (by replaying the step).
func (e *WriteLossError) TransientFault() bool { return true }

// attemptTimeoutError reports one reply wait exceeding AttemptTimeout.
// Transient: the reply may be stuck behind a dying shard, and a retry
// on a fresh reply queue can still win.
type attemptTimeoutError struct {
	shard int
	d     time.Duration
}

func (e *attemptTimeoutError) Error() string {
	return fmt.Sprintf("svc: shard %d reply timed out after %v", e.shard, e.d)
}

func (e *attemptTimeoutError) TransientFault() bool { return true }

// timeoutSentinel is what the attempt timer injects into a reply queue.
type timeoutSentinel struct{}

// frontOpCost models the per-request CPU the shard server spends on
// decode/dispatch.
const frontOpCost = 3 * time.Microsecond

// NewFront starts shard server processes over fabric with default
// options. shardNodes maps shard index to fabric endpoint and must be
// sized for the largest shard count the service will ever rebalance
// to. Requires a service running inside the simulator.
func NewFront(s *Service, fabric *netsim.Fabric, shardNodes []int) *Front {
	return NewFrontOpts(s, fabric, shardNodes, FrontOptions{})
}

// NewFrontOpts is NewFront with explicit fault-handling options.
func NewFrontOpts(s *Service, fabric *netsim.Fabric, shardNodes []int, opts FrontOptions) *Front {
	if s.kern == nil {
		panic("svc: NewFront requires a simulator-mode service")
	}
	if len(shardNodes) < s.Shards() {
		panic("svc: shardNodes must cover every shard")
	}
	f := &Front{
		s:          s,
		fabric:     fabric,
		shardNodes: shardNodes,
		opts:       opts.withDefaults(),
		cRetries:   s.reg.Counter("svc.front.retries"),
		cTimeouts:  s.reg.Counter("svc.front.attempt_timeouts"),
		cLost:      s.reg.Counter("svc.front.lost_writes"),
	}
	for i := range shardNodes {
		i := i
		f.queues = append(f.queues, sim.NewQueue(s.kern, fmt.Sprintf("svc-shard%d", i)))
		f.qDepth = append(f.qDepth, s.reg.Gauge(fmt.Sprintf("svc.shard.%03d.queue_max", i)))
		f.lost = append(f.lost, make(map[string]lossEntry))
		f.lossSeq = append(f.lossSeq, 0)
		s.kern.Spawn(fmt.Sprintf("svc-shard-%d", i), func(p *sim.Proc) {
			f.serve(p, i)
		}).SetDaemon(true)
	}
	return f
}

// serve is one shard's server loop: FIFO application of requests onto
// the shard's Manager, with write-fence bookkeeping (a write counts as
// in flight from client admission until it is applied here).
func (f *Front) serve(p *sim.Proc, idx int) {
	s := f.s
	for {
		req := f.queues[idx].Recv(p).(frontReq)
		if req.op == fopStop {
			if req.reply != nil {
				req.reply.Send(frontRep{})
			}
			return
		}
		f.qDepth[idx].SetMax(int64(f.queues[idx].Len() + 1))
		p.Sleep(frontOpCost)
		var rep frontRep
		var err error
		sh := s.shardAt(req.shard)
		if sh == nil {
			// Routed by a ring the client saw before a shrink flip:
			// transient, the retry re-routes under the new ring.
			err = &resil.ClassError{C: resil.ClassTransient,
				Msg: fmt.Sprintf("svc: shard %d not in pool", req.shard)}
		} else {
			switch req.op {
			case fopPut:
				err = s.applyPut(sh, req.key, req.value)
			case fopDel:
				err = s.applyDel(sh, req.key)
			case fopGet:
				rep.value, err = s.applyGet(sh, req.key)
			case fopScan:
				ring, _ := s.snapshotRing()
				rep.pairs, err = s.scanShard(ring, sh, req.key)
			case fopBarrier:
				// A barrier acknowledges every earlier write on this
				// shard — refuse it while accepted-but-lost writes are
				// outstanding for the tenant, so the client never acks
				// a commit the crash ate. The ledger entry is cleared
				// only by a barrier echoing the loss sequence (the
				// two-phase ack): the refusal reply itself can be lost
				// to a drop or attempt timeout, and at-least-once
				// request delivery would then retry the barrier —
				// a delete-on-read ledger would let that retry falsely
				// succeed.
				if e := f.lost[idx][req.tenant]; e.n > 0 {
					if req.lossAck >= e.seq {
						delete(f.lost[idx], req.tenant)
						err = s.applyBarrier(sh)
					} else {
						err = &WriteLossError{Shard: idx, Tenant: req.tenant, Lost: e.n, Seq: e.seq}
					}
				} else {
					err = s.applyBarrier(sh)
				}
			}
		}
		if req.write {
			s.exitWrite()
		}
		if err != nil && req.reply == nil && !req.dup {
			// Asynchronous writes have no reply to carry the error:
			// record the loss against the tenant so its next Barrier
			// fails instead of falsely acknowledging the step. A
			// fault-plan duplicated delivery is the same logical write —
			// only the primary delivery may record its loss, or one lost
			// put would be ledgered (and counted) twice.
			s.cApplyErrs.Inc()
			f.cLost.Inc()
			if req.tenant != "" {
				f.lossSeq[idx]++
				e := f.lost[idx][req.tenant]
				e.n++
				e.seq = f.lossSeq[idx]
				f.lost[idx][req.tenant] = e
			}
		}
		rep.encodeErr(err)
		if req.reply != nil {
			req.reply.Send(rep)
		}
	}
}

// Stop shuts every shard server down (mainly for tests; the servers
// are daemons and do not hold the simulation open).
func (f *Front) Stop(p *sim.Proc) {
	for _, q := range f.queues {
		reply := sim.NewQueue(f.s.kern, "svc-stop")
		q.Send(frontReq{op: fopStop, reply: reply})
		reply.Recv(p)
	}
}

// Connect opens a tenant client at the given fabric endpoint,
// registering the tenant on first use.
func (f *Front) Connect(tenant string, node int) *Client {
	f.s.gConns.Add(1)
	return &Client{f: f, ts: f.s.adm.tenant(tenant, nil), node: node,
		lossAck: make(map[int]uint64)}
}

// Client is the fabric-transport tenant client. It mirrors Tenant's
// semantics with every operation paying fabric transfer and shard
// queueing costs. A Client is bound to one simulation process at a
// time.
type Client struct {
	f      *Front
	ts     *tenantState
	node   int
	closed bool
	// lossAck holds, per shard, the Seq of the latest WriteLossError
	// this client observed: the two-phase-ack token its next barrier
	// echoes so the server knows the loss report was delivered before
	// clearing the ledger.
	lossAck map[int]uint64
}

// Tenant returns the tenant name the client is bound to.
func (c *Client) Tenant() string { return c.ts.name }

func (c *Client) proc() *sim.Proc {
	p := c.f.s.kern.Current()
	if p == nil {
		panic("svc: fabric Client used outside a simulation process")
	}
	return p
}

// admit runs client-side admission, sleeping out any fair-share delay.
func (c *Client) admit(nBytes, nOps int) error {
	s := c.f.s
	if c.closed || s.isClosed() {
		return ErrClosed
	}
	wait, err := s.adm.admit(c.ts, nBytes, nOps)
	if err != nil {
		return err
	}
	if wait > 0 {
		c.proc().Sleep(wait)
	}
	return nil
}

// sendOnce ships one attempt: the request transfer under the fabric's
// fault plan, queueing, and — when sync — the reply wait plus return
// transfer. Transport faults (fabric drop, attempt timeout) come back
// as transient errors; server-side outcomes ride in the reply.
//
// When AttemptTimeout is set, a daemon timer process bounds the whole
// attempt — including fault-plan delay — by injecting a sentinel into
// the reply queue; each attempt uses a fresh queue, so a late real
// reply lands in an abandoned one and is harmless.
func (c *Client) sendOnce(req frontReq, payload int64, sync bool) (frontRep, error) {
	p := c.proc()
	// settled is written by this (client) proc and read by the attempt
	// timer proc with no synchronization. That is safe only because
	// NewFront requires simulator mode, where procs are cooperatively
	// scheduled and never run concurrently; goroutine-mode reuse of this
	// pattern would need an atomic.Bool.
	settled := false
	if sync {
		req.reply = sim.NewQueue(c.f.s.kern, "svc-reply")
		if d := c.f.opts.AttemptTimeout; d > 0 {
			c.f.s.kern.Spawn("svc-attempt-timer", func(tp *sim.Proc) {
				tp.Sleep(d)
				if !settled {
					req.reply.Send(timeoutSentinel{})
				}
			}).SetDaemon(true)
		}
	}
	dup, err := c.f.fabric.TryTransfer(p, c.node, c.f.shardNodes[req.shard], payload+64)
	if err != nil {
		settled = true
		return frontRep{}, err // dropped; the caller releases any write slot
	}
	c.f.queues[req.shard].Send(req)
	if dup {
		// Duplicated delivery: the server applies (and, for writes,
		// exitWrites) twice, so register the extra in-flight slot. Both
		// deliveries reply; the first wins, the stale one dies with the
		// queue. Applies are idempotent (put/del/barrier re-apply).
		if req.write {
			c.f.s.dupWrite()
		}
		dreq := req
		dreq.dup = true
		c.f.queues[req.shard].Send(dreq)
	}
	if !sync {
		return frontRep{}, nil
	}
	v := req.reply.Recv(p)
	settled = true
	if _, ok := v.(timeoutSentinel); ok {
		c.f.cTimeouts.Inc()
		return frontRep{}, &attemptTimeoutError{shard: req.shard, d: c.f.opts.AttemptTimeout}
	}
	rep := v.(frontRep)
	size := int64(len(rep.value)) + 32
	for _, pr := range rep.pairs {
		size += int64(len(pr.Key) + len(pr.Value) + 16)
	}
	c.f.fabric.Transfer(p, c.f.shardNodes[req.shard], c.node, size)
	return rep, nil
}

// roundTrip runs a synchronous request under the retry policy.
// Transport faults and shard-down rejections are retried (the shard
// may be back after its restart backoff); every other server-side
// error — including WriteLossError, which only the tenant can resolve
// by replaying the step — surfaces without an internal retry.
func (c *Client) roundTrip(mk func() frontReq, payload int64) (frontRep, error) {
	var rep frontRep
	var appErr error
	pol := c.f.opts.Retry
	err := pol.Do(nil, c.f.s.rt, fnv64a(c.ts.name), func(attempt int) error {
		if attempt > 0 {
			c.f.cRetries.Inc()
		}
		r, err := c.sendOnce(mk(), payload, true)
		if err != nil {
			return err
		}
		rep, appErr = r, r.decodeErr()
		var sde *ShardDownError
		if errors.As(appErr, &sde) {
			return appErr
		}
		return nil
	})
	if err != nil {
		return rep, err
	}
	return rep, appErr
}

// Put stores key (asynchronous; durable at the next Barrier). The
// value is copied before transmission. A transfer dropped by the fault
// plan is retried with a fresh write slot per attempt.
func (c *Client) Put(key string, value []byte) error {
	s := c.f.s
	start := s.reg.Now()
	if err := c.admit(len(value), 1); err != nil {
		return err
	}
	nsk := nsKey(c.ts.name, key)
	val := append([]byte(nil), value...)
	pol := c.f.opts.Retry
	err := pol.Do(nil, c.f.s.rt, fnv64a(nsk), func(attempt int) error {
		if attempt > 0 {
			c.f.cRetries.Inc()
		}
		s.enterWrites(1)
		req := frontReq{op: fopPut, shard: s.routeIdx(nsk), tenant: c.ts.name,
			key: nsk, value: val, write: true}
		_, err := c.sendOnce(req, int64(len(nsk)+len(val)), false)
		if err != nil {
			s.exitWrite() // the message never reached a server
		}
		return err
	})
	c.ts.reqLat.ObserveDuration(s.reg.Now() - start)
	return err
}

// Del removes key, shadowing the delete onto the rebalance-target
// shard when a migration is in flight.
func (c *Client) Del(key string) error {
	s := c.f.s
	start := s.reg.Now()
	if err := c.admit(0, 1); err != nil {
		return err
	}
	nsk := nsKey(c.ts.name, key)
	pol := c.f.opts.Retry
	err := pol.Do(nil, c.f.s.rt, fnv64a(nsk)+1, func(attempt int) error {
		if attempt > 0 {
			c.f.cRetries.Inc()
		}
		// Register both slots before routing (so a ring flip cannot
		// slip between routing and shipping). Each attempt registers
		// its own slots: a retry must never hold a slot across the
		// backoff sleep, which could deadlock a cutover fence.
		s.enterWrites(2)
		idx := s.routeIdx(nsk)
		shadow := s.shadowIdx(nsk)
		if _, err := c.sendOnce(frontReq{op: fopDel, shard: idx, tenant: c.ts.name,
			key: nsk, write: true}, int64(len(nsk)), false); err != nil {
			s.exitWrite()
			s.exitWrite()
			return err
		}
		if shadow < 0 {
			s.exitWrite() // the shadow slot went unused
			return nil
		}
		_, err := c.sendOnce(frontReq{op: fopDel, shard: shadow, tenant: c.ts.name,
			key: nsk, write: true}, int64(len(nsk)), false)
		if err != nil {
			s.exitWrite() // lost in the fabric; the retry re-deletes both
		}
		return err
	})
	c.ts.reqLat.ObserveDuration(s.reg.Now() - start)
	return err
}

// Get fetches the tenant's value for key: a synchronous round trip to
// the owning shard (re-routed on every retry attempt).
func (c *Client) Get(key string) ([]byte, error) {
	s := c.f.s
	start := s.reg.Now()
	if err := c.admit(0, 1); err != nil {
		return nil, err
	}
	nsk := nsKey(c.ts.name, key)
	rep, err := c.roundTrip(func() frontReq {
		return frontReq{op: fopGet, shard: s.routeIdx(nsk), tenant: c.ts.name, key: nsk}
	}, int64(len(nsk)))
	c.ts.reqLat.ObserveDuration(s.reg.Now() - start)
	return rep.value, err
}

// Scan streams the tenant's keys under prefix in key order (namespace
// stripped), merging per-shard sweeps client-side.
func (c *Client) Scan(prefix string, fn func(key string, value []byte) bool) error {
	s := c.f.s
	if err := c.admit(0, 1); err != nil {
		return err
	}
	ns := nsKey(c.ts.name, prefix)
	strip := len(nsKey(c.ts.name, ""))
	var all []Pair
	for idx := 0; idx < s.Shards(); idx++ {
		idx := idx
		rep, err := c.roundTrip(func() frontReq {
			return frontReq{op: fopScan, shard: idx, tenant: c.ts.name, key: ns}
		}, int64(len(ns)))
		if err != nil {
			return err
		}
		all = append(all, rep.pairs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	for _, pr := range all {
		if !fn(pr.Key[strip:], pr.Value) {
			break
		}
	}
	return nil
}

// Barrier flushes every shard: the tenant's commit point. A barrier
// refused because the crash ate earlier async writes surfaces as a
// WriteLossError — the tenant must replay the step, so the front never
// retries it internally. Observing the error records its Seq as the
// ack token the next barrier carries, which is what lets the server
// clear the loss ledger (two-phase ack: the server keeps refusing
// until the client provably saw a report).
func (c *Client) Barrier() error {
	s := c.f.s
	start := s.reg.Now()
	if c.closed || s.isClosed() {
		return ErrClosed
	}
	for idx := 0; idx < s.Shards(); idx++ {
		idx := idx
		if _, err := c.roundTrip(func() frontReq {
			return frontReq{op: fopBarrier, shard: idx, tenant: c.ts.name,
				lossAck: c.lossAck[idx]}
		}, 0); err != nil {
			var wle *WriteLossError
			if errors.As(err, &wle) {
				c.lossAck[wle.Shard] = wle.Seq
			}
			return err
		}
	}
	c.ts.reqLat.ObserveDuration(s.reg.Now() - start)
	return nil
}

// Close releases the client's connection; later calls return
// ErrClosed.
func (c *Client) Close() error {
	if c.closed {
		return ErrClosed
	}
	c.closed = true
	c.f.s.gConns.Add(-1)
	return nil
}
