package svc

import (
	"errors"
	"fmt"
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
// by resil.Policy (frontRetries, frontRetryDelay), so a dropped message, a timed-out reply, or a request
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
//
// Transport faults — dropped messages, attempt timeouts, and shard-down
// rejections — are retried frontRetries times, the first after
// frontRetryDelay, and never past RequestTimeout.
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
}

// The fabric transport's retry policy: one retry, 50µs after the
// failed attempt.
const (
	frontRetries    = 1
	frontRetryDelay = 50 * time.Microsecond
)

func (o FrontOptions) withDefaults() FrontOptions {
	if o.AttemptTimeout <= 0 && o.RequestTimeout > 0 {
		o.AttemptTimeout = o.RequestTimeout / 2
	}
	return o
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

// overWire returns err as the client rebuilds it from a reply that
// crossed the fabric: the sentinels and the typed shard-down and
// write-loss errors travel as data; anything else arrives as its resil
// class and message.
func overWire(err error) error {
	var sde *ShardDownError
	var wle *WriteLossError
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrNotFound):
		return ErrNotFound
	case errors.Is(err, ErrClosed):
		return ErrClosed
	case errors.As(err, &sde):
		d := *sde
		return &d
	case errors.As(err, &wle):
		l := *wle
		return &l
	}
	return &resil.ClassError{C: resil.Classify(err), Msg: err.Error()}
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

// NewFront starts shard server processes over fabric, one per entry
// of shardNodes, which maps shard index to fabric endpoint and must
// cover every shard. The zero FrontOptions means the defaults. Requires
// a service running inside the simulator.
func NewFront(s *Service, fabric *netsim.Fabric, shardNodes []int, opts FrontOptions) *Front {
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
		req := f.queues[idx].Recv(p).(request)
		f.qDepth[idx].SetMax(int64(f.queues[idx].Len() + 1))
		p.Sleep(frontOpCost)
		var rep reply
		if e := f.lost[idx][req.tenant]; req.op == opBarrier && e.n > 0 && req.lossAck < e.seq {
			// A barrier acknowledges every earlier write on this shard —
			// refuse it while accepted-but-lost writes are outstanding
			// for the tenant, so the client never acks a commit the
			// crash ate. The ledger entry is cleared only by a barrier
			// echoing the loss sequence (the two-phase ack): the refusal
			// reply itself can be lost to a drop or attempt timeout, and
			// at-least-once request delivery would then retry the
			// barrier — a delete-on-read ledger would let that retry
			// falsely succeed.
			rep.err = &WriteLossError{Shard: idx, Tenant: req.tenant, Lost: e.n, Seq: e.seq}
		} else {
			if req.op == opBarrier {
				delete(f.lost[idx], req.tenant)
			}
			rep = s.apply(req)
		}
		if rep.err != nil && req.replyTo == nil && !req.dup {
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
		if req.replyTo != nil {
			rep.err = overWire(rep.err)
			req.replyTo.Send(rep)
		}
	}
}

// Connect opens a fabric-transport client for tenant at the given
// fabric endpoint, registering the tenant on first use.
func (f *Front) Connect(tenant string, node int) *Client {
	f.s.gConns.Add(1)
	retry := resil.Policy{MaxRetries: frontRetries, BaseDelay: frontRetryDelay, Timeout: f.opts.RequestTimeout}
	return f.s.newClient(f.s.adm.tenant(tenant, nil), fabricConn{f: f, node: node}, retry, f.cRetries)
}

// fabricConn is one Client's fabric transport: requests and replies
// pay netsim transfer costs between the client's node and the shard's.
type fabricConn struct {
	f    *Front
	node int
}

// send ships one attempt: the request transfer under the fabric's
// fault plan, queueing, and — when sync — the reply wait plus return
// transfer. Transport faults (fabric drop, attempt timeout) come back
// as transient errors; server-side outcomes ride in the reply. A put's
// value is copied first, since the server applies it after send has
// returned.
//
// When AttemptTimeout is set, a daemon timer process bounds the whole
// attempt — including fault-plan delay — by injecting a sentinel into
// the reply queue; each attempt uses a fresh queue, so a late real
// reply lands in an abandoned one and is harmless.
func (t fabricConn) send(req request, payload int64, sync bool) (reply, error) {
	f := t.f
	p := f.s.kern.Current()
	if p == nil {
		panic("svc: fabric Client used outside a simulation process")
	}
	req.value = append([]byte(nil), req.value...)
	// settled is written by this (client) proc and read by the attempt
	// timer proc with no synchronization. That is safe only because
	// NewFront requires simulator mode, where procs are cooperatively
	// scheduled and never run concurrently.
	settled := false
	if sync {
		req.replyTo = sim.NewQueue(f.s.kern, "svc-reply")
		if d := f.opts.AttemptTimeout; d > 0 {
			f.s.kern.Spawn("svc-attempt-timer", func(tp *sim.Proc) {
				tp.Sleep(d)
				if !settled {
					req.replyTo.Send(timeoutSentinel{})
				}
			}).SetDaemon(true)
		}
	}
	dup, err := f.fabric.TryTransfer(p, t.node, f.shardNodes[req.shard], payload+64)
	if err != nil {
		settled = true
		return reply{}, err // dropped; the caller releases any write slot
	}
	f.queues[req.shard].Send(req)
	if dup {
		// Duplicated delivery: the server applies (and, for writes,
		// exitWrites) twice, so register the extra in-flight slot. Both
		// deliveries reply; the first wins, the stale one dies with the
		// queue. Applies are idempotent (put/del/barrier re-apply).
		if req.write {
			f.s.dupWrite()
		}
		dreq := req
		dreq.dup = true
		f.queues[req.shard].Send(dreq)
	}
	if !sync {
		return reply{}, nil
	}
	v := req.replyTo.Recv(p)
	settled = true
	if _, ok := v.(timeoutSentinel); ok {
		f.cTimeouts.Inc()
		return reply{}, &attemptTimeoutError{shard: req.shard, d: f.opts.AttemptTimeout}
	}
	rep := v.(reply)
	size := int64(len(rep.value)) + 32
	for _, pr := range rep.pairs {
		size += int64(len(pr.Key) + len(pr.Value) + 16)
	}
	f.fabric.Transfer(p, f.shardNodes[req.shard], t.node, size)
	return rep, nil
}
