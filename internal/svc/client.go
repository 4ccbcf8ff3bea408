package svc

import (
	"errors"
	"sort"
	"sync/atomic"

	"lsmio/internal/obs"
	"lsmio/internal/resil"
)

// transport carries a Client's requests to the shards that apply them:
// inProcess for Service.Tenant, fabricConn for Front.Connect.
type transport interface {
	// send delivers req to shard req.shard. A synchronous send waits for
	// the reply; an asynchronous one returns the reply when the
	// transport has one — in-process it does, so an apply error reaches
	// the caller, while over the fabric it surfaces at the tenant's next
	// Barrier (WriteLossError). A non-nil error is a transport fault:
	// req never reached a shard, so a write slot it holds is the
	// caller's to release.
	send(req request, payload int64, sync bool) (reply, error)
}

// inProcess applies each request inline on the caller, on whatever
// runtime the service runs on, so errors — an asynchronous Put's
// included — return synchronously. Values are not copied: the request
// is applied before send returns.
type inProcess struct{ s *Service }

func (t inProcess) send(req request, _ int64, _ bool) (reply, error) {
	return t.s.apply(req), nil
}

// Client is a tenant-scoped client of the service. Each operation —
// admission, the write fence, routing and request-latency accounting —
// is written once here and runs over the client's transport: the
// simulated fabric for a Client from Front.Connect, where every
// operation pays fabric transfer and shard queueing costs, and
// in-process from Service.Tenant, where every method is safe for
// concurrent use. A fabric Client is bound to one simulation process
// at a time.
type Client struct {
	s  *Service
	ts *tenantState
	tr transport
	// retry is the policy for transport faults and shard-down
	// rejections: zero in-process (one attempt), so retries, which
	// counts the attempts after the first, is nil there.
	retry   resil.Policy
	retries *obs.Counter
	closed  atomic.Bool
	// lossAck holds, per shard, the Seq of the latest WriteLossError
	// this client observed: the two-phase-ack token its next barrier
	// echoes so the server knows the loss report was delivered before
	// clearing the ledger.
	lossAck map[int]uint64
}

func (s *Service) newClient(ts *tenantState, tr transport, retry resil.Policy, retries *obs.Counter) *Client {
	return &Client{s: s, ts: ts, tr: tr, retry: retry, retries: retries,
		lossAck: make(map[int]uint64)}
}

// admit runs fair-share admission, sleeping out any delay it imposes.
func (c *Client) admit(nBytes int) error {
	s := c.s
	if c.closed.Load() || s.isClosed() {
		return ErrClosed
	}
	wait, err := s.adm.admit(c.ts, nBytes)
	if err != nil {
		return err
	}
	if wait > 0 {
		s.rt.Sleep(wait)
	}
	return nil
}

// do runs attempt under the retry policy.
func (c *Client) do(seed uint64, attempt func() error) error {
	return c.retry.Do(nil, c.s.rt, seed, func(n int) error {
		if n > 0 {
			c.retries.Inc()
		}
		return attempt()
	})
}

// roundTrip runs a synchronous request under the retry policy.
// Transport faults and shard-down rejections are retried (the shard
// may be back after its restart backoff); every other error —
// including WriteLossError, which only the tenant can resolve by
// replaying the step — surfaces without an internal retry.
func (c *Client) roundTrip(req request, payload int64) (reply, error) {
	var rep reply
	err := c.do(fnv64a(c.ts.name), func() error {
		r, err := c.tr.send(req, payload, true)
		if err != nil {
			return err
		}
		rep = r
		if r.err != nil && errors.As(r.err, new(*ShardDownError)) {
			return r.err
		}
		return nil
	})
	if err != nil {
		return rep, err
	}
	return rep, rep.err
}

// Put stores key for this tenant (asynchronous; durable at the next
// Barrier). Fair-share admission may delay or reject it. Over the
// fabric the value is copied before transmission, and a transfer
// dropped by the fault plan is retried with a fresh write slot per
// attempt.
func (c *Client) Put(key string, value []byte) error { return c.write(opPut, key, value) }

// Del removes key: asynchronous, like Put.
func (c *Client) Del(key string) error { return c.write(opDel, key, nil) }

// write sends one asynchronous Put or Del to the key's shard. Each
// attempt registers its own write slot: a retry must never hold one
// across the backoff sleep, which could deadlock a restart swap's fence.
func (c *Client) write(op reqOp, key string, value []byte) error {
	s := c.s
	start := s.reg.Now()
	if err := c.admit(len(value)); err != nil {
		return err
	}
	nsk := nsKey(c.ts.name, key)
	seed := fnv64a(nsk)
	if op == opDel {
		seed++ // a Del's retry jitter is not its Put's
	}
	err := c.do(seed, func() error {
		s.enterWrites(1)
		rep, err := c.tr.send(request{op: op, shard: route(nsk, len(s.shards)), tenant: c.ts.name,
			key: nsk, value: value, write: true}, int64(len(nsk)+len(value)), false)
		if err != nil {
			s.exitWrite() // the request never reached a shard
			return err
		}
		return rep.err
	})
	c.ts.reqLat.ObserveDuration(s.reg.Now() - start)
	return err
}

// Get returns the tenant's value for key: a synchronous request to the
// owning shard.
func (c *Client) Get(key string) ([]byte, error) {
	s := c.s
	start := s.reg.Now()
	if err := c.admit(0); err != nil {
		return nil, err
	}
	nsk := nsKey(c.ts.name, key)
	rep, err := c.roundTrip(request{op: opGet, shard: route(nsk, len(s.shards)), tenant: c.ts.name, key: nsk},
		int64(len(nsk)))
	c.ts.reqLat.ObserveDuration(s.reg.Now() - start)
	return rep.value, err
}

// Scan calls fn for every tenant key with the given prefix, in key
// order, with the namespace stripped, merging the per-shard sweeps
// client-side. Its request latency ends when the merge is sorted,
// before fn sees the first pair.
func (c *Client) Scan(prefix string, fn func(key string, value []byte) bool) error {
	s := c.s
	start := s.reg.Now()
	if err := c.admit(0); err != nil {
		return err
	}
	ns := nsKey(c.ts.name, prefix)
	strip := len(nsKey(c.ts.name, ""))
	var all []Pair
	for idx := 0; idx < s.Shards(); idx++ {
		rep, err := c.roundTrip(request{op: opScan, shard: idx, tenant: c.ts.name, key: ns},
			int64(len(ns)))
		if err != nil {
			c.ts.reqLat.ObserveDuration(s.reg.Now() - start)
			return err
		}
		all = append(all, rep.pairs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	c.ts.reqLat.ObserveDuration(s.reg.Now() - start)
	for _, pr := range all {
		if !fn(pr.Key[strip:], pr.Value) {
			break
		}
	}
	return nil
}

// Barrier flushes every shard, making all of the tenant's earlier puts
// durable: the tenant's commit point. A barrier refused because a crash
// ate earlier async writes surfaces as a WriteLossError — the tenant
// must replay the step, so it is never retried internally. Observing
// the error records its Seq as the ack token the next barrier carries,
// which is what lets the server clear the loss ledger (two-phase ack:
// the server keeps refusing until the client provably saw a report).
func (c *Client) Barrier() error {
	s := c.s
	start := s.reg.Now()
	if c.closed.Load() || s.isClosed() {
		return ErrClosed
	}
	for idx := 0; idx < s.Shards(); idx++ {
		if _, err := c.roundTrip(request{op: opBarrier, shard: idx, tenant: c.ts.name,
			lossAck: c.lossAck[idx]}, 0); err != nil {
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
// ErrClosed. Only Front.Connect counts a connection in svc.conns.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return ErrClosed
	}
	if _, fabric := c.tr.(fabricConn); fabric {
		c.s.gConns.Add(-1)
	}
	return nil
}
