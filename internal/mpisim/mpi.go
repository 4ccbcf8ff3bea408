// Package mpisim is a simulated MPI runtime. Ranks are processes on the
// discrete-event kernel, one per simulated compute node, exchanging
// messages over a netsim.Fabric so that every point-to-point and collective
// operation is charged a realistic virtual-time cost (latency, bandwidth,
// NIC contention).
//
// The subset implemented is what HPC checkpointing middleware and the IOR
// benchmark need: Send/Recv with tags, Barrier, Allreduce and Gather.
// Barrier and Allreduce use binomial-tree algorithms like a real MPI
// implementation, so their cost scales as O(log P) in latency.
package mpisim

import (
	"fmt"
	"time"

	"lsmio/internal/netsim"
	"lsmio/internal/sim"
)

// World is an MPI job: a set of ranks over a fabric.
type World struct {
	k      *sim.Kernel
	fabric *netsim.Fabric
	size   int
	ranks  []*Rank
}

// NewWorld creates a world with size ranks, where rank i lives on fabric
// node i.
func NewWorld(k *sim.Kernel, fabric *netsim.Fabric, size int) *World {
	if size <= 0 || size > fabric.Nodes() {
		panic(fmt.Sprintf("mpisim: size %d exceeds fabric nodes %d", size, fabric.Nodes()))
	}
	w := &World{k: k, fabric: fabric, size: size}
	w.ranks = make([]*Rank, size)
	for i := 0; i < size; i++ {
		w.ranks[i] = &Rank{
			world:   w,
			rank:    i,
			inboxes: make(map[msgKey]*sim.Queue),
		}
	}
	return w
}

// Launch spawns one process per rank running body and returns immediately;
// the caller runs the kernel to completion.
func (w *World) Launch(body func(r *Rank)) {
	for i := 0; i < w.size; i++ {
		r := w.ranks[i]
		w.k.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			r.proc = p
			body(r)
		})
	}
}

// Run is a convenience that launches body on every rank and runs the
// kernel to completion.
func (w *World) Run(body func(r *Rank)) error {
	w.Launch(body)
	return w.k.Run()
}

type msgKey struct {
	src int
	tag int
}

type message struct {
	data any
	size int64
}

// Rank is one MPI process. All methods must be called from the rank's own
// process (the body function passed to Launch).
type Rank struct {
	world   *World
	rank    int
	proc    *sim.Proc
	inboxes map[msgKey]*sim.Queue
}

// Rank returns this process's rank in the world.
func (r *Rank) Rank() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return r.world.size }

// Now returns the rank's current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// Sleep advances the rank's clock, modelling local computation.
func (r *Rank) Sleep(d time.Duration) { r.proc.Sleep(d) }

func (r *Rank) inbox(src, tag int) *sim.Queue {
	key := msgKey{src, tag}
	q, ok := r.inboxes[key]
	if !ok {
		q = sim.NewQueue(r.world.k, fmt.Sprintf("r%d<-r%d#%d", r.rank, src, tag))
		r.inboxes[key] = q
	}
	return q
}

// Send transmits data of the given modelled size to rank dst with a tag,
// blocking the sender for the full transfer time (rendezvous-free eager
// model: the payload is buffered at the destination).
func (r *Rank) Send(dst, tag int, data any, size int64) {
	if dst < 0 || dst >= r.world.size {
		panic(fmt.Sprintf("mpisim: send to bad rank %d", dst))
	}
	r.world.fabric.Transfer(r.proc, r.rank, dst, size)
	r.world.ranks[dst].inbox(r.rank, tag).Send(message{data: data, size: size})
}

// Recv blocks until a message with the given source and tag arrives and
// returns its payload.
func (r *Rank) Recv(src, tag int) any {
	m := r.inbox(src, tag).Recv(r.proc).(message)
	return m.data
}

// Internal tags reserved for collectives; user code should use tags >= 0.
const (
	tagBarrier = -1 - iota
	tagBcast
	tagReduce
	tagGather
)

// Barrier blocks until every rank in the world has entered it.
// It is implemented as a zero-byte binomial-tree reduce followed by a
// broadcast, the textbook MPI algorithm.
func (r *Rank) Barrier() {
	r.reduceTree(tagBarrier, nil, 0, nil)
	r.bcastTree(tagBarrier, nil, 0)
}

// bcastTree broadcasts data from rank 0 down a binomial tree: a rank
// receives from its parent (its rank with the lowest set bit cleared),
// then sends to each child (its rank with one lower bit set).
func (r *Rank) bcastTree(tag int, data any, size int64) any {
	v := r.rank
	if v != 0 {
		data = r.Recv(v&(v-1), tag)
	}
	for bit := 1; bit < r.world.size && v&bit == 0; bit <<= 1 {
		if child := v | bit; child < r.world.size {
			r.Send(child, tag, data, size)
		}
	}
	return data
}

// ReduceFunc combines two payloads into one.
type ReduceFunc func(a, b any) any

// reduceTree performs a binomial-tree reduction to rank 0.
func (r *Rank) reduceTree(tag int, data any, size int64, combine ReduceFunc) any {
	v := r.rank
	for bit := 1; bit < r.world.size; bit <<= 1 {
		if v&bit != 0 {
			// Send partial to parent and leave.
			parent := v &^ bit
			r.Send(parent, tag, data, size)
			return nil
		}
		peer := v | bit
		if peer < r.world.size {
			other := r.Recv(peer, tag)
			if combine != nil {
				data = combine(data, other)
			}
		}
	}
	return data
}

// Allreduce combines payloads from all ranks and distributes the result to
// every rank.
func (r *Rank) Allreduce(data any, size int64, combine ReduceFunc) any {
	v := r.reduceTree(tagReduce, data, size, combine)
	return r.bcastTree(tagBcast, v, size)
}

// AllreduceF64 is Allreduce specialised to a float64 with a sum/min/max op.
func (r *Rank) AllreduceF64(x float64, op func(a, b float64) float64) float64 {
	res := r.Allreduce(x, 8, func(a, b any) any { return op(a.(float64), b.(float64)) })
	return res.(float64)
}

// MaxTime returns the maximum of a virtual timestamp across ranks;
// benchmarks use it to find the latest I/O completion.
func (r *Rank) MaxTime(t sim.Time) sim.Time {
	res := r.Allreduce(int64(t), 8, func(a, b any) any {
		x, y := a.(int64), b.(int64)
		if x > y {
			return x
		}
		return y
	})
	return sim.Time(res.(int64))
}

// Gather collects each rank's payload at root, returned as a slice indexed
// by rank (nil on non-roots). Linear algorithm, like MPI for small worlds.
func (r *Rank) Gather(root int, data any, size int64) []any {
	if r.rank != root {
		r.Send(root, tagGather, data, size)
		return nil
	}
	out := make([]any, r.world.size)
	out[root] = data
	for src := 0; src < r.world.size; src++ {
		if src == root {
			continue
		}
		out[src] = r.Recv(src, tagGather)
	}
	return out
}
