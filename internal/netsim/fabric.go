// Package netsim models the cluster interconnect for the simulated HPC
// system: a flat fat-tree-like fabric where every node has a full-duplex
// NIC with fixed bandwidth, and every message pays a base latency. Link
// contention is modelled by treating each NIC direction as a serial
// resource, so concurrent transfers to or from one node queue behind each
// other while transfers between disjoint node pairs proceed in parallel.
package netsim

import (
	"fmt"
	"time"

	"lsmio/internal/sim"
)

// Config describes the interconnect.
type Config struct {
	Nodes     int           // number of endpoints
	Latency   time.Duration // one-way per-message latency
	Bandwidth float64       // per-NIC bandwidth, bytes/second
	// MaxPacket chunks large transfers so that a long message does not
	// monopolize a NIC for its entire duration. Zero means no chunking.
	MaxPacket int64
}

// DefaultConfig returns an interconnect resembling a 100 Gb/s class HPC
// fabric (EDR/HDR InfiniBand era, matching the Viking cluster's vintage).
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:     nodes,
		Latency:   20 * time.Microsecond,
		Bandwidth: 10e9, // 10 GB/s
		MaxPacket: 4 << 20,
	}
}

// Fabric is the simulated interconnect.
type Fabric struct {
	k    *sim.Kernel
	cfg  Config
	tx   []*sim.Resource // per-node transmit side
	rx   []*sim.Resource // per-node receive side
	plan *Plan           // fault schedule, nil when the fabric is healthy
}

// New builds a fabric on kernel k.
func New(k *sim.Kernel, cfg Config) *Fabric {
	if cfg.Nodes <= 0 {
		panic("netsim: need at least one node")
	}
	if cfg.Bandwidth <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	f := &Fabric{k: k, cfg: cfg}
	f.tx = make([]*sim.Resource, cfg.Nodes)
	f.rx = make([]*sim.Resource, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		f.tx[i] = sim.NewResource(k, fmt.Sprintf("tx%d", i), 1)
		f.rx[i] = sim.NewResource(k, fmt.Sprintf("rx%d", i), 1)
	}
	return f
}

// Nodes returns the number of endpoints.
func (f *Fabric) Nodes() int { return f.cfg.Nodes }

// wireTime is the serialization time for size bytes on one NIC.
func (f *Fabric) wireTime(size int64) time.Duration {
	return time.Duration(float64(size) / f.cfg.Bandwidth * 1e9)
}

// Transfer moves size bytes from node `from` to node `to`, charging the
// calling process the full transfer time including queueing on both NICs.
// A transfer within one node costs only a small local copy time.
func (f *Fabric) Transfer(p *sim.Proc, from, to int, size int64) {
	if from < 0 || from >= f.cfg.Nodes || to < 0 || to >= f.cfg.Nodes {
		panic(fmt.Sprintf("netsim: transfer %d->%d out of range", from, to))
	}
	if size < 0 {
		size = 0
	}
	if from == to {
		// Loopback: memory copy, no NIC involvement.
		p.Sleep(time.Duration(float64(size) / (4 * f.cfg.Bandwidth) * 1e9))
		return
	}
	chunk := f.cfg.MaxPacket
	if chunk <= 0 || chunk > size {
		chunk = size
	}
	// Latency is paid once per message; serialization per chunk while
	// holding both NIC directions.
	p.Sleep(f.cfg.Latency)
	remaining := size
	for {
		n := chunk
		if n > remaining {
			n = remaining
		}
		f.tx[from].Acquire(p, 1)
		f.rx[to].Acquire(p, 1)
		p.Sleep(f.wireTime(n))
		f.rx[to].Release(1)
		f.tx[from].Release(1)
		remaining -= n
		if remaining <= 0 {
			break
		}
	}
}

// SetPlan installs (or, with nil, removes) a fault plan. Only
// TryTransfer consults the plan; Transfer always delivers, so
// infrastructure traffic can bypass injection.
func (f *Fabric) SetPlan(pl *Plan) { f.plan = pl }

// TryTransfer moves size bytes from node `from` to node `to` under the
// installed fault plan. A dropped message still charges the base
// latency (it left the NIC before dying) and returns a *DropError; a
// duplicated message is charged twice and reported via dup
// so the receiver-side protocol can model the double delivery; a
// delayed message pays the extra latency before the normal transfer.
// With no plan installed TryTransfer is exactly Transfer.
func (f *Fabric) TryTransfer(p *sim.Proc, from, to int, size int64) (dup bool, err error) {
	pl := f.plan
	if pl == nil {
		f.Transfer(p, from, to, size)
		return false, nil
	}
	delay, dup, drop := pl.verdict(f.k.Now().Duration(), from, to)
	if delay > 0 {
		p.Sleep(delay)
	}
	if drop {
		p.Sleep(f.cfg.Latency)
		return false, &DropError{From: from, To: to}
	}
	f.Transfer(p, from, to, size)
	if dup {
		f.Transfer(p, from, to, size)
	}
	return dup, nil
}
