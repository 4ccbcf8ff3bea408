package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"lsmio/internal/mpisim"
	"lsmio/internal/obs"
	"lsmio/internal/rt"
)

// The CPU cost model charged to simulation processes for LSMIO's
// client-side work (key encoding, memtable insertion, table building
// amortized per operation). Outside the simulator the charges are no-ops —
// real CPU time is really spent. The values reflect measured LSM-engine
// overheads (skiplist insert ~2 µs; block/filter/index building ~0.35 ns/B
// end-to-end).
const (
	putFixed   = 2 * time.Microsecond // per-put fixed cost
	putPerByte = 0.35                 // ns per value byte on the put path
	getFixed   = 3 * time.Microsecond // per-get fixed cost
	getPerByte = 0.40                 // ns per value byte on the get path
)

func putCost(n int) time.Duration {
	return putFixed + time.Duration(putPerByte*float64(n))
}

func getCost(n int) time.Duration {
	return getFixed + time.Duration(getPerByte*float64(n))
}

// ManagerOptions configures a Manager.
type ManagerOptions struct {
	// Store configures the local store (ignored when Remote is set).
	Store StoreOptions
	// Runtime is what the manager and its local store run on: rt.Real()
	// when nil; inside the simulator the stack's rt.Sim, to which the
	// manager charges its CPU cost model. It is forwarded to the store
	// (unless Store.Runtime names one) and clocks the default registry.
	Runtime rt.Runtime
	// MPI attaches an MPI rank; WriteBarrier then also performs an MPI
	// barrier so all ranks' checkpoints complete together (§3.1.3).
	MPI *mpisim.Rank
	// Remote, when non-nil, replaces the local store: the manager runs
	// over this Store, which it does not own (Close leaves it open). It is
	// the seam for decorating a store, e.g. with timing or injected faults.
	Remote Store
	// Obs is the metrics/trace registry the manager records into, under
	// the `core.` prefix. Nil creates one clocked by Runtime. The same
	// registry is injected into the local store's LSM engine, so one
	// snapshot covers `core.*` and `lsm.*` together.
	Obs *obs.Registry
}

// Manager is the paper's Table 2 component: the external K/V API over the
// local store, plus MPI integration, typed puts and performance counters.
type Manager struct {
	store  Store
	rt     rt.Runtime
	mpi    *mpisim.Rank
	remote bool
	reg    *obs.Registry
	m      mgrMetrics
}

// NewManager opens a manager over a local store in dir (or over the
// remote store when opts.Remote is set).
func NewManager(dir string, opts ManagerOptions) (*Manager, error) {
	rtm := opts.Runtime
	if rtm == nil {
		rtm = rt.Real()
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistryOn(rtm.Now)
	}
	m := &Manager{rt: rtm, mpi: opts.MPI, reg: reg, m: newMgrMetrics(reg)}
	if opts.Remote != nil {
		m.store = opts.Remote
		m.remote = true
		return m, nil
	}
	so := opts.Store
	if so.Obs == nil {
		so.Obs = reg
	}
	if so.Runtime == nil {
		so.Runtime = rtm
	}
	st, err := OpenStore(dir, so)
	if err != nil {
		return nil, err
	}
	m.store = st
	return m, nil
}

// Get returns the value for key (always synchronous, §3.1.4).
func (m *Manager) Get(key string) ([]byte, error) {
	start := m.reg.Now()
	v, err := m.store.Get(key)
	return v, m.getDone(start, len(v), err)
}

// GetCRC is Get that also returns the value's CRC-32C when the engine
// derived it from the block check of the read (Store.GetCRC). It costs
// what Get costs.
func (m *Manager) GetCRC(key string) (value []byte, crc uint32, ok bool, err error) {
	start := m.reg.Now()
	value, crc, ok, err = m.store.GetCRC(key)
	return value, crc, ok, m.getDone(start, len(value), err)
}

// getDone counts and charges a get of n bytes that began at start, once
// err says it succeeded.
func (m *Manager) getDone(start time.Duration, n int, err error) error {
	if err == nil {
		m.m.gets.Inc()
		m.m.bytesGot.Add(int64(n))
		m.rt.Compute(getCost(n))
		m.m.getLatency.ObserveDuration(m.reg.Now() - start)
	}
	return err
}

// ReadBatch loads every key under prefix in one sequential sweep of the
// LSM-tree, in key order — the batch-read optimization the paper's §5.1
// proposes instead of random point lookups per key. The per-entry CPU
// cost is a fraction of a point get's (no per-key index descent). Each
// value is fn's to keep (Store.Scan).
func (m *Manager) ReadBatch(prefix string, fn func(key string, value []byte) bool) error {
	return m.store.Scan(prefix, func(key string, value []byte) bool {
		m.m.gets.Inc()
		m.m.bytesGot.Add(int64(len(value)))
		m.rt.Compute(time.Duration(getPerByte * float64(len(value)) / 2))
		return fn(key, value)
	})
}

// ReadBatchAll collects a prefix's entries into a map (convenience over
// ReadBatch for restart-style full loads).
func (m *Manager) ReadBatchAll(prefix string) (map[string][]byte, error) {
	out := make(map[string][]byte)
	err := m.ReadBatch(prefix, func(key string, value []byte) bool {
		out[key] = value
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Put writes key asynchronously (durable at the next write barrier).
func (m *Manager) Put(key string, value []byte) error {
	return m.putInternal(key, value, false)
}

// PutSync writes key and blocks until it is durable.
func (m *Manager) PutSync(key string, value []byte) error {
	return m.putInternal(key, value, true)
}

// PutCRC is Put for a caller that has computed value's CRC-32C
// (crc32.Castagnoli): the engine uses crc for the checksum of the table
// block that holds the value instead of reading the value again
// (Store.PutCRC).
func (m *Manager) PutCRC(key string, value []byte, crc uint32) error {
	start := m.reg.Now()
	m.rt.Compute(putCost(len(value)))
	return m.putDone(start, len(value), m.store.PutCRC(key, value, crc))
}

func (m *Manager) putInternal(key string, value []byte, sync bool) error {
	start := m.reg.Now()
	m.rt.Compute(putCost(len(value)))
	return m.putDone(start, len(value), m.store.Put(key, value, sync))
}

// putDone counts a put of n bytes that began at start, once err says it
// succeeded.
func (m *Manager) putDone(start time.Duration, n int, err error) error {
	if err != nil {
		return err
	}
	m.m.puts.Inc()
	m.m.bytesPut.Add(int64(n))
	if m.remote {
		m.m.remoteOps.Inc()
	}
	m.m.putLatency.ObserveDuration(m.reg.Now() - start)
	return nil
}

// Append extends key's value (creating it when absent).
func (m *Manager) Append(key string, value []byte) error {
	m.rt.Compute(putCost(len(value)))
	if err := m.store.Append(key, value, false); err != nil {
		return err
	}
	m.m.appends.Inc()
	m.m.bytesPut.Add(int64(len(value)))
	return nil
}

// Del removes key.
func (m *Manager) Del(key string) error {
	if err := m.store.Del(key); err != nil {
		return err
	}
	m.m.dels.Inc()
	return nil
}

// DeletePrefix removes every key with the given prefix and returns once
// that is durable; tables holding only such keys are freed whole. It
// counts as one delete.
func (m *Manager) DeletePrefix(prefix string) error {
	if err := m.store.DeletePrefix(prefix); err != nil {
		return err
	}
	m.m.dels.Inc()
	return nil
}

// Typed puts, the convenience layer the paper's Manager offers for
// different data types.

// PutString stores a string value.
func (m *Manager) PutString(key, value string) error { return m.Put(key, []byte(value)) }

// PutInt64 stores a little-endian int64.
func (m *Manager) PutInt64(key string, v int64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return m.Put(key, b[:])
}

// PutFloat64 stores a little-endian IEEE-754 float64.
func (m *Manager) PutFloat64(key string, v float64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return m.Put(key, b[:])
}

// GetInt64 reads a value stored by PutInt64.
func (m *Manager) GetInt64(key string) (int64, error) {
	b, err := m.Get(key)
	if err != nil {
		return 0, err
	}
	if len(b) != 8 {
		return 0, fmt.Errorf("lsmio: key %q holds %d bytes, not an int64", key, len(b))
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

// GetFloat64 reads a value stored by PutFloat64.
func (m *Manager) GetFloat64(key string) (float64, error) {
	b, err := m.Get(key)
	if err != nil {
		return 0, err
	}
	if len(b) != 8 {
		return 0, fmt.Errorf("lsmio: key %q holds %d bytes, not a float64", key, len(b))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// WriteBarrier flushes all buffered writes to stable storage. With MPI
// attached it then synchronizes all ranks, so when it returns every rank's
// checkpoint data is durable — the paper's implicit end-of-checkpoint
// barrier (§3.1.1).
func (m *Manager) WriteBarrier() error {
	start := m.reg.Now()
	if err := m.store.WriteBarrier(true); err != nil {
		return err
	}
	if m.mpi != nil {
		m.mpi.Barrier()
	}
	m.m.barriers.Inc()
	elapsed := m.reg.Now() - start
	m.m.barrierNanos.Add(int64(elapsed))
	m.m.barrierLatency.ObserveDuration(elapsed)
	return nil
}

// Obs returns the manager's metrics/trace registry. For a local store
// it also carries the engine's `lsm.` instruments, so one snapshot
// covers the whole stack.
func (m *Manager) Obs() *obs.Registry { return m.reg }

// Runtime returns what the manager runs on. Layers above (the ckpt
// restore pool, its retry backoff) run their workers and sleeps on it.
func (m *Manager) Runtime() rt.Runtime { return m.rt }

// Store exposes the underlying local store (the paper's internal K/V API).
func (m *Manager) Store() Store { return m.store }

// Close flushes and releases the manager's store. A store handed in as
// ManagerOptions.Remote belongs to the caller and stays open.
func (m *Manager) Close() error {
	if m.remote {
		return nil
	}
	return m.store.Close()
}

// managerRegistry implements the paper's optional factory method: one
// shared Manager per store directory.
var managerRegistry = struct {
	sync.Mutex
	m map[string]*Manager
}{m: make(map[string]*Manager)}

// GetManager returns the registered Manager for dir, creating it with
// opts on first use (the factory method of Table 2).
func GetManager(dir string, opts ManagerOptions) (*Manager, error) {
	managerRegistry.Lock()
	defer managerRegistry.Unlock()
	if m, ok := managerRegistry.m[dir]; ok {
		return m, nil
	}
	m, err := NewManager(dir, opts)
	if err != nil {
		return nil, err
	}
	managerRegistry.m[dir] = m
	return m, nil
}

// ReleaseManager removes dir's Manager from the factory registry and
// closes it.
func ReleaseManager(dir string) error {
	managerRegistry.Lock()
	m, ok := managerRegistry.m[dir]
	delete(managerRegistry.m, dir)
	managerRegistry.Unlock()
	if !ok {
		return nil
	}
	return m.Close()
}
