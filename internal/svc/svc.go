// Package svc is the multi-tenant checkpoint service: a long-running
// front-end that multiplexes many tenants over a pool of sharded
// core.Manager stores, the generalisation of the paper's §5.1 idea of
// one store serving a group of ranks:
//
//   - Sharding. Keys are namespaced per tenant ("t/<tenant>/<key>") and
//     hashed (route) to a pool of shards, each backed by its own
//     core.Manager (and therefore its own LSM store). SERVICE.json keeps
//     a service directory's shard count and layout version for life.
//   - Fair-share admission. A weighted GCRA token bucket per tenant
//     (bytes), layered above the LSM engine's slowdown/stall
//     ladder: the engine ladder protects the store, admission divides
//     the service's front-door capacity between tenants so one noisy
//     tenant cannot inflate everyone else's tail latency. Requests that
//     would wait longer than MaxWait fail fast with a retryable
//     QuotaError.
//   - One client, two transports. Client writes each tenant operation
//     once (admission, write fence, routing, request latency, the scan
//     merge) and sends its requests over a transport: in-process
//     (Service.Tenant, used by lsmiod against a real filesystem), which
//     applies each request on the caller, or the simulated fabric
//     (Front.Connect, one server process per shard over netsim, used by
//     the ext-service experiment). Both dispatch a request through the
//     same Service.apply.
//
// Every layer records into internal/obs under the `svc.` prefix:
// per-tenant op/byte counters, admission-wait and request-latency
// histograms, per-shard op counters, and a shard-count gauge.
//
// DESIGN.md §12 documents the sharding and how admission interacts with
// the engine's stall ladder.
package svc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lsmio/internal/core"
	"lsmio/internal/obs"
	"lsmio/internal/resil"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

// ErrClosed reports an operation on a closed service or client; it is
// the same sentinel the core store layer uses, so errors.Is works
// across layers.
var ErrClosed = core.ErrClosed

// ErrNotFound re-exports the store miss sentinel for svc callers.
var ErrNotFound = core.ErrNotFound

// nsRoot prefixes every tenant key in the shard stores.
const nsRoot = "t/"

// nsKey namespaces a tenant key. Slashes in tenant names would alias
// other tenants' namespaces, so they are folded.
func nsKey(tenant, key string) string {
	if strings.ContainsRune(tenant, '/') {
		tenant = strings.ReplaceAll(tenant, "/", "_")
	}
	return nsRoot + tenant + "/" + key
}

// route returns the shard among n that owns the namespaced key nsk: its
// FNV-1a hash through splitmix64's finaliser (checkpoint keys differ in
// their tails, which raw FNV-1a leaves in a narrow band of high bits),
// mod n. Keys sit where route put them: changing it is a new layout.
func route(nsk string, n int) int {
	h := fnv64a(nsk)
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return int((h ^ h>>31) % uint64(n))
}

// fnv64a is 64-bit FNV-1a, inlined so routing allocates no hash.Hash.
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Options configures a Service.
type Options struct {
	// Shards is the shard count (default 1), fixed for the service's
	// life. With ManifestFS set it must match an existing SERVICE.json.
	Shards int
	// OpenShard opens the store behind shard i. Required. For a real
	// deployment it opens dir/ShardDirName(i); tests and the simulator
	// back shards with memory or pfs filesystems.
	OpenShard func(shard int) (*core.Manager, error)
	// Runtime is what the service waits, sleeps and spawns restart
	// workers on: the stack's rt.Sim inside the simulator, rt.Real()
	// (real time, real concurrency) when nil. The OpenShard closure
	// passes the same value to the shard managers it builds.
	Runtime rt.Runtime
	// Obs is the shared metrics registry (`svc.` prefix). Nil creates
	// one clocked by Runtime.
	Obs *obs.Registry
	// Admission configures fair-share admission control.
	Admission AdmissionConfig
	// ManifestFS, when set, keeps a SERVICE.json manifest at the
	// filesystem root describing the shard layout and tenant quotas, so
	// offline tools (lsmioctl stats/tenants) can find and aggregate the
	// shard stores.
	ManifestFS vfs.FS
	// Supervisor configures per-shard health tracking and
	// crash-restart (on by default; see SupervisorConfig).
	Supervisor SupervisorConfig
}

// Shard supervisor states (also the value of the per-shard state
// gauge: 0 up, 1 restarting, 2 down).
const (
	shardUp int32 = iota
	shardRestarting
	shardDown
)

func shardStateName(st int32) string {
	switch st {
	case shardUp:
		return "up"
	case shardRestarting:
		return "restarting"
	case shardDown:
		return "down"
	}
	return fmt.Sprintf("state(%d)", st)
}

// shard is one slot of the pool: a Manager plus the lock that keeps it
// attached while requests use it (real runtime only; see Service.rlock).
type shard struct {
	idx int
	mgr *core.Manager
	mu  sync.RWMutex
	ops *obs.Counter

	// Supervisor state. state/restarts/downAt are atomics so request
	// paths can fail fast without locks; mgr and health are swapped only
	// under the shard lock held exclusively, with writers fenced.
	state    atomic.Int32
	restarts atomic.Int64
	downAt   atomic.Int64 // reg.Now() ns at which the shard went down
	health   *resil.Tracker
	gState   *obs.Gauge
}

// Service is the multi-tenant sharded checkpoint service.
type Service struct {
	rt   rt.Runtime
	kern *sim.Kernel // rt.Kernel(): non-nil selects the simulator-only paths
	reg  *obs.Registry
	open func(int) (*core.Manager, error)
	mfs  vfs.FS
	adm  *admission
	sup  *supervisor

	// shards is fixed when New returns and never changes.
	shards []*shard
	closed atomic.Bool

	// Write fencing: pauseMu guards the write gate (paused), the
	// in-flight write count and the restart-worker count. Writers and
	// restart swaps waiting for the gate wait on pauseCond; the gate
	// holder waits for inflight to drain on fenceCond.
	pauseMu   rt.Mutex
	paused    bool
	inflight  int
	pauseCond rt.Cond
	fenceCond rt.Cond

	gShards    *obs.Gauge
	gConns     *obs.Gauge
	cApplyErrs *obs.Counter
}

// New opens the shard pool and starts the service. Inside the
// simulator it must be called from a simulation process (opening the
// shard stores performs I/O).
func New(opts Options) (*Service, error) {
	if opts.OpenShard == nil {
		return nil, errors.New("svc: Options.OpenShard is required")
	}
	n := opts.Shards
	if n <= 0 {
		n = 1
	}
	rtm := opts.Runtime
	if rtm == nil {
		rtm = rt.Real()
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistryOn(rtm.Now)
	}
	if err := checkLayout(opts.ManifestFS, n); err != nil {
		return nil, err
	}
	s := &Service{
		rt:         rtm,
		kern:       rtm.Kernel(),
		pauseMu:    rtm.NewMutex(),
		reg:        reg,
		open:       opts.OpenShard,
		mfs:        opts.ManifestFS,
		adm:        newAdmission(opts.Admission, reg),
		gShards:    reg.Gauge("svc.shards"),
		gConns:     reg.Gauge("svc.conns"),
		cApplyErrs: reg.Counter("svc.apply_errors"),
	}
	s.pauseCond = s.pauseMu.NewCond()
	s.fenceCond = s.pauseMu.NewCond()
	s.sup = newSupervisor(s, opts.Supervisor)
	for i := 0; i < n; i++ {
		sh, err := s.openShard(i)
		if err != nil {
			for _, prev := range s.shards {
				prev.mgr.Close()
			}
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	s.gShards.Set(int64(n))
	if err := s.writeManifest(); err != nil {
		return nil, err
	}
	s.sup.start()
	return s, nil
}

func (s *Service) openShard(i int) (*shard, error) {
	mgr, err := s.open(i)
	if err != nil {
		return nil, fmt.Errorf("svc: open shard %d: %w", i, err)
	}
	sh := &shard{
		idx:    i,
		mgr:    mgr,
		ops:    s.reg.Counter(fmt.Sprintf("svc.shard.%03d.ops", i)),
		health: s.sup.newTracker(),
		gState: s.reg.Gauge(fmt.Sprintf("svc.shard.%03d.state", i)),
	}
	sh.gState.Set(int64(shardUp))
	return sh, nil
}

// Obs returns the service's metrics registry.
func (s *Service) Obs() *obs.Registry { return s.reg }

// Shards reports the shard count.
func (s *Service) Shards() int { return len(s.shards) }

func (s *Service) isClosed() bool { return s.closed.Load() }

// RegisterTenant declares a tenant's weight and quotas, recomputing
// every tenant's fair share. Registering an existing tenant updates
// its configuration in place.
func (s *Service) RegisterTenant(name string, cfg TenantConfig) (*Client, error) {
	if s.isClosed() {
		return nil, ErrClosed
	}
	ts := s.adm.tenant(name, &cfg)
	if err := s.writeManifest(); err != nil {
		return nil, err
	}
	return s.newClient(ts, inProcess{s}, resil.Policy{}, nil), nil
}

// Tenant returns the named tenant's in-process client, registering the
// tenant with default settings (weight 1, no caps) on first use.
func (s *Service) Tenant(name string) *Client {
	return s.newClient(s.adm.tenant(name, nil), inProcess{s}, resil.Policy{}, nil)
}

// ---- write fencing ----------------------------------------------------

// enterWrites blocks while a restart swap holds the write gate, then
// registers n in-flight write applications. Every registered
// application must be balanced by exitWrite (at apply completion, which
// for the fabric front happens on the shard server).
func (s *Service) enterWrites(n int) {
	s.pauseMu.Lock()
	for s.paused {
		s.pauseCond.Wait()
	}
	s.inflight += n
	s.pauseMu.Unlock()
}

// exitWrite retires one in-flight write application, waking a pending
// fence when the last one drains. The broadcast is not gated on paused:
// Close fences without pausing (nothing new is admitted once closed),
// and its fence must still wake when the last write lands.
func (s *Service) exitWrite() {
	s.pauseMu.Lock()
	s.inflight--
	drained := s.inflight == 0
	s.pauseMu.Unlock()
	if drained {
		s.fenceCond.Broadcast()
	}
}

// pauseWrites takes the write gate, waiting while another restart swap
// holds it, then fences: on return no write is in flight and none is
// admitted until resumeWrites.
func (s *Service) pauseWrites() {
	s.pauseMu.Lock()
	for s.paused {
		s.pauseCond.Wait()
	}
	s.paused = true
	s.pauseMu.Unlock()
	s.fenceWrites()
}

// resumeWrites releases the write gate, waking blocked writers and any
// restart swap waiting for the gate.
func (s *Service) resumeWrites() {
	s.pauseMu.Lock()
	s.paused = false
	s.pauseMu.Unlock()
	s.pauseCond.Broadcast()
}

// fenceWrites waits until every in-flight write application has been
// applied. Callers hold the write gate or have closed the service, so
// the count can only drain.
func (s *Service) fenceWrites() {
	s.pauseMu.Lock()
	for s.inflight > 0 {
		s.fenceCond.Wait()
	}
	s.pauseMu.Unlock()
}

// dupWrite registers one extra in-flight write application without
// checking the pause gate: a fault-plan duplicated delivery re-applies
// a write that was already admitted through enterWrites, and blocking
// here could deadlock against a restart swap that is already fencing.
func (s *Service) dupWrite() {
	s.pauseMu.Lock()
	s.inflight++
	s.pauseMu.Unlock()
}

// ---- shard application ------------------------------------------------

// rlock holds sh's manager and health tracker in place on the real
// runtime: every request takes it shared, so requests to one shard run
// side by side (core.Store is safe for concurrent use), and only lock,
// taken by the paths that detach or swap sh.mgr and sh.health, waits for
// them to finish. RWMutex is not reentrant: nothing may take the shard
// lock again while holding it shared, or a pending swap deadlocks it.
// Inside the simulator the cooperative scheduler plus the
// one-server-per-shard front provide the serialization and the lock is
// skipped: taken as an rt mutex it would be held across store I/O that
// parks in virtual time, queueing requests the calibrated figures let
// overlap (DESIGN.md §5).
func (s *Service) rlock(sh *shard) {
	if s.kern == nil {
		sh.mu.RLock()
	}
}

func (s *Service) runlock(sh *shard) {
	if s.kern == nil {
		sh.mu.RUnlock()
	}
}

// lock takes sh's lock exclusively, to detach or swap its manager.
func (s *Service) lock(sh *shard) {
	if s.kern == nil {
		sh.mu.Lock()
	}
}

func (s *Service) unlock(sh *shard) {
	if s.kern == nil {
		sh.mu.Unlock()
	}
}

// shardUp fails fast when sh is not serving: callers get a typed
// retryable ShardDownError (or ErrClosed during shutdown) instead of
// touching a dead store. Must be called with the shard lock held shared.
func (s *Service) shardUp(sh *shard) error {
	if sh.state.Load() == shardUp && sh.mgr != nil {
		return nil
	}
	if s.isClosed() {
		return ErrClosed
	}
	return &ShardDownError{Shard: sh.idx, State: shardStateName(sh.state.Load()), Retry: s.sup.retryHint()}
}

// observe feeds one request outcome into the shard's health breaker and
// kicks the supervisor when the breaker trips. An op that raced a crash
// (the shard left Up while it was in flight) is converted to the typed
// retryable form so tenants never see the dying store's raw error.
// Must be called with the shard lock held shared; kick only starts the
// restart worker, which takes the lock exclusively on its own.
func (s *Service) observe(sh *shard, start time.Duration, err error) error {
	if err == nil || errors.Is(err, ErrNotFound) {
		if sh.health != nil {
			sh.health.ObserveOK(0, s.reg.Now()-start)
		}
		return err
	}
	if sh.state.Load() != shardUp {
		return &ShardDownError{Shard: sh.idx, State: shardStateName(sh.state.Load()), Retry: s.sup.retryHint()}
	}
	if s.isClosed() {
		return err
	}
	if sh.health != nil {
		sh.health.ObserveErr(0)
		if sh.health.State(0) != resil.Closed {
			s.sup.kick(sh, err)
			if sh.state.Load() != shardUp {
				return &ShardDownError{Shard: sh.idx, State: shardStateName(sh.state.Load()), Retry: s.sup.retryHint()}
			}
		}
	}
	return err
}

// request is one tenant operation addressed to a shard: what the
// in-process transport hands to apply on the caller, and what the fabric
// carries to the shard's server process.
type request struct {
	op     reqOp
	shard  int
	tenant string
	key    string // namespaced key (or scan prefix)
	value  []byte
	write  bool // registered via enterWrites; apply calls exitWrite
	dup    bool // fault-plan duplicated delivery of an already-sent request
	// lossAck (barriers only) echoes the Seq of the latest WriteLossError
	// the client observed for this shard — the two-phase ack that lets
	// the fabric server clear its loss ledger.
	lossAck uint64
	replyTo *sim.Queue // fabric only: where a synchronous request's reply goes
}

type reqOp int

const (
	opPut reqOp = iota
	opDel
	opGet
	opScan
	opBarrier
	opStop // fabric only: stops the shard's server process
)

// reply is the outcome of one applied request.
type reply struct {
	value []byte
	pairs []Pair
	err   error
}

// apply executes req on its shard: the one dispatch behind both
// transports, run on the caller in-process and on the shard's server
// process over the fabric, under the shard lock held shared. A write's
// in-flight slot is released once it is applied.
func (s *Service) apply(req request) (rep reply) {
	if req.write {
		defer s.exitWrite()
	}
	sh := s.shards[req.shard]
	s.rlock(sh)
	defer s.runlock(sh)
	if rep.err = s.shardUp(sh); rep.err != nil {
		return rep
	}
	sh.ops.Inc()
	start := s.reg.Now()
	var err error
	switch req.op {
	case opPut:
		err = sh.mgr.Put(req.key, req.value)
	case opDel:
		err = sh.mgr.Del(req.key)
	case opGet:
		rep.value, err = sh.mgr.Get(req.key)
	case opScan:
		err = sh.mgr.ReadBatch(req.key, func(k string, v []byte) bool {
			rep.pairs = append(rep.pairs, Pair{Key: k, Value: v})
			return true
		})
	case opBarrier:
		err = sh.mgr.WriteBarrier()
	}
	rep.err = s.observe(sh, start, err)
	return rep
}

// Pair is one key/value from a Scan.
type Pair struct {
	Key   string
	Value []byte
}

// ---- lifecycle --------------------------------------------------------

// Close fences in-flight writes, stops the supervisor, and closes
// every shard store. Close is idempotent — a second call is a no-op
// returning nil — while all other post-close operations return
// ErrClosed.
func (s *Service) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// Stop the prober and wait for restart workers so a restart cannot
	// install a fresh manager after we close the pool.
	s.sup.stop()
	s.fenceWrites()
	var first error
	for _, sh := range s.shards {
		s.lock(sh)
		mgr := sh.mgr
		sh.mgr = nil
		s.unlock(sh)
		if mgr == nil {
			continue // crashed and not yet restarted
		}
		if err := mgr.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
