package svc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lsmio/internal/obs"
	"lsmio/internal/resil"
	"lsmio/internal/rt"
)

// The shard supervisor: per-shard health tracking (request-outcome
// EWMA + consecutive-error breaker from internal/resil, plus a
// goroutine-mode heartbeat prober) and automatic crash-restart. A shard
// whose breaker trips — or that is crashed explicitly via CrashShard —
// is detached immediately, so routing fails fast with a typed retryable
// ShardDownError instead of hanging callers, while a restart worker
// reopens the store (LSM recovery replays the WAL) and swaps it back in
// under the write fence so no admitted commit can land on the dead
// manager. DESIGN.md §13 documents the state machine and parameters.

// ShardDownError reports a request routed to a shard that is crashed or
// restarting. It is transient: the supervisor is (or will be) bringing
// the shard back, so callers should retry after Retry.
type ShardDownError struct {
	Shard int
	State string        // "restarting" or "down"
	Retry time.Duration // suggested backoff before retrying
}

func (e *ShardDownError) Error() string {
	return fmt.Sprintf("svc: shard %d %s (retry in %v)", e.Shard, e.State, e.Retry)
}

// TransientFault marks the error retryable for resil.Classify.
func (e *ShardDownError) TransientFault() bool { return true }

// probeKey is the heartbeat read target. It lives outside the tenant
// namespace root ("t/"), so probes are invisible to scans; the probe
// expects ErrNotFound (a healthy miss).
const probeKey = "\x00svc/probe"

const (
	// heartbeatInterval is the goroutine-mode prober period. The
	// simulator runs no free-running prober — a periodic daemon would
	// hold virtual time open forever — so detection there is driven by
	// request outcomes and explicit CrashShard injection.
	heartbeatInterval = 25 * time.Millisecond
	// maxRestarts bounds consecutive failed restart attempts before the
	// shard is left permanently down.
	maxRestarts = 16
)

// SupervisorConfig tunes per-shard health tracking and crash-restart.
// The zero value enables supervision with the defaults below. Each
// shard's request-outcome breaker takes the resil.Options defaults (3
// consecutive errors trip it).
type SupervisorConfig struct {
	// Disabled turns supervision off: no health breaker, no prober,
	// and a crashed shard stays down until the service is restarted.
	Disabled bool
	// RestartBackoff is the delay before the first restart attempt
	// (default 10ms); each failed attempt doubles it, capped at 64x.
	RestartBackoff time.Duration
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 10 * time.Millisecond
	}
	return c
}

type supervisor struct {
	s   *Service
	cfg SupervisorConfig

	stopOnce sync.Once
	stopC    chan struct{}
	probe    sync.WaitGroup // the goroutine-only heartbeat prober
	// workers counts live restart workers (guarded by s.pauseMu); stop
	// waits on idle for it to reach zero.
	workers int
	idle    rt.Cond

	cKicks    *obs.Counter
	cRestarts *obs.Counter
	cFails    *obs.Counter
	cGaveUp   *obs.Counter
	hMTTR     *obs.Histogram
}

func newSupervisor(s *Service, cfg SupervisorConfig) *supervisor {
	return &supervisor{
		s:         s,
		cfg:       cfg.withDefaults(),
		stopC:     make(chan struct{}),
		idle:      s.pauseMu.NewCond(),
		cKicks:    s.reg.Counter("svc.supervisor.kicks"),
		cRestarts: s.reg.Counter("svc.supervisor.restarts"),
		cFails:    s.reg.Counter("svc.supervisor.restart_failures"),
		cGaveUp:   s.reg.Counter("svc.supervisor.gaveup"),
		hMTTR:     s.reg.Histogram("svc.supervisor.mttr_ns"),
	}
}

// newTracker builds one shard's health breaker (nil when disabled).
func (u *supervisor) newTracker() *resil.Tracker {
	if u.cfg.Disabled {
		return nil
	}
	return resil.New(1, u.s.reg.Now, resil.Options{})
}

// retryHint is the backoff suggested to callers hitting a down shard.
func (u *supervisor) retryHint() time.Duration { return u.cfg.RestartBackoff }

// start launches the heartbeat prober — on the real runtime only: a
// free-running periodic task would hold virtual time open forever.
func (u *supervisor) start() {
	if u.cfg.Disabled || u.s.kern != nil {
		return
	}
	u.probe.Add(1)
	go u.probeLoop()
}

// stop halts the prober and waits for in-flight restart workers, which
// abort at their next isClosed check.
func (u *supervisor) stop() {
	u.stopOnce.Do(func() { close(u.stopC) })
	u.probe.Wait()
	u.s.pauseMu.Lock()
	for u.workers > 0 {
		u.idle.Wait()
	}
	u.s.pauseMu.Unlock()
}

func (u *supervisor) probeLoop() {
	defer u.probe.Done()
	t := time.NewTicker(heartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-u.stopC:
			return
		case <-t.C:
		}
		if u.s.isClosed() {
			return
		}
		for _, sh := range u.s.shards {
			if sh.state.Load() == shardUp {
				u.s.probeShard(sh)
			}
		}
	}
}

// probeShard issues one heartbeat read against the shard store, feeding
// the same breaker as request outcomes (a healthy miss counts as OK).
func (s *Service) probeShard(sh *shard) {
	s.rlock(sh)
	defer s.runlock(sh)
	if sh.mgr == nil || sh.state.Load() != shardUp {
		return
	}
	start := s.reg.Now()
	_, err := sh.mgr.Get(probeKey)
	s.observe(sh, start, err)
}

// kick transitions an Up shard to Down and starts its restart worker.
// The CAS makes exactly one worker per failure episode.
func (u *supervisor) kick(sh *shard, cause error) {
	if u.cfg.Disabled || u.s.isClosed() {
		return
	}
	if !sh.state.CompareAndSwap(shardUp, shardDown) {
		return
	}
	sh.downAt.Store(int64(u.s.reg.Now()))
	sh.gState.Set(int64(shardDown))
	u.cKicks.Inc()
	u.s.reg.Trace().Emitf("svc.shard.down", "shard %d: %v", sh.idx, cause)
	u.spawnRestart(sh)
}

func (u *supervisor) spawnRestart(sh *shard) {
	s := u.s
	s.pauseMu.Lock()
	u.workers++
	s.pauseMu.Unlock()
	s.rt.Go(fmt.Sprintf("svc-restart-%d", sh.idx), false, func() {
		u.restart(sh)
		s.pauseMu.Lock()
		u.workers--
		s.pauseMu.Unlock()
		u.idle.Broadcast()
	})
}

// backoff charges a restart backoff: virtual time in the simulator,
// stop-interruptible wall time on the real runtime (so Close does not
// sit out a 640 ms backoff).
func (u *supervisor) backoff(d time.Duration) {
	if u.s.kern != nil {
		u.s.rt.Sleep(d)
		return
	}
	select {
	case <-u.stopC:
	case <-time.After(d):
	}
}

// restart is one shard's crash-restart worker: reap the dead manager,
// reopen the store with backoff (LSM recovery replays everything up to
// the last synced state), probe it, then swap it in under the write
// fence.
func (u *supervisor) restart(sh *shard) {
	s := u.s
	// Tear down whatever is left of the failed manager first: two
	// managers must never be open over one shard directory. CrashShard
	// has usually detached it already; a breaker-triggered kick has not.
	s.lock(sh)
	old := sh.mgr
	sh.mgr = nil
	s.unlock(sh)
	if old != nil {
		old.Close() // best effort; flushing a dead store may fail
	}
	backoff := u.cfg.RestartBackoff
	for attempt := 0; ; attempt++ {
		if attempt >= maxRestarts {
			u.cGaveUp.Inc()
			s.reg.Trace().Emitf("svc.shard.gaveup", "shard %d: %d failed restart attempts", sh.idx, attempt)
			return
		}
		u.backoff(backoff << uint(min(attempt, 6)))
		if s.isClosed() {
			return
		}
		sh.state.Store(shardRestarting)
		sh.gState.Set(int64(shardRestarting))
		mgr, err := s.open(sh.idx)
		if err != nil {
			u.cFails.Inc()
			s.reg.Trace().Emitf("svc.shard.restart_failed", "shard %d attempt %d: %v", sh.idx, attempt+1, err)
			sh.state.Store(shardDown)
			sh.gState.Set(int64(shardDown))
			continue
		}
		if _, err := mgr.Get(probeKey); err != nil && !errors.Is(err, ErrNotFound) {
			mgr.Close()
			u.cFails.Inc()
			s.reg.Trace().Emitf("svc.shard.restart_failed", "shard %d attempt %d: probe: %v", sh.idx, attempt+1, err)
			sh.state.Store(shardDown)
			sh.gState.Set(int64(shardDown))
			continue
		}
		if s.isClosed() {
			mgr.Close()
			return
		}
		// Swap under the write fence: after the fence drains, no write
		// admitted before the crash is still in flight, so everything
		// the new manager recovered plus everything applied after the
		// swap is the complete admitted history.
		s.pauseWrites()
		if s.isClosed() {
			s.resumeWrites()
			mgr.Close()
			return
		}
		s.lock(sh)
		sh.mgr = mgr
		sh.health = u.newTracker()
		s.unlock(sh)
		sh.state.Store(shardUp)
		sh.gState.Set(int64(shardUp))
		s.resumeWrites()
		sh.restarts.Add(1)
		u.cRestarts.Inc()
		mttr := s.reg.Now() - time.Duration(sh.downAt.Load())
		u.hMTTR.ObserveDuration(mttr)
		s.reg.Counter(fmt.Sprintf("svc.shard.%03d.restarts", sh.idx)).Inc()
		s.reg.Trace().Emitf("svc.shard.up", "shard %d restarted after %v (attempt %d)", sh.idx, mttr, attempt+1)
		s.writeManifestQuiet()
		return
	}
}

// CrashShard simulates the abrupt death of shard i's manager process:
// the manager is detached so every subsequent request fails fast with a
// typed retryable ShardDownError, the remains are reaped with a
// best-effort Close (to stop its background workers; chaos tests crash
// the backing faultfs first so the reap cannot make unbarriered data
// durable), and the supervisor begins the crash-restart cycle. Inside
// the simulator it must be called from a simulation process. This is
// the fault-injection entry point for the chaos sweeps and the
// under-fault benchmark panel.
func (s *Service) CrashShard(i int) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("svc: crash: shard %d not in pool", i)
	}
	sh := s.shards[i]
	if !sh.state.CompareAndSwap(shardUp, shardDown) {
		return nil // already down or restarting
	}
	sh.downAt.Store(int64(s.reg.Now()))
	sh.gState.Set(int64(shardDown))
	s.reg.Trace().Emitf("svc.shard.down", "shard %d: injected crash", i)
	s.lock(sh)
	old := sh.mgr
	sh.mgr = nil
	s.unlock(sh)
	if old != nil {
		old.Close() // reap: stop background work; errors are expected
	}
	if !s.sup.cfg.Disabled && !s.isClosed() {
		s.sup.cKicks.Inc()
		s.sup.spawnRestart(sh)
	}
	return nil
}

// ShardStatus is one shard's supervisor view.
type ShardStatus struct {
	Shard      int           `json:"shard"`
	State      string        `json:"state"` // up | restarting | down
	Restarts   int64         `json:"restarts"`
	Breaker    string        `json:"breaker,omitempty"` // closed | open | half-open
	ConsecErrs int           `json:"consec_errs,omitempty"`
	DownFor    time.Duration `json:"down_for_ns,omitempty"`
}

// ShardStatuses reports every shard's supervisor state, restart count,
// and breaker status (lsmioctl tenants -health renders it).
func (s *Service) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, 0, len(s.shards))
	for _, sh := range s.shards {
		st := ShardStatus{
			Shard:    sh.idx,
			State:    shardStateName(sh.state.Load()),
			Restarts: sh.restarts.Load(),
		}
		s.rlock(sh)
		if sh.health != nil {
			h := sh.health.Snapshot()[0]
			st.Breaker = h.State.String()
			st.ConsecErrs = h.ConsecErrs
		}
		s.runlock(sh)
		if sh.state.Load() != shardUp {
			st.DownFor = s.reg.Now() - time.Duration(sh.downAt.Load())
		}
		out = append(out, st)
	}
	return out
}

// writeManifestQuiet persists the manifest best-effort (restart workers
// must not fail a recovery over a manifest write error).
func (s *Service) writeManifestQuiet() {
	if err := s.writeManifest(); err != nil {
		s.reg.Trace().Emitf("svc.manifest", "write failed: %v", err)
	}
}
