package svc

import (
	"bytes"
	"errors"
	"fmt"

	"lsmio/internal/core"
)

// Rebalance grows or shrinks the shard pool to n shards without
// dropping any acknowledged write. The protocol (DESIGN.md §12):
//
//  1. Open any new shard stores. Writes keep flowing under the old
//     ring, which stays authoritative for reads and writes throughout
//     the copy phase.
//  2. Warm pass: copy every key whose target-ring owner differs from
//     its current owner, overwriting stale copies. Writers are not
//     blocked; deletes shadow onto the target ring so a migrated copy
//     cannot resurrect a deleted key.
//  3. Cutover: pause new writes, fence until every in-flight write has
//     been applied, then run delta passes until one copies nothing.
//     Under quiescence this converges in at most two passes.
//  4. Flush the shards that received copies, atomically flip the ring,
//     resume writers.
//  5. Cleanup: delete the now non-owned source copies (scans filter by
//     ring ownership, so stale copies are invisible even before
//     cleanup finishes) and close removed shards.
//
// SetRebalanceHook installs fn to be called at each rebalance phase
// ("open", "warm", "fence", "delta", "flip", "cleanup"), from the
// rebalancing process itself. The chaos sweeps use it to inject shard
// crashes at every phase boundary; production code leaves it nil.
func (s *Service) SetRebalanceHook(fn func(phase string)) {
	s.mu.Lock()
	s.phaseHook = fn
	s.mu.Unlock()
}

func (s *Service) hook(phase string) {
	s.mu.RLock()
	fn := s.phaseHook
	s.mu.RUnlock()
	if fn != nil {
		fn(phase)
	}
}

// Inside the simulator Rebalance must run in a simulation process. One
// rebalance may run at a time; concurrent calls fail with
// ErrRebalancing.
func (s *Service) Rebalance(n int) error {
	if n <= 0 {
		return errors.New("svc: rebalance needs at least one shard")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.rebalancing {
		s.mu.Unlock()
		return ErrRebalancing
	}
	s.rebalancing = true
	old := len(s.shards)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.rebalancing = false
		s.mu.Unlock()
	}()
	if n == old {
		return nil
	}
	s.cRebalances.Inc()

	// 1. Open new shards (no locks held: opening performs store I/O).
	s.hook("open")
	var added []*shard
	for i := old; i < n; i++ {
		sh, err := s.openShard(i)
		if err != nil {
			for _, a := range added {
				a.mgr.Close()
			}
			return err
		}
		added = append(added, sh)
	}
	s.mu.Lock()
	s.shards = append(s.shards, added...)
	s.next = NewRing(n)
	s.mu.Unlock()

	// 2. Warm pass with writes flowing.
	s.hook("warm")
	if _, err := s.migratePass(); err != nil {
		return s.abortRebalance(added, err)
	}

	// 3. Cutover: take ownership of the pause gate (a shard restart
	// also needs it), quiesce, then delta passes until clean.
	s.acquireCutover()
	s.setPaused(true)
	s.fenceWrites()
	s.hook("fence")
	abortCutover := func(err error) error {
		s.setPaused(false)
		s.releaseCutover()
		return s.abortRebalance(added, err)
	}
	s.hook("delta")
	for {
		moved, err := s.migratePass()
		if err != nil {
			return abortCutover(err)
		}
		if moved == 0 {
			break
		}
	}

	// 4. Make the copies durable, then flip.
	s.mu.RLock()
	receivers := append([]*shard(nil), s.shards...)
	s.mu.RUnlock()
	for _, sh := range receivers {
		if err := s.applyTo(sh, request{op: opBarrier}).err; err != nil {
			return abortCutover(err)
		}
	}
	s.hook("flip")
	s.mu.Lock()
	s.ring = s.next
	s.next = nil
	s.epoch++
	var removed []*shard
	if n < len(s.shards) {
		removed = append(removed, s.shards[n:]...)
		s.shards = s.shards[:n]
	}
	kept := append([]*shard(nil), s.shards...)
	ring := s.ring
	s.mu.Unlock()
	s.setPaused(false)
	s.releaseCutover()
	s.gShards.Set(int64(n))
	s.gEpoch.Set(int64(s.Epoch()))

	// 5. Cleanup stale source copies and retire removed shards.
	s.hook("cleanup")
	for _, sh := range kept {
		if err := s.dropForeign(ring, sh); err != nil {
			return err
		}
	}
	var first error
	for _, sh := range removed {
		if err := s.closeShard(sh); err != nil && first == nil {
			first = err
		}
	}
	if err := s.writeManifest(); err != nil && first == nil {
		first = err
	}
	return first
}

// abortRebalance unwinds a failed rebalance: the old ring stays
// authoritative, the target ring is dropped, and newly opened shards
// are closed again (any partial copies on them are harmless — they are
// filtered by ring ownership and deleted on the next attempt).
func (s *Service) abortRebalance(added []*shard, cause error) error {
	s.mu.Lock()
	s.next = nil
	if len(added) > 0 {
		s.shards = s.shards[:len(s.shards)-len(added)]
	}
	s.mu.Unlock()
	for _, sh := range added {
		s.closeShard(sh)
	}
	return fmt.Errorf("svc: rebalance aborted: %w", cause)
}

// closeShard retires a shard's manager if it still has one (a crashed
// shard may already be detached by the supervisor).
func (s *Service) closeShard(sh *shard) error {
	s.lock(sh)
	mgr := sh.mgr
	sh.mgr = nil
	s.unlock(sh)
	if mgr == nil {
		return nil
	}
	return mgr.Close()
}

// migratePass sweeps every shard and copies keys whose target-ring
// owner differs, skipping copies that are already current. It returns
// how many keys it copied; a zero return means the pools are in sync.
func (s *Service) migratePass() (int, error) {
	s.mu.RLock()
	shards := append([]*shard(nil), s.shards...)
	target := s.next
	s.mu.RUnlock()
	if target == nil {
		return 0, nil
	}
	s.cPasses.Inc()
	moved := 0
	for _, src := range shards {
		// Collect first, then copy: mutating the destination shards
		// while a source scan is open keeps iterator semantics simple.
		// A crashed shard surfaces a typed ShardDownError, so the
		// rebalance aborts cleanly and can be retried after recovery.
		var pending []Pair
		s.lock(src)
		err := s.shardUp(src)
		if err == nil {
			err = src.mgr.ReadBatch(nsRoot, func(k string, v []byte) bool {
				if target.Route(k) != src.idx {
					pending = append(pending, Pair{Key: k, Value: v})
				}
				return true
			})
		}
		s.unlock(src)
		if err != nil {
			return moved, err
		}
		for _, pr := range pending {
			dst := shards[target.Route(pr.Key)]
			s.lock(dst)
			if err := s.shardUp(dst); err != nil {
				s.unlock(dst)
				return moved, err
			}
			cur, err := dst.mgr.Get(pr.Key)
			if err == nil && bytes.Equal(cur, pr.Value) {
				s.unlock(dst)
				continue
			}
			if err != nil && !errors.Is(err, core.ErrNotFound) {
				s.unlock(dst)
				return moved, err
			}
			err = dst.mgr.Put(pr.Key, pr.Value)
			s.unlock(dst)
			if err != nil {
				return moved, err
			}
			moved++
		}
	}
	s.cMoved.Add(int64(moved))
	return moved, nil
}

// dropForeign deletes every key on sh that the (new) authoritative
// ring routes elsewhere — the source copies left behind by migration.
func (s *Service) dropForeign(ring *Ring, sh *shard) error {
	var stale []string
	s.lock(sh)
	err := s.shardUp(sh)
	if err == nil {
		err = sh.mgr.ReadBatch(nsRoot, func(k string, v []byte) bool {
			if ring.Route(k) != sh.idx {
				stale = append(stale, k)
			}
			return true
		})
	}
	s.unlock(sh)
	if err != nil {
		return err
	}
	for _, k := range stale {
		s.lock(sh)
		err := s.shardUp(sh)
		if err == nil {
			err = sh.mgr.Del(k)
		}
		s.unlock(sh)
		if err != nil {
			return err
		}
	}
	return nil
}
