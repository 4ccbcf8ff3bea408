package ckpt

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"lsmio/internal/core"
	"lsmio/internal/lsm"
	"lsmio/internal/resil"
)

// The self-healing restore pipeline. RestoreLatest is rebuilt on top of
// Restore: candidates are walked newest→oldest; each candidate's
// variables are read by a bounded worker pool (simulation processes
// under the simulator, goroutines outside it) with per-variable CRC
// verification, manifest-digest verification, a resil.Policy for
// transient read faults, and an optional delta path that reuses
// variables already present in a local snapshot. A candidate that fails
// verification is quarantined and the restore resumes onto the
// next-older step mid-flight; an optional journal makes a crashed
// restore resumable — the next session re-installs any quarantine marks
// the crash lost and picks up at the recorded candidate.

// RestoreOptions tunes one Restore call. The zero value reproduces the
// classic serial RestoreLatest.
type RestoreOptions struct {
	// Parallel bounds the worker pool reading one step's variables
	// (≤1 = serial). Workers are simulation processes under the
	// simulator, goroutines outside it.
	Parallel int
	// Policy retries transient per-variable read faults (on top of any
	// storage-level retry). The zero policy reads each variable once.
	Policy resil.Policy
	// Ctx, when set, cancels the restore between operations
	// (cooperative: an operation in flight is never interrupted).
	Ctx context.Context
	// Local is a delta-restore snapshot: a variable whose recorded
	// length and CRC match its Local entry is reused (and re-verified
	// by checksum) without touching the store.
	Local map[string][]byte
	// Journal persists restore progress under the store's prefix so a
	// crash mid-restore resumes where it left off instead of
	// re-verifying from the newest step.
	Journal bool
	// Hook is a fault-injection point for tests: called at phase
	// "start" (once), "step" (per candidate) and "var" (per variable);
	// a non-nil return aborts the restore there, simulating a crash.
	Hook func(phase string, step int64, name string) error
}

// RestoreReport describes what one Restore call did.
type RestoreReport struct {
	Step        int64   // restored step (0 when no step survived)
	Candidates  int     // candidates examined, including the restored one
	Quarantined []int64 // steps newly quarantined by this call
	Resumed     bool    // a prior crashed session's journal was resumed
	Vars        int     // variables in the restored state
	BytesRead   int64   // payload bytes read from the store
	DeltaVars   int64   // variables reused from the Local snapshot
	DeltaBytes  int64   // payload bytes those reused variables saved
	Parallel    int     // effective worker-pool width
	Elapsed     time.Duration
}

func (s *Store) journalKey() string { return s.pfx + "/restore/journal" }

// restoreJournal is the persisted progress of one restore session:
// the candidate being verified and every step the session rejected
// (with the quarantine reason, so a crash that lost an async quarantine
// write can re-install it on resume).
type restoreJournal struct {
	Step     int64            `json:"step"`
	Rejected map[int64]string `json:"rejected,omitempty"`
}

func (s *Store) readJournal() (restoreJournal, bool, error) {
	j := restoreJournal{Step: -1, Rejected: map[int64]string{}}
	blob, err := s.mgr.Get(s.journalKey())
	if errors.Is(err, core.ErrNotFound) {
		return j, false, nil
	}
	if err != nil {
		if errors.Is(err, lsm.ErrCorruption) {
			// A damaged journal only costs the resume optimization;
			// self-heal by discarding it.
			_ = s.mgr.Del(s.journalKey())
			return j, false, nil
		}
		return j, false, err
	}
	if uerr := json.Unmarshal(blob, &j); uerr != nil {
		_ = s.mgr.Del(s.journalKey())
		return restoreJournal{Step: -1, Rejected: map[int64]string{}}, false, nil
	}
	if j.Rejected == nil {
		j.Rejected = map[int64]string{}
	}
	return j, true, nil
}

// journalValid reports whether the journal belongs to the store's
// current state: every committed, non-quarantined step newer than the
// journal's candidate must be one the journal rejected. Anything else
// (e.g. steps committed after the crashed session) makes it stale.
func (s *Store) journalValid(j restoreJournal, steps []int64, quarantined map[int64]string) bool {
	for i := len(steps) - 1; i >= 0; i-- {
		step := steps[i]
		if step <= j.Step {
			break
		}
		if _, bad := quarantined[step]; bad {
			continue
		}
		if _, rej := j.Rejected[step]; !rej {
			return false
		}
	}
	return true
}

func (s *Store) writeJournal(j restoreJournal) error {
	blob, err := json.Marshal(j)
	if err != nil {
		return err
	}
	// Synchronous put: the journal is only useful if it survives the
	// crash it is protecting against.
	return s.mgr.PutSync(s.journalKey(), blob)
}

func (s *Store) hook(opts RestoreOptions, phase string, step int64, name string) error {
	if opts.Hook == nil {
		return nil
	}
	return opts.Hook(phase, step, name)
}

// Restore restores the newest fully-verified checkpoint under opts and
// reports what it did. Steps that fail verification (corrupt manifest or
// digest, missing or corrupt variables) are quarantined with the failure
// as the reason and the search resumes onto the next-older step; other
// errors (storage faults past the policy's budget, cancellation, hook
// aborts) surface immediately, leaving the journal (when enabled) in
// place for the next session. It returns ErrNoCheckpoint when no step
// survives.
func (s *Store) Restore(opts RestoreOptions) (int64, map[string][]byte, *RestoreReport, error) {
	par := opts.Parallel
	if par < 1 {
		par = 1
	}
	rep := &RestoreReport{Parallel: par}
	start := s.mgr.Obs().Now()
	if err := s.hook(opts, "start", 0, ""); err != nil {
		return 0, nil, rep, err
	}
	steps, err := s.Steps()
	if err != nil {
		return 0, nil, rep, err
	}
	quarantined, err := s.Quarantined()
	if err != nil {
		return 0, nil, rep, err
	}
	journal := restoreJournal{Step: -1, Rejected: map[int64]string{}}
	if opts.Journal {
		j, ok, jerr := s.readJournal()
		if jerr != nil {
			return 0, nil, rep, jerr
		}
		if ok && s.journalValid(j, steps, quarantined) {
			journal = j
			// Re-install quarantine marks the crash may have lost: the
			// journal is written synchronously, quarantines are not.
			for step, reason := range j.Rejected {
				if _, bad := quarantined[step]; bad {
					continue
				}
				if qerr := s.Quarantine(step, reason); qerr != nil {
					return 0, nil, rep, qerr
				}
				quarantined[step] = reason
				rep.Quarantined = append(rep.Quarantined, step)
			}
			rep.Resumed = true
			s.m.restoreResumes.Inc()
			s.m.trace.Emitf("ckpt.restore.resume", "step=%d rejected=%d", j.Step, len(j.Rejected))
		}
	}
	for i := len(steps) - 1; i >= 0; i-- {
		step := steps[i]
		if _, bad := quarantined[step]; bad {
			continue
		}
		if opts.Ctx != nil {
			if cerr := opts.Ctx.Err(); cerr != nil {
				return 0, nil, rep, fmt.Errorf("ckpt: restore canceled before step %d: %w", step, cerr)
			}
		}
		rep.Candidates++
		if opts.Journal {
			journal.Step = step
			if jerr := s.writeJournal(journal); jerr != nil {
				return 0, nil, rep, jerr
			}
		}
		if herr := s.hook(opts, "step", step, ""); herr != nil {
			return 0, nil, rep, herr
		}
		state, rerr := s.restoreStep(step, par, opts, rep)
		if rerr == nil {
			rep.Step = step
			rep.Vars = len(state)
			if opts.Journal {
				if jerr := s.mgr.Del(s.journalKey()); jerr != nil {
					return 0, nil, rep, jerr
				}
			}
			rep.Elapsed = s.mgr.Obs().Now() - start
			s.m.restores.Inc()
			s.m.restoreLatency.ObserveDuration(rep.Elapsed)
			s.m.trace.Emitf("ckpt.restore",
				"step=%d vars=%d bytes=%d delta_bytes=%d parallel=%d resumed=%v",
				step, rep.Vars, rep.BytesRead, rep.DeltaBytes, par, rep.Resumed)
			return step, state, rep, nil
		}
		if errors.Is(rerr, ErrCorrupt) || errors.Is(rerr, ErrIncomplete) {
			if qerr := s.Quarantine(step, rerr.Error()); qerr != nil {
				return 0, nil, rep, qerr
			}
			quarantined[step] = rerr.Error()
			journal.Rejected[step] = rerr.Error()
			rep.Quarantined = append(rep.Quarantined, step)
			s.m.restoreFallbacks.Inc()
			s.m.trace.Emitf("ckpt.restore.fallback", "step=%d err=%v", step, rerr)
			continue
		}
		return 0, nil, rep, rerr
	}
	return 0, nil, rep, ErrNoCheckpoint
}

// restoreStep reads and verifies one candidate step through the worker
// pool. It returns the fully-verified state, or an error wrapping
// ErrCorrupt/ErrIncomplete (quarantine + fall back) or a store-level
// error (abort).
func (s *Store) restoreStep(step int64, par int, opts RestoreOptions, rep *RestoreReport) (map[string][]byte, error) {
	m, err := s.loadManifest(step)
	if err != nil {
		return nil, classifyCorrupt(step, err)
	}
	vars := m.Vars
	results := make([][]byte, len(vars))
	errs := make([]error, len(vars))
	var next, bytesRead, deltaVars, deltaBytes int64
	var failed atomic.Bool

	rtm := s.mgr.Runtime()
	readVar := func(i int) error {
		v := vars[i]
		if herr := s.hook(opts, "var", step, v.Name); herr != nil {
			return herr
		}
		if local, ok := opts.Local[v.Name]; ok && m.holds(v, local, 0, false) {
			results[i] = local
			atomic.AddInt64(&deltaVars, 1)
			atomic.AddInt64(&deltaBytes, v.Bytes)
			return nil
		}
		data, err := s.readVar(opts.Ctx, opts.Policy, uint64(step)^uint64(i)*0x9e3779b97f4a7c15, m, step, v)
		if err != nil {
			return err
		}
		results[i] = data
		atomic.AddInt64(&bytesRead, v.Bytes)
		return nil
	}

	// The pool is n tasks of the manager's runtime — goroutines, or
	// simulation processes whose reads the DB's cooperative lock
	// interleaves exactly as goroutines would interleave real ones.
	n := par
	if n > len(vars) {
		n = len(vars)
	}
	rtm.Parallel("ckpt-restore-w", n, func(int) {
		for !failed.Load() {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= len(vars) {
				return
			}
			if werr := readVar(i); werr != nil {
				errs[i] = werr
				failed.Store(true)
			}
		}
	})

	rep.BytesRead += bytesRead
	rep.DeltaVars += deltaVars
	rep.DeltaBytes += deltaBytes
	s.m.restoreBytes.Add(bytesRead)
	s.m.restoreDeltaVars.Add(deltaVars)
	s.m.restoreDeltaBytes.Add(deltaBytes)
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	out := make(map[string][]byte, len(vars))
	for i, v := range vars {
		out[v.Name] = results[i]
	}
	return out, nil
}
