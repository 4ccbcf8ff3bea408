package ckpt

// Two-phase durability interface. A plain Store commits synchronously:
// Commit returns only after the write barrier and manifest land on the
// parallel file system. A write-back staging tier (internal/burst) wants
// a weaker acknowledgment — Commit returns once the step is
// staged-consistent in the fast tier, and the application asks
// separately when it needs PFS durability. TwoPhase captures that split
// so applications can be written against one interface and run over
// either a direct store or a staging tier.

// Writer is the per-step write handle shared by both commit disciplines.
// *Checkpoint satisfies it.
type Writer interface {
	// Write stores one named variable in the step. data must not
	// change until Commit or Abort returns (Checkpoint.Write).
	Write(name string, data []byte) error
	// Commit acknowledges the step at the implementation's first
	// durability phase: fully durable for a direct store,
	// staged-consistent for a staging tier.
	Commit() error
	// Abort discards the uncommitted step.
	Abort() error
}

// TwoPhase is the two-phase checkpoint API: Commit acknowledges phase
// one (staged), WaitDurable/Sync acknowledge phase two (drained to the
// backing store, manifest installed).
type TwoPhase interface {
	// Begin starts a checkpoint step.
	Begin(step int64) (Writer, error)
	// WaitDurable blocks until the given committed step is durable on
	// the backing store, returning the drain error if it failed.
	WaitDurable(step int64) error
	// Sync blocks until every committed step is durable.
	Sync() error
	// RestoreLatest restores the newest usable checkpoint (either
	// phase), never a partially-drained image.
	RestoreLatest() (int64, map[string][]byte, error)
}

// Direct adapts a plain Store to TwoPhase: commit and durability are
// the same phase, so WaitDurable and Sync return immediately.
type Direct struct {
	*Store
}

// Begin starts a step on the underlying store.
func (d Direct) Begin(step int64) (Writer, error) { return d.Store.Begin(step) }

// WaitDurable is a no-op: a direct Commit is already durable.
func (d Direct) WaitDurable(step int64) error { return nil }

// Sync is a no-op: a direct Commit is already durable.
func (d Direct) Sync() error { return nil }
