package burst

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"lsmio/ckpt"
	"lsmio/internal/core"
	"lsmio/internal/obs/obstest"
	"lsmio/internal/vfs"
)

// newMemTier builds a tier over two independent in-memory managers,
// returning the tier, the two checkpoint stores and a closer.
func newMemTier(t *testing.T, keep int, opts Options) (*Tier, *ckpt.Store, *ckpt.Store, func()) {
	t.Helper()
	smgr, err := core.NewManager("stage", core.ManagerOptions{
		Store: core.StoreOptions{FS: vfs.NewMemFS()},
	})
	if err != nil {
		t.Fatal(err)
	}
	dmgr, err := core.NewManager("app", core.ManagerOptions{
		Store: core.StoreOptions{FS: vfs.NewMemFS()},
	})
	if err != nil {
		t.Fatal(err)
	}
	staging := ckpt.New(smgr, ckpt.Options{})
	durable := ckpt.New(dmgr, ckpt.Options{Keep: keep})
	tier := New(staging, durable, opts)
	return tier, staging, durable, func() {
		smgr.Close()
		dmgr.Close()
	}
}

func stepVars(step int64, size int) map[string][]byte {
	return map[string][]byte{
		"temperature": bytes.Repeat([]byte{byte(step)}, size),
		"pressure":    []byte(fmt.Sprintf("p-%d-%s", step, bytes.Repeat([]byte("x"), size/2))),
	}
}

func commitStep(t *testing.T, tier *Tier, step int64, size int) map[string][]byte {
	t.Helper()
	vars := stepVars(step, size)
	c, err := tier.Begin(step)
	if err != nil {
		t.Fatalf("begin %d: %v", step, err)
	}
	for name, data := range vars {
		if err := c.Write(name, data); err != nil {
			t.Fatalf("write %d/%s: %v", step, name, err)
		}
	}
	if err := c.Commit(); err != nil {
		t.Fatalf("commit %d: %v", step, err)
	}
	return vars
}

func TestInlineStageDrain(t *testing.T) {
	tier, staging, durable, done := newMemTier(t, 0, Options{})
	defer done()

	want := map[int64]map[string][]byte{}
	for step := int64(1); step <= 3; step++ {
		want[step] = commitStep(t, tier, step, 512)
	}
	reg := tier.reg
	if staged, pending := obstest.Counter(t, reg, "burst.staged.steps"), obstest.Gauge(t, reg, "burst.pending.steps"); staged != 3 || pending != 3 {
		t.Fatalf("after staging: %d steps staged, %d pending, want 3 and 3", staged, pending)
	}
	stagedBytes := obstest.Counter(t, reg, "burst.staged.bytes")
	pendingBytes := obstest.Gauge(t, reg, "burst.pending.bytes")
	highWater := obstest.Gauge(t, reg, "burst.pending.high_water")
	if stagedBytes == 0 || pendingBytes != stagedBytes || highWater != pendingBytes {
		t.Fatalf("byte accounting off: staged %d, pending %d, high water %d", stagedBytes, pendingBytes, highWater)
	}
	// Nothing may be durable before a drain.
	if _, err := durable.Latest(); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("durable store has checkpoints before drain: %v", err)
	}

	if err := tier.Sync(); err != nil { // no worker: drains inline
		t.Fatalf("sync: %v", err)
	}
	for step, vars := range want {
		got, err := durable.ReadAll(step)
		if err != nil {
			t.Fatalf("durable read %d: %v", step, err)
		}
		for name, data := range vars {
			if !bytes.Equal(got[name], data) {
				t.Fatalf("step %d var %q mismatch after drain", step, name)
			}
		}
	}
	if steps, _ := staging.Steps(); len(steps) != 0 {
		t.Fatalf("staging not emptied after drain: %v", steps)
	}
	drained := obstest.Counter(t, reg, "burst.drained.steps")
	if pending, pendingBytes := obstest.Gauge(t, reg, "burst.pending.steps"), obstest.Gauge(t, reg, "burst.pending.bytes"); drained != 3 || pending != 0 || pendingBytes != 0 {
		t.Fatalf("after drain: %d steps drained, %d (%d bytes) pending, want 3 and none", drained, pending, pendingBytes)
	}
	if drainedBytes := obstest.Counter(t, reg, "burst.drained.bytes"); drainedBytes != stagedBytes {
		t.Fatalf("drained %d bytes, staged %d", drainedBytes, stagedBytes)
	}
}

func TestBudgetBackpressureInlineReclaim(t *testing.T) {
	// Budget fits one ~1.5 KB step but not two; with no worker the
	// committing caller must reclaim by draining inline, never block.
	tier, _, durable, done := newMemTier(t, 0, Options{StagingBudget: 2 << 10})
	defer done()

	for step := int64(1); step <= 4; step++ {
		commitStep(t, tier, step, 1024)
	}
	if hw := obstest.Gauge(t, tier.reg, "burst.pending.high_water"); hw > tier.opts.StagingBudget {
		t.Fatalf("high-water %d exceeded budget %d", hw, tier.opts.StagingBudget)
	}
	if obstest.Counter(t, tier.reg, "burst.drained.steps") == 0 {
		t.Fatal("backpressure never triggered an inline drain")
	}
	if err := tier.Sync(); err != nil {
		t.Fatal(err)
	}
	steps, err := durable.Steps()
	if err != nil || len(steps) != 4 {
		t.Fatalf("durable steps %v, %v", steps, err)
	}
}

// TestWorkerDrainsConcurrently runs the goroutine worker under load —
// with the race detector on, this is the tier's concurrency proof.
// Durable retention (Keep=2) applies as steps arrive.
func TestWorkerDrainsConcurrently(t *testing.T) {
	tier, staging, durable, done := newMemTier(t, 2, Options{StagingBudget: 8 << 10})
	defer done()
	tier.StartWorker()

	const steps = 8
	for step := int64(1); step <= steps; step++ {
		commitStep(t, tier, step, 700)
	}
	if err := tier.WaitDurable(steps); err != nil {
		t.Fatalf("wait durable: %v", err)
	}
	if err := tier.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got, err := durable.Steps()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != steps-1 || got[1] != steps {
		t.Fatalf("durable retention kept %v, want [%d %d]", got, steps-1, steps)
	}
	if s, _ := staging.Steps(); len(s) != 0 {
		t.Fatalf("staging not drained: %v", s)
	}
	if drained, pending := obstest.Counter(t, tier.reg, "burst.drained.steps"), obstest.Gauge(t, tier.reg, "burst.pending.steps"); drained != steps || pending != 0 {
		t.Fatalf("after close: %d steps drained, %d pending, want %d and 0", drained, pending, steps)
	}
}

// TestPruneNeverDropsNewestDurable interleaves staged-but-undrained
// steps with drains under Keep=1 retention: after every drain the
// newest durable checkpoint must be restorable — an in-flight staged
// step must never cause retention to drop it.
func TestPruneNeverDropsNewestDurable(t *testing.T) {
	tier, _, durable, done := newMemTier(t, 1, Options{})
	defer done()

	var lastDurable int64
	for step := int64(1); step <= 6; step++ {
		commitStep(t, tier, step, 400)
		// The previous drained step must still be restorable while the
		// newer step sits staged (prune ran on the durable store during
		// the last drain's commit).
		if lastDurable != 0 {
			got, _, err := durable.RestoreLatest()
			if err != nil || got != lastDurable {
				t.Fatalf("with step %d in flight: durable RestoreLatest = %d, %v; want %d",
					step, got, err, lastDurable)
			}
		}
		if n, err := tier.DrainPending(1); n != 1 || err != nil {
			t.Fatalf("drain step %d: n=%d err=%v", step, n, err)
		}
		got, vars, err := durable.RestoreLatest()
		if err != nil || got != step {
			t.Fatalf("after draining %d: RestoreLatest = %d, %v", step, got, err)
		}
		if len(vars) == 0 {
			t.Fatalf("step %d restored empty", step)
		}
		lastDurable = step
		if steps, _ := durable.Steps(); len(steps) != 1 {
			t.Fatalf("Keep=1 retention kept %v", steps)
		}
	}
}

func TestDrainFailureIsStickyAndStepStaysStaged(t *testing.T) {
	tier, staging, durable, done := newMemTier(t, 0, Options{})
	defer done()

	commitStep(t, tier, 1, 300)
	// Sabotage the staged copy so the drain's checksum verification
	// fails: overwrite a data key behind the store's back.
	if err := staging.Verify(1); err != nil {
		t.Fatal(err)
	}
	smgr := stagingManager(tier)
	if err := smgr.Put("ckpt/data/0000000000000001/temperature", []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if _, err := tier.DrainPending(-1); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("drain error = %v, want ErrCorrupt", err)
	}
	if err := tier.Sync(); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("sync sticky error = %v, want ErrCorrupt", err)
	}
	if err := tier.WaitDurable(1); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("WaitDurable error = %v, want ErrCorrupt", err)
	}
	// The failed step stays in the staging store for inspection.
	if steps, _ := staging.Steps(); len(steps) != 1 {
		t.Fatalf("failed step dropped from staging: %v", steps)
	}
	if _, err := durable.Latest(); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatal("corrupt step leaked into the durable store")
	}
	if errs, drained := obstest.Counter(t, tier.reg, "burst.drain.errors"), obstest.Counter(t, tier.reg, "burst.drained.steps"); errs != 1 || drained != 0 {
		t.Fatalf("%d drain errors, %d steps drained, want 1 and 0", errs, drained)
	}
}

// stagingManager digs the staging manager back out for sabotage; the
// tier does not expose it, so the test reaches through the store it
// built in newMemTier. Kept here to confine the cheat to one place.
func stagingManager(tier *Tier) *core.Manager { return tier.staging.Manager() }

func TestRecoverRequeuesVerifiedAndQuarantinesCorrupt(t *testing.T) {
	tier, staging, durable, done := newMemTier(t, 0, Options{})
	defer done()

	// Step 1 drains fully; steps 2 and 3 stay staged; step 3's staged
	// payload is then corrupted (a crash mid-stage would look alike).
	commitStep(t, tier, 1, 300)
	if _, err := tier.DrainPending(1); err != nil {
		t.Fatal(err)
	}
	want2 := commitStep(t, tier, 2, 300)
	commitStep(t, tier, 3, 300)
	if err := stagingManager(tier).Put("ckpt/data/0000000000000003/temperature", []byte("junk")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash-restart: a fresh tier over the same stores, plus
	// a stale staged copy of the already-durable step 1 (as if the
	// crash hit after the durable install but before the staged drop).
	c1, err := staging.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Write("temperature", []byte("stale")); err != nil {
		t.Fatal(err)
	}
	if err := c1.Commit(); err != nil {
		t.Fatal(err)
	}

	tier2 := New(staging, durable, Options{})
	if err := tier2.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	// Stale copy of durable step 1 dropped, step 2 requeued, step 3
	// quarantined.
	if steps, _ := staging.Steps(); len(steps) != 2 {
		t.Fatalf("staging after recover: %v", steps)
	}
	if q, _ := staging.Quarantined(); len(q) != 1 {
		t.Fatalf("quarantined = %v, want step 3 only", q)
	} else if _, ok := q[3]; !ok {
		t.Fatalf("quarantined = %v, want step 3", q)
	}
	if n := obstest.Gauge(t, tier2.reg, "burst.pending.steps"); n != 1 {
		t.Fatalf("recover queued %d steps, want 1 (step 2)", n)
	}
	// RestoreLatest must skip the quarantined staged step 3 and prefer
	// the verified staged step 2 over durable step 1.
	step, vars, err := tier2.RestoreLatest()
	if err != nil || step != 2 {
		t.Fatalf("RestoreLatest = %d, %v; want 2", step, err)
	}
	if !bytes.Equal(vars["temperature"], want2["temperature"]) {
		t.Fatal("restored staged image corrupted")
	}
	if err := tier2.Sync(); err != nil {
		t.Fatalf("sync after recover: %v", err)
	}
	if _, err := durable.ReadAll(2); err != nil {
		t.Fatalf("step 2 not durable after recovered drain: %v", err)
	}
}

func TestRestoreLatestPrefersNewestTier(t *testing.T) {
	tier, _, _, done := newMemTier(t, 0, Options{})
	defer done()

	want1 := commitStep(t, tier, 1, 200)
	if _, err := tier.DrainPending(-1); err != nil {
		t.Fatal(err)
	}
	// Durable only: restores step 1.
	step, vars, err := tier.RestoreLatest()
	if err != nil || step != 1 {
		t.Fatalf("RestoreLatest = %d, %v", step, err)
	}
	if !bytes.Equal(vars["pressure"], want1["pressure"]) {
		t.Fatal("durable image mismatch")
	}
	// Newer staged step wins without mixing tiers.
	want2 := commitStep(t, tier, 2, 200)
	step, vars, err = tier.RestoreLatest()
	if err != nil || step != 2 {
		t.Fatalf("RestoreLatest = %d, %v", step, err)
	}
	for name, data := range want2 {
		if !bytes.Equal(vars[name], data) {
			t.Fatalf("staged image var %q mismatch", name)
		}
	}
}

func TestTwoPhaseInterface(t *testing.T) {
	tier, _, durable, done := newMemTier(t, 0, Options{})
	defer done()

	// The same driver runs over the tier and over a direct store.
	drive := func(tp ckpt.TwoPhase, step int64) {
		t.Helper()
		w, err := tp.Begin(step)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write("v", []byte{byte(step)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := tp.WaitDurable(step); err != nil {
			t.Fatal(err)
		}
		if err := tp.Sync(); err != nil {
			t.Fatal(err)
		}
		got, _, err := tp.RestoreLatest()
		if err != nil || got != step {
			t.Fatalf("RestoreLatest = %d, %v; want %d", got, err, step)
		}
	}
	drive(tier.TwoPhase(), 1)
	drive(ckpt.Direct{Store: durable}, 2)
}

func TestBeginDuplicateOfDurableStepFails(t *testing.T) {
	tier, _, _, done := newMemTier(t, 0, Options{})
	defer done()
	commitStep(t, tier, 1, 100)
	if err := tier.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := tier.Begin(1); err == nil {
		t.Fatal("Begin of an already-durable step succeeded")
	}
	if _, err := tier.Begin(2); err != nil {
		t.Fatalf("fresh step refused: %v", err)
	}
}

func TestCountersSnapshotIsolated(t *testing.T) {
	tier, _, _, done := newMemTier(t, 0, Options{})
	defer done()
	commitStep(t, tier, 1, 100)
	before := tier.reg.Snapshot()
	before.Counters["burst.staged.steps"] = 99 // mutating the snapshot must not leak back
	if obstest.Counter(t, tier.reg, "burst.staged.steps") != 1 {
		t.Fatal("Snapshot returned shared state")
	}
	if stall := before.Counters["burst.commit.stall_nanos"]; stall != 0 {
		t.Fatalf("unbudgeted tier recorded stall time %dns", stall)
	}
}
