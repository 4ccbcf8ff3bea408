package ckpt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"lsmio/internal/core"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

// commitVars commits one step with the given named payloads.
func commitVars(t *testing.T, s *Store, step int64, vars map[string][]byte) {
	t.Helper()
	c, err := s.Begin(step)
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
}

func restorePayloads(n int) map[string][]byte {
	vars := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		vars[fmt.Sprintf("var%02d", i)] = bytes.Repeat([]byte{byte(i + 1)}, 8<<10)
	}
	return vars
}

// TestRestoredStateIsTheCallers: an application that restores and then
// works on its state in place (the point of restoring it) must not
// change the checkpoint it came from. Large variables are the blocks the
// store read, handed over without a copy; small ones are copies.
func TestRestoredStateIsTheCallers(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	vars := restorePayloads(4)
	vars["weights"] = bytes.Repeat([]byte{7}, 300<<10)
	commitVars(t, s, 3, vars)
	for round, restore := range []func() (map[string][]byte, error){
		func() (map[string][]byte, error) {
			_, state, _, err := s.Restore(RestoreOptions{Parallel: 2})
			return state, err
		},
		func() (map[string][]byte, error) { return s.ReadAll(3) },
	} {
		state, err := restore()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, data := range state {
			for i := range data {
				data[i]++
			}
		}
		_, again, err := s.RestoreLatest()
		if err != nil {
			t.Fatalf("round %d: restore after the state was modified: %v", round, err)
		}
		for name, want := range vars {
			if !bytes.Equal(again[name], want) {
				t.Fatalf("round %d: %s changed with the restored copy", round, name)
			}
		}
	}
}

func TestParallelRestoreMatchesSerial(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	vars := restorePayloads(8)
	commitVars(t, s, 7, vars)

	serialStep, serial, err := s.RestoreLatest()
	if err != nil {
		t.Fatalf("serial restore: %v", err)
	}
	step, state, rep, err := s.Restore(RestoreOptions{Parallel: 4})
	if err != nil {
		t.Fatalf("parallel restore: %v", err)
	}
	if step != serialStep || step != 7 {
		t.Fatalf("steps differ: serial %d parallel %d", serialStep, step)
	}
	if len(state) != len(serial) {
		t.Fatalf("state sizes differ: %d vs %d", len(state), len(serial))
	}
	for name, want := range vars {
		if !bytes.Equal(state[name], want) {
			t.Fatalf("variable %s differs after parallel restore", name)
		}
	}
	if rep.Parallel != 4 || rep.Vars != 8 || rep.BytesRead != 8*(8<<10) {
		t.Fatalf("report: %+v", rep)
	}
}

// TestParallelRestoreInSimulator runs the worker pool as simulation
// processes: the restore must complete deterministically under the
// cooperative kernel and return verified state.
func TestParallelRestoreInSimulator(t *testing.T) {
	k := sim.NewKernel()
	rtm := rt.Sim(k)
	mgr, err := core.NewManager("app", core.ManagerOptions{
		Store:   core.StoreOptions{FS: vfs.NewMemFS(), WriteBufferSize: 64 << 10},
		Runtime: rtm,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	s := New(mgr, Options{})
	vars := restorePayloads(6)
	failed := false
	k.Spawn("restorer", func(p *sim.Proc) {
		commitVars(t, s, 3, vars)
		step, state, rep, err := s.Restore(RestoreOptions{Parallel: 4})
		if err != nil || step != 3 {
			t.Errorf("sim restore: step=%d err=%v", step, err)
			failed = true
			return
		}
		for name, want := range vars {
			if !bytes.Equal(state[name], want) {
				t.Errorf("variable %s differs after sim parallel restore", name)
				failed = true
			}
		}
		if rep.Parallel != 4 {
			t.Errorf("report parallel = %d, want 4", rep.Parallel)
			failed = true
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
	if failed {
		t.FailNow()
	}
}

func TestDeltaRestoreReusesLocalSnapshot(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	vars := restorePayloads(4)
	commitVars(t, s, 5, vars)

	local := map[string][]byte{
		"var00": append([]byte(nil), vars["var00"]...), // matches → reused
		"var01": []byte("stale bytes"),                 // mismatch → read from store
	}
	step, state, rep, err := s.Restore(RestoreOptions{Parallel: 2, Local: local})
	if err != nil || step != 5 {
		t.Fatalf("delta restore: step=%d err=%v", step, err)
	}
	for name, want := range vars {
		if !bytes.Equal(state[name], want) {
			t.Fatalf("variable %s differs after delta restore", name)
		}
	}
	if rep.DeltaVars != 1 || rep.DeltaBytes != 8<<10 {
		t.Fatalf("delta accounting: %+v", rep)
	}
	if rep.BytesRead != 3*(8<<10) {
		t.Fatalf("BytesRead = %d, want only the 3 non-delta variables", rep.BytesRead)
	}
}

// TestRestoreJournalResumesAfterCrash injects a crash mid-restore (after
// the newest step was rejected) and checks the next session resumes from
// the journal: quarantine marks survive, the candidate is re-verified,
// and exactly the damaged step stays quarantined.
func TestRestoreJournalResumesAfterCrash(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	for step := int64(1); step <= 4; step++ {
		commitVars(t, s, step, map[string][]byte{
			"state": bytes.Repeat([]byte{byte(step)}, 4<<10),
		})
	}
	// Damage the newest step's payload.
	if err := mgr.Put(s.dataKey(4, "state"), []byte("garbage")); err != nil {
		t.Fatal(err)
	}

	crash := errors.New("injected crash")
	_, _, _, err := s.Restore(RestoreOptions{
		Journal: true,
		Hook: func(phase string, step int64, name string) error {
			if phase == "var" && step == 3 {
				return crash // die while verifying the fallback candidate
			}
			return nil
		},
	})
	if !errors.Is(err, crash) {
		t.Fatalf("want injected crash, got %v", err)
	}
	if _, err := mgr.Get(s.journalKey()); err != nil {
		t.Fatalf("journal missing after crash: %v", err)
	}

	step, state, rep, err := s.Restore(RestoreOptions{Journal: true})
	if err != nil {
		t.Fatalf("resumed restore: %v", err)
	}
	if step != 3 {
		t.Fatalf("resumed restore step = %d, want 3", step)
	}
	if !rep.Resumed {
		t.Fatalf("report not marked resumed: %+v", rep)
	}
	if !bytes.Equal(state["state"], bytes.Repeat([]byte{3}, 4<<10)) {
		t.Fatal("resumed restore returned wrong payload")
	}
	q, err := s.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || q[4] == "" {
		t.Fatalf("quarantined = %v, want exactly step 4", q)
	}
	if _, err := mgr.Get(s.journalKey()); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("journal not cleared after success: %v", err)
	}
}

// TestRestoreJournalStaleIsIgnored: steps committed after a crashed
// session make its journal stale; the next restore must start fresh
// from the newest step instead of trusting it.
func TestRestoreJournalStaleIsIgnored(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	commitVars(t, s, 1, map[string][]byte{"state": []byte("one")})
	// Plant a journal claiming a session was restoring step 1.
	blob, _ := json.Marshal(restoreJournal{Step: 1})
	if err := mgr.PutSync(s.journalKey(), blob); err != nil {
		t.Fatal(err)
	}
	commitVars(t, s, 2, map[string][]byte{"state": []byte("two")})

	step, _, rep, err := s.Restore(RestoreOptions{Journal: true})
	if err != nil || step != 2 {
		t.Fatalf("restore: step=%d err=%v", step, err)
	}
	if rep.Resumed {
		t.Fatal("stale journal was resumed")
	}
}

// TestManifestDigestDetectsTamperedManifest: a manifest swapped for a
// different but still-valid JSON (payload CRCs intact) must fail the
// digest check, quarantine the step and fall back.
func TestManifestDigestDetectsTamperedManifest(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	commitVars(t, s, 1, map[string][]byte{"keep": []byte("old state")})
	commitVars(t, s, 2, map[string][]byte{
		"keep": []byte("new state"),
		"drop": []byte("secretly removed"),
	})

	// Rewrite step 2's manifest without the "drop" variable: every
	// remaining CRC still verifies, so only the digest can catch it.
	m, err := s.loadManifest(2)
	if err != nil {
		t.Fatal(err)
	}
	var kept []varEntry
	for _, v := range m.Vars {
		if v.Name == "keep" {
			kept = append(kept, v)
		}
	}
	blob, _ := json.Marshal(manifest{Version: m.Version, Step: 2, Vars: kept})
	if err := mgr.Put(s.manifestKey(2), blob); err != nil {
		t.Fatal(err)
	}

	if err := s.Verify(2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify on tampered manifest: %v", err)
	}
	step, state, rep, err := s.Restore(RestoreOptions{})
	if err != nil || step != 1 {
		t.Fatalf("restore: step=%d err=%v", step, err)
	}
	if !bytes.Equal(state["keep"], []byte("old state")) {
		t.Fatal("fallback returned wrong payload")
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != 2 {
		t.Fatalf("quarantined = %v, want [2]", rep.Quarantined)
	}
	q, _ := s.Quarantined()
	if reason := q[2]; reason == "" || !errors.Is(ErrCorrupt, ErrCorrupt) {
		t.Fatalf("missing quarantine reason: %q", reason)
	}
}

// TestQuarantineReasonPersistsAcrossReopen (satellite): the recorded
// reason must survive a full manager close/reopen, and Latest must keep
// skipping the step in the new session.
func TestQuarantineReasonPersistsAcrossReopen(t *testing.T) {
	fs := vfs.NewMemFS()
	open := func() (*Store, *core.Manager) {
		mgr, err := core.NewManager("app", core.ManagerOptions{
			Store: core.StoreOptions{FS: fs, WriteBufferSize: 64 << 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		return New(mgr, Options{}), mgr
	}
	s, mgr := open()
	commitVars(t, s, 1, map[string][]byte{"state": []byte("good")})
	commitVars(t, s, 2, map[string][]byte{"state": []byte("bad")})
	const reason = "operator note: torn write found by audit"
	if err := s.Quarantine(2, reason); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	s2, mgr2 := open()
	defer mgr2.Close()
	q, err := s2.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if q[2] != reason {
		t.Fatalf("reason after reopen = %q, want %q", q[2], reason)
	}
	step, err := s2.Latest()
	if err != nil || step != 1 {
		t.Fatalf("Latest after reopen = %d, %v; want 1", step, err)
	}
	step, _, err = s2.RestoreLatest()
	if err != nil || step != 1 {
		t.Fatalf("RestoreLatest after reopen = %d, %v; want 1", step, err)
	}
}

func TestRestoreContextCancellation(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	commitVars(t, s, 1, map[string][]byte{"state": []byte("data")})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := s.Restore(RestoreOptions{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Cancellation must not quarantine anything.
	if q, _ := s.Quarantined(); len(q) != 0 {
		t.Fatalf("cancellation quarantined steps: %v", q)
	}
}
