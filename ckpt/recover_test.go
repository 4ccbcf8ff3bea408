package ckpt

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"lsmio/internal/core"
	"lsmio/internal/vfs"
)

// commitStep writes a single-variable checkpoint and commits it.
func commitStep(t *testing.T, s *Store, step int64, payload []byte) {
	t.Helper()
	c, err := s.Begin(step)
	if err != nil {
		t.Fatalf("begin %d: %v", step, err)
	}
	if err := c.Write("state", payload); err != nil {
		t.Fatalf("write %d: %v", step, err)
	}
	if err := c.Commit(); err != nil {
		t.Fatalf("commit %d: %v", step, err)
	}
}

func TestCorruptErrorNamesStoreKey(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	commitStep(t, s, 1, []byte("good data"))

	// Flip the stored bytes behind the manifest's back.
	if err := mgr.Put(s.dataKey(1, "state"), []byte("bad data!")); err != nil {
		t.Fatal(err)
	}
	_, err := s.Read(1, "state")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if !strings.Contains(err.Error(), s.dataKey(1, "state")) {
		t.Fatalf("error does not name the store key: %v", err)
	}
	if _, err := s.ReadAll(1); !errors.Is(err, ErrCorrupt) ||
		!strings.Contains(err.Error(), s.dataKey(1, "state")) {
		t.Fatalf("ReadAll error does not name the store key: %v", err)
	}
}

func TestIncompleteErrorNamesStoreKey(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	commitStep(t, s, 1, []byte("payload"))
	if err := mgr.Del(s.dataKey(1, "state")); err != nil {
		t.Fatal(err)
	}
	_, err := s.Read(1, "state")
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("want ErrIncomplete, got %v", err)
	}
	if !strings.Contains(err.Error(), s.dataKey(1, "state")) {
		t.Fatalf("error does not name the store key: %v", err)
	}
}

func TestCorruptManifestNamesStoreKey(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	commitStep(t, s, 1, []byte("payload"))
	if err := mgr.Put(s.manifestKey(1), []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	_, err := s.ReadAll(1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if !strings.Contains(err.Error(), s.manifestKey(1)) {
		t.Fatalf("error does not name the manifest key: %v", err)
	}
}

func TestRestoreLatestFallsBackAndQuarantines(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	good := []byte("good state v2")
	commitStep(t, s, 1, []byte("good state v1"))
	commitStep(t, s, 2, good)
	commitStep(t, s, 3, []byte("good state v3"))

	// Damage step 3 (corrupt) — restore must fall back to step 2.
	if err := mgr.Put(s.dataKey(3, "state"), []byte("garbage!!!!!!")); err != nil {
		t.Fatal(err)
	}
	step, state, err := s.RestoreLatest()
	if err != nil {
		t.Fatalf("RestoreLatest: %v", err)
	}
	if step != 2 || !bytes.Equal(state["state"], good) {
		t.Fatalf("restored step %d (state %q), want 2 (%q)", step, state["state"], good)
	}

	// The damaged step is quarantined with a reason naming the key.
	q, err := s.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	reason, bad := q[3]
	if !bad {
		t.Fatalf("step 3 not quarantined: %v", q)
	}
	if !strings.Contains(reason, s.dataKey(3, "state")) {
		t.Fatalf("quarantine reason does not name the key: %q", reason)
	}

	// Latest now skips the quarantined step without re-verifying.
	if latest, err := s.Latest(); err != nil || latest != 2 {
		t.Fatalf("Latest = %d, %v; want 2", latest, err)
	}

	// Unquarantine restores visibility (the data is still damaged, but
	// that is now the operator's explicit decision).
	if err := s.Unquarantine(3); err != nil {
		t.Fatal(err)
	}
	if latest, err := s.Latest(); err != nil || latest != 3 {
		t.Fatalf("Latest after unquarantine = %d, %v; want 3", latest, err)
	}
}

func TestRestoreLatestSkipsIncompleteStep(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	good := []byte("survivor")
	commitStep(t, s, 10, good)
	commitStep(t, s, 11, []byte("doomed"))
	if err := mgr.Del(s.dataKey(11, "state")); err != nil {
		t.Fatal(err)
	}
	step, state, err := s.RestoreLatest()
	if err != nil || step != 10 || !bytes.Equal(state["state"], good) {
		t.Fatalf("RestoreLatest = %d, %q, %v; want 10, %q", step, state["state"], err, good)
	}
}

func TestRestoreLatestAllDamaged(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	commitStep(t, s, 1, []byte("x"))
	if err := mgr.Put(s.dataKey(1, "state"), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RestoreLatest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
}

func TestLatestVerified(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	commitStep(t, s, 1, []byte("ok"))
	commitStep(t, s, 2, []byte("ok too"))
	if err := mgr.Put(s.dataKey(2, "state"), []byte("junk!!")); err != nil {
		t.Fatal(err)
	}
	step, err := s.LatestVerified()
	if err != nil || step != 1 {
		t.Fatalf("LatestVerified = %d, %v; want 1", step, err)
	}
	// LatestVerified does not quarantine.
	if q, _ := s.Quarantined(); len(q) != 0 {
		t.Fatalf("LatestVerified must not quarantine: %v", q)
	}
}

// damageTables inverts the first byte of marker wherever marker occurs
// in a table file under dir, as disk damage would, and reports whether
// it found any.
func damageTables(t *testing.T, fs vfs.FS, dir string, marker []byte) bool {
	t.Helper()
	names, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range names {
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		f, err := fs.Open(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := vfs.ReadAll(f)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(blob, marker); i >= 0 {
			if _, err := f.WriteAt([]byte{^blob[i]}, int64(i)); err != nil {
				t.Fatal(err)
			}
			found = true
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return found
}

// TestScrubQuarantinesEngineCorruption damages SSTable bytes underneath a
// committed step — disk damage the ckpt payload checksums never get to
// see because the engine's block checksum fails first. The scrubber must
// classify that engine error as per-step corruption (quarantine the step,
// keep scrubbing, restore falls back) rather than abort the whole pass.
func TestScrubQuarantinesEngineCorruption(t *testing.T) {
	fs := vfs.NewMemFS()
	open := func() (*Store, *core.Manager) {
		mgr, err := core.NewManager("app", core.ManagerOptions{
			Store: core.StoreOptions{FS: fs, WriteBufferSize: 32 << 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		return New(mgr, Options{}), mgr
	}
	s, mgr := open()

	// Incompressible payloads: their bytes survive block compression
	// near-literally, so step 2's data can be located inside an SSTable.
	rng := rand.New(rand.NewSource(7))
	good := make([]byte, 48<<10)
	rng.Read(good)
	bad := make([]byte, 48<<10)
	rng.Read(bad)
	commitStep(t, s, 1, good)
	commitStep(t, s, 2, bad)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	if !damageTables(t, fs, "app", bad[1024:1088]) {
		t.Fatal("step 2 payload not found in any SSTable")
	}

	s, mgr = open()
	defer mgr.Close()
	rep, err := s.Scrub()
	if err != nil {
		t.Fatalf("scrub aborted on engine corruption: %v", err)
	}
	if rep.Steps != 2 || rep.Verified != 1 || rep.Unrecoverable != 1 {
		t.Fatalf("scrub report = %+v, want 2 steps / 1 verified / 1 unrecoverable", rep)
	}
	q, err := s.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q[2]; !ok {
		t.Fatalf("step 2 not quarantined: %v", q)
	}
	step, state, err := s.RestoreLatest()
	if err != nil {
		t.Fatalf("restore after quarantine: %v", err)
	}
	if step != 1 || !bytes.Equal(state["state"], good) {
		t.Fatalf("restored step %d, want fallback to intact step 1", step)
	}
}
