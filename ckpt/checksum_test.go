package ckpt

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math/rand"
	"strconv"
	"testing"

	"lsmio/internal/core"
	"lsmio/internal/faultfs"
	"lsmio/internal/lsm"
	"lsmio/internal/vfs"
)

// TestBeginRefusesAnUnreadableManifest: Begin refuses a step that is
// committed, and a manifest it cannot read is not "not committed". A
// read fault comes back as the fault and a damaged manifest block as
// ErrCorrupt, where a Checkpoint would write over a step no one checked.
func TestBeginRefusesAnUnreadableManifest(t *testing.T) {
	mem := vfs.NewMemFS()
	ffs := faultfs.New(mem)
	open := func() (*Store, *core.Manager) {
		mgr, err := core.NewManager("app", core.ManagerOptions{
			Store: core.StoreOptions{FS: ffs, WriteBufferSize: 64 << 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		return New(mgr, Options{}), mgr
	}
	s, mgr := open()
	commitStep(t, s, 1, []byte("committed"))
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	s, mgr = open()
	ffs.AddRule(&faultfs.Rule{Op: faultfs.OpRead, Path: ".sst", Times: -1})
	if c, err := s.Begin(1); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Begin over a read fault = %v, %v; want the injected fault", c, err)
	}
	ffs.ClearRules()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	if !damageTables(t, mem, "app", []byte(`"step":1`)) {
		t.Fatal("step 1's manifest not found in any table")
	}
	s, mgr = open()
	defer mgr.Close()
	if c, err := s.Begin(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Begin over a damaged manifest = %v, %v; want ErrCorrupt", c, err)
	}
}

// TestWrongValueCRCReadsAsCorrupt: the CRC a writer hands down with a
// value becomes the checksum of the table block that holds it, so a CRC
// that is not the value's makes the block fail its check on every read.
// The checkpoint then reads as corrupt, never as other bytes, and a
// restore falls back to the step before it.
func TestWrongValueCRCReadsAsCorrupt(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	rng := rand.New(rand.NewSource(3))
	good := make([]byte, 96<<10) // more than a block: stored raw, on its own
	rng.Read(good)
	commitStep(t, s, 1, good)
	data := make([]byte, 96<<10)
	rng.Read(data)
	commitStep(t, s, 2, data)
	// Step 2's value again, now with a CRC that is not its own: the
	// manifest's CRC still matches the bytes, only the block's does not.
	wrong := crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)) ^ 1
	if err := mgr.PutCRC(s.dataKey(2, "state"), data, wrong); err != nil {
		t.Fatal(err)
	}
	if err := mgr.WriteBarrier(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Get(s.dataKey(2, "state")); !errors.Is(err, lsm.ErrCorruption) {
		t.Fatalf("engine Get = %v, want lsm.ErrCorruption", err)
	}
	if got, err := s.Read(2, "state"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read = %d bytes, %v; want ErrCorrupt", len(got), err)
	}
	if _, err := s.ReadAll(2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadAll = %v, want ErrCorrupt", err)
	}
	step, state, err := s.RestoreLatest()
	if err != nil || step != 1 || !bytes.Equal(state["state"], good) {
		t.Fatalf("RestoreLatest = step %d, %v; want a fallback to step 1", step, err)
	}
}

// checkFallsBack restores the latest step and wants it to be step 1,
// holding want, with step 2 quarantined on the way.
func checkFallsBack(t *testing.T, s *Store, want []byte) {
	t.Helper()
	step, state, rep, err := s.Restore(RestoreOptions{})
	if err != nil || step != 1 || !bytes.Equal(state["state"], want) {
		t.Fatalf("Restore = step %d, %v; want a fallback to step 1", step, err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != 2 {
		t.Fatalf("quarantined = %v, want [2]", rep.Quarantined)
	}
}

// TestOverwrittenVariableFailsTheManifestCheck: a read takes a
// variable's CRC-32C from the block check that verified its bytes, and
// compares it with the manifest's, which Write computed from the
// caller's bytes. Other bytes put over a committed variable sit in an
// intact block, so the engine reads them back with their own CRC; only
// the manifest's entry can tell, and it does: Read reports ErrCorrupt
// and Restore quarantines the step and falls back.
func TestOverwrittenVariableFailsTheManifestCheck(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	rng := rand.New(rand.NewSource(4))
	good, data, other := make([]byte, 96<<10), make([]byte, 96<<10), make([]byte, 96<<10)
	rng.Read(good)
	rng.Read(data)
	rng.Read(other)
	commitStep(t, s, 1, good)
	commitStep(t, s, 2, data)
	if err := mgr.Put(s.dataKey(2, "state"), other); err != nil {
		t.Fatal(err)
	}
	if err := mgr.WriteBarrier(); err != nil {
		t.Fatal(err)
	}
	v, crc, ok, err := mgr.GetCRC(s.dataKey(2, "state"))
	if err != nil || !bytes.Equal(v, other) || !ok || crc != crc32.Checksum(other, castagnoli) {
		t.Fatalf("GetCRC = %d bytes, crc %#08x, ok %v, %v; want the other bytes with their CRC", len(v), crc, ok, err)
	}
	if got, err := s.Read(2, "state"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read = %d bytes, %v; want ErrCorrupt", len(got), err)
	}
	checkFallsBack(t, s, good)
}

// TestFlippedManifestCRCFailsRestore: one bit flipped in a variable's
// manifest CRC, with the manifest digest recomputed so that the manifest
// itself reads as intact, leaves the variable's bytes and its block
// untouched: only the comparison of the CRC the read derived with the
// manifest's can catch it. Read reports ErrCorrupt, and Restore
// quarantines the step and falls back.
func TestFlippedManifestCRCFailsRestore(t *testing.T) {
	s, mgr := newStore(t, 0)
	defer mgr.Close()
	rng := rand.New(rand.NewSource(6))
	good, data := make([]byte, 96<<10), make([]byte, 96<<10)
	rng.Read(good)
	rng.Read(data)
	commitStep(t, s, 1, good)
	commitStep(t, s, 2, data)
	m, err := s.loadManifest(2)
	if err != nil {
		t.Fatal(err)
	}
	m.Vars[0].CRC ^= 1 << 7
	blob, err := json.Marshal(manifest{Version: m.Version, Step: 2, Vars: m.Vars})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Put(s.manifestKey(2), blob); err != nil {
		t.Fatal(err)
	}
	digest := strconv.FormatUint(uint64(crc32.ChecksumIEEE(blob)), 10)
	if err := mgr.Put(s.digestKey(2), []byte(digest)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.WriteBarrier(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.loadManifest(2); err != nil {
		t.Fatalf("the rewritten manifest does not load: %v", err)
	}
	if _, _, ok, err := mgr.GetCRC(s.dataKey(2, "state")); err != nil || !ok {
		t.Fatalf("GetCRC: ok %v, %v; want a derived CRC", ok, err)
	}
	if got, err := s.Read(2, "state"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read = %d bytes, %v; want ErrCorrupt", len(got), err)
	}
	checkFallsBack(t, s, good)
}
