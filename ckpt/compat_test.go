package ckpt

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"lsmio/internal/core"
	"lsmio/internal/vfs"
)

var updateFixture = flag.Bool("update", false,
	"rewrite testdata/ieee-store: checkpoints in the version-0 manifest format (CRC-32 IEEE) of earlier builds")

const ieeeStoreDir = "testdata/ieee-store"

// fixtureStep is one checkpoint of testdata/ieee-store: its writes in
// order, so a name written twice appears twice.
type fixtureStep struct {
	step   int64
	writes []fixtureWrite
}

type fixtureWrite struct {
	name string
	data []byte
}

// state is what the step holds: each name's last write.
func (st fixtureStep) state() map[string][]byte {
	out := make(map[string][]byte)
	for _, w := range st.writes {
		out[w.name] = w.data
	}
	return out
}

// ieeeSteps are the checkpoints of testdata/ieee-store. With the
// fixture's 4 KiB blocks, variables of 4 KiB and more lie raw in blocks
// of their own and the small ones share blocks. Step 3 writes "a" twice,
// which earlier builds recorded as two manifest entries.
func ieeeSteps() []fixtureStep {
	rng := rand.New(rand.NewSource(46))
	data := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	return []fixtureStep{
		{1, []fixtureWrite{{"a", data(100)}, {"b", data(9000)}}},
		{2, []fixtureWrite{{"a", data(150)}, {"b", data(12000)}, {"c", data(5000)}}},
		{3, []fixtureWrite{{"a", data(300)}, {"b", data(4096)}, {"a", data(9000)}}},
	}
}

func openFixtureStore(t *testing.T, fs vfs.FS) (*Store, *core.Manager) {
	t.Helper()
	mgr, err := core.NewManager("app", core.ManagerOptions{
		Store: core.StoreOptions{FS: fs, BlockSize: 4 << 10, WriteBufferSize: 64 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(mgr, Options{}), mgr
}

// writeIEEEFixture writes steps to a new store the way earlier builds
// committed them — an entry per write with its CRC-32 IEEE, no manifest
// version, the data barrier, the manifest and its digest, a barrier —
// and copies the store's files to testdata/ieee-store. A build that
// commits in another format must leave this writer as it is.
func writeIEEEFixture(t *testing.T, steps []fixtureStep) {
	t.Helper()
	fs := vfs.NewMemFS()
	s, mgr := openFixtureStore(t, fs)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range steps {
		m := manifest{Step: st.step}
		for _, w := range st.writes {
			must(mgr.Put(s.dataKey(st.step, w.name), w.data))
			m.Vars = append(m.Vars, varEntry{Name: w.name, Bytes: int64(len(w.data)), CRC: crc32.ChecksumIEEE(w.data)})
		}
		must(mgr.WriteBarrier())
		blob, err := json.Marshal(m)
		must(err)
		must(mgr.Put(s.manifestKey(st.step), blob))
		must(mgr.Put(s.digestKey(st.step), []byte(strconv.FormatUint(uint64(crc32.ChecksumIEEE(blob)), 10))))
		must(mgr.WriteBarrier())
	}
	must(mgr.Close())
	must(os.RemoveAll(ieeeStoreDir))
	must(os.MkdirAll(ieeeStoreDir, 0o755))
	names, err := fs.List("app")
	must(err)
	for _, name := range names {
		f, err := fs.Open("app/" + name)
		must(err)
		data, err := vfs.ReadAll(f)
		f.Close()
		must(err)
		must(os.WriteFile(filepath.Join(ieeeStoreDir, name), data, 0o644))
	}
}

// loadIEEEFixture copies testdata/ieee-store into a new MemFS.
func loadIEEEFixture(t *testing.T) *vfs.MemFS {
	t.Helper()
	fs := vfs.NewMemFS()
	entries, err := os.ReadDir(ieeeStoreDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(ieeeStoreDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create("app/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return fs
}

func sameState(got, want map[string][]byte) bool {
	if len(got) != len(want) {
		return false
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			return false
		}
	}
	return true
}

// TestEarlierCheckpointsStillVerify opens checkpoints committed by
// earlier builds, whose manifests record CRC-32 IEEE without a version,
// and reads them through every path that verifies: Read, ReadAll,
// Verify, and Restore without and with a Local snapshot. A variable
// written twice reads as its last write on all of them. One flipped
// payload byte still reads as ErrCorrupt, whether it is in the table
// (the engine's block checksum) or came in through the store (the
// manifest's IEEE checksum).
func TestEarlierCheckpointsStillVerify(t *testing.T) {
	steps := ieeeSteps()
	if *updateFixture {
		writeIEEEFixture(t, steps)
	}
	s, mgr := openFixtureStore(t, loadIEEEFixture(t))
	defer mgr.Close()
	for _, st := range steps {
		want := st.state()
		if err := s.Verify(st.step); err != nil {
			t.Fatalf("Verify(%d): %v", st.step, err)
		}
		if all, err := s.ReadAll(st.step); err != nil || !sameState(all, want) {
			t.Fatalf("ReadAll(%d): %d variables, %v", st.step, len(all), err)
		}
		for name, data := range want {
			if got, err := s.Read(st.step, name); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("Read(%d, %s) = %d bytes, %v; want %d bytes", st.step, name, len(got), err, len(data))
			}
		}
	}
	last := steps[len(steps)-1]
	want := last.state()
	step, state, rep, err := s.Restore(RestoreOptions{})
	if err != nil || step != last.step || !sameState(state, want) || rep.DeltaVars != 0 {
		t.Fatalf("Restore = step %d, %d reused, %v", step, rep.DeltaVars, err)
	}
	// A Local copy is reused when its IEEE checksum matches, and read from
	// the store when one byte of it differs.
	local := make(map[string][]byte)
	for name, data := range want {
		local[name] = bytes.Clone(data)
	}
	local["b"][10] ^= 1
	step, state, rep, err = s.Restore(RestoreOptions{Local: local})
	if err != nil || step != last.step || !sameState(state, want) || rep.DeltaVars != int64(len(want)-1) {
		t.Fatalf("Restore with Local = step %d, %d of %d reused, %v", step, rep.DeltaVars, len(want), err)
	}

	// One payload byte flipped on its way in through the store: the
	// block checksum is the engine's own and holds, so only the
	// manifest's IEEE CRC can tell.
	tampered := bytes.Clone(want["b"])
	tampered[len(tampered)/2] ^= 0x10
	if err := mgr.Put(s.dataKey(last.step, "b"), tampered); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(last.step, "b"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read of a tampered variable: %v", err)
	}
	if err := s.Verify(last.step); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify of a tampered step: %v", err)
	}
	if step, _, err := s.RestoreLatest(); err != nil || step != last.step-1 {
		t.Fatalf("RestoreLatest = step %d, %v; want a fallback to %d", step, err, last.step-1)
	}

	// One byte flipped in a table: the engine's block checksum fails.
	fs := loadIEEEFixture(t)
	b1 := steps[0].state()["b"]
	if !damageTables(t, fs, "app", b1[100:132]) {
		t.Fatal("step 1's b not found in any table")
	}
	s, mgr = openFixtureStore(t, fs)
	defer mgr.Close()
	if _, err := s.Read(1, "b"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read of a damaged block: %v", err)
	}
	if _, err := s.ReadAll(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadAll of a damaged block: %v", err)
	}
}
