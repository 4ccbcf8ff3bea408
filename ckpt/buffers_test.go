package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lsmio/internal/core"
	"lsmio/internal/faultfs"
	"lsmio/internal/vfs"
)

// The buffer contract of Write: data must not change until Commit or
// Abort returns. From then on the caller's buffers are its own again,
// whatever the store's configuration.

// bufferVars returns a step's variables, the same for the same seed: a
// few bytes, one block, several blocks, and more than the 256 KiB
// memtable of TestBuffersAreTheCallersAfterCommit, so that the step is
// flushed in parts before its Commit.
func bufferVars(seed int64) map[string][]byte {
	rng := rand.New(rand.NewSource(seed))
	vars := make(map[string][]byte)
	for i, n := range []int{100, 64 << 10, 200 << 10, 1 << 20} {
		v := make([]byte, n)
		rng.Read(v)
		vars[fmt.Sprintf("v%d", i)] = v
	}
	return vars
}

// flip inverts every byte of v.
func flip(v []byte) {
	for i := range v {
		v[i] ^= 0xff
	}
}

func TestBuffersAreTheCallersAfterCommit(t *testing.T) {
	for _, backend := range []core.Backend{core.BackendRocks, core.BackendLevel} {
		t.Run(string(backend), func(t *testing.T) {
			mgr, err := core.NewManager("app", core.ManagerOptions{
				Store: core.StoreOptions{Backend: backend, FS: vfs.NewMemFS(), WriteBufferSize: 256 << 10},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			s := New(mgr, Options{})
			for step := int64(1); step <= 2; step++ {
				vars, want := bufferVars(step), bufferVars(step)
				c, err := s.Begin(step)
				if err != nil {
					t.Fatal(err)
				}
				for name, v := range vars {
					if err := c.Write(name, v); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.Commit(); err != nil {
					t.Fatal(err)
				}
				for _, v := range vars {
					flip(v)
				}
				got, err := s.ReadAll(step)
				if err != nil {
					t.Fatalf("step %d: ReadAll: %v", step, err)
				}
				for name, v := range want {
					if !bytes.Equal(got[name], v) {
						t.Fatalf("step %d: %s is not what was committed", step, name)
					}
					if r, err := s.Read(step, name); err != nil || !bytes.Equal(r, v) {
						t.Fatalf("step %d: Read %s = %d bytes, %v", step, name, len(r), err)
					}
				}
			}
			step, state, _, err := s.Restore(RestoreOptions{})
			if err != nil || step != 2 || len(state) != 4 {
				t.Fatalf("Restore = step %d, %d vars, %v; want step 2", step, len(state), err)
			}
			for name, v := range bufferVars(2) {
				if !bytes.Equal(state[name], v) {
					t.Fatalf("Restore: %s is not what was committed", name)
				}
			}
		})
	}
}

// TestBufferChangedBeforeCommit breaks the contract on purpose: a
// buffer changes between its Write and the Commit. The changed bytes
// never read back as the committed variable. With the WAL off the store
// kept the buffer, so the step reads as corrupt (a value of a block or
// more fails its block's check, which holds the CRC Write computed; a
// smaller one fails the manifest's CRC) and Restore falls back. With the
// WAL on the store copied the bytes Write saw, and those read back.
func TestBufferChangedBeforeCommit(t *testing.T) {
	for _, backend := range []core.Backend{core.BackendRocks, core.BackendLevel} {
		for _, n := range []int{100, 96 << 10} {
			t.Run(fmt.Sprintf("%s/%d", backend, n), func(t *testing.T) {
				mgr, err := core.NewManager("app", core.ManagerOptions{
					Store: core.StoreOptions{Backend: backend, FS: vfs.NewMemFS(), WriteBufferSize: 64 << 10},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer mgr.Close()
				s := New(mgr, Options{})
				rng := rand.New(rand.NewSource(int64(n)))
				good, data := make([]byte, n), make([]byte, n)
				rng.Read(good)
				rng.Read(data)
				written := bytes.Clone(data)
				commitStep(t, s, 1, good)
				c, err := s.Begin(2)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Write("state", data); err != nil {
					t.Fatal(err)
				}
				flip(data)
				if err := c.Commit(); err != nil {
					t.Fatal(err)
				}
				got, err := s.Read(2, "state")
				if backend == core.BackendLevel {
					if err != nil || !bytes.Equal(got, written) {
						t.Fatalf("Read = %d bytes, %v; want the bytes Write saw", len(got), err)
					}
					return
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Read = %d bytes, %v; want ErrCorrupt", len(got), err)
				}
				if _, err := s.ReadAll(2); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("ReadAll = %v, want ErrCorrupt", err)
				}
				checkFallsBack(t, s, good)
			})
		}
	}
}

// TestAbortReleasesBuffersAfterFailedCommit: a Commit whose barrier fails
// leaves the step's data in the store's memtable, which on a store
// without a WAL is the caller's buffers. Abort writes it out before it
// returns, so the buffers may change from then on: the next step commits
// and restores, and a scan of every key, which reads the aborted step's
// table too, finds no block that fails its check.
func TestAbortReleasesBuffersAfterFailedCommit(t *testing.T) {
	ffs := faultfs.New(vfs.NewMemFS())
	mgr, err := core.NewManager("app", core.ManagerOptions{
		Store: core.StoreOptions{FS: ffs, WriteBufferSize: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	s := New(mgr, Options{})
	commitStep(t, s, 1, []byte("first"))
	vars := bufferVars(2)
	c, err := s.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range vars {
		if err := c.Write(name, v); err != nil {
			t.Fatal(err)
		}
	}
	ffs.AddRule(&faultfs.Rule{Op: faultfs.OpWrite, Path: ".sst", Times: -1})
	if err := c.Commit(); err == nil {
		t.Fatal("Commit succeeded with every table write failing")
	}
	ffs.ClearRules()
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	for _, v := range vars {
		flip(v)
	}
	state := bufferVars(3)
	c, err = s.Begin(3)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range state {
		if err := c.Write(name, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	step, got, _, err := s.Restore(RestoreOptions{})
	if err != nil || step != 3 || len(got) != len(state) {
		t.Fatalf("Restore = step %d, %d vars, %v; want step 3", step, len(got), err)
	}
	for name, v := range bufferVars(3) {
		if !bytes.Equal(got[name], v) {
			t.Fatalf("Restore: %s is not what was committed", name)
		}
	}
	if err := mgr.ReadBatch("", func(string, []byte) bool { return true }); err != nil {
		t.Fatalf("scan of every key: %v", err)
	}
}
