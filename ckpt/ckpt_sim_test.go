package ckpt

import (
	"bytes"
	"fmt"
	"testing"

	"lsmio/internal/core"
	"lsmio/internal/mpisim"
	"lsmio/internal/obs/obstest"
	"lsmio/internal/pfs"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
)

// TestCheckpointOnSimulatedCluster runs the full stack end to end: eight
// MPI ranks on the simulated Lustre cluster checkpoint through the ckpt
// layer (manifests, retention), then every rank restores its newest
// committed step and verifies content.
func TestCheckpointOnSimulatedCluster(t *testing.T) {
	const ranks = 8
	k := sim.NewKernel()
	rtm := rt.Sim(k)
	cluster := pfs.NewCluster(k, pfs.VikingConfig(ranks))
	world := mpisim.NewWorld(k, cluster.Fabric(), ranks)

	state := func(rank int, step int64) []byte {
		return bytes.Repeat([]byte{byte(rank*16 + int(step))}, 64<<10)
	}

	err := world.Run(func(r *mpisim.Rank) {
		mgr, err := core.NewManager(fmt.Sprintf("ck/rank%02d", r.Rank()), core.ManagerOptions{
			Store: core.StoreOptions{
				FS:              cluster.Client(r.Rank()),
				Async:           true,
				WriteBufferSize: 256 << 10,
			},
			Runtime: rtm,
			MPI:     r,
		})
		if err != nil {
			t.Error(err)
			return
		}
		store := New(mgr, Options{Keep: 2})

		for _, step := range []int64{1, 2, 3} {
			c, err := store.Begin(step)
			if err != nil {
				t.Error(err)
				return
			}
			for v := 0; v < 4; v++ {
				if err := c.Write(fmt.Sprintf("var%d", v), state(r.Rank(), step)); err != nil {
					t.Error(err)
					return
				}
			}
			if err := c.Commit(); err != nil {
				t.Error(err)
				return
			}
			r.Barrier() // all ranks complete the step's checkpoint together
		}

		// Restore: retention must have pruned step 1.
		steps, err := store.Steps()
		if err != nil || len(steps) != 2 || steps[0] != 2 || steps[1] != 3 {
			t.Errorf("rank %d steps = %v, %v", r.Rank(), steps, err)
			return
		}
		latest, _ := store.Latest()
		all, err := store.ReadAll(latest)
		if err != nil {
			t.Error(err)
			return
		}
		for v := 0; v < 4; v++ {
			if !bytes.Equal(all[fmt.Sprintf("var%d", v)], state(r.Rank(), latest)) {
				t.Errorf("rank %d var%d mismatch after restore", r.Rank(), v)
				return
			}
		}
		if err := mgr.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Per-rank stores: the whole run must be lock-migration free.
	if w, l := cluster.Stats().BytesWritten, obstest.Counter(t, cluster.Obs(), "pfs.lock_switches"); w == 0 || l != 0 {
		t.Fatalf("storage stats: %d bytes written, %d lock switches", w, l)
	}
}
