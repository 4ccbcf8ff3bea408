package adios2

import (
	"bytes"
	"fmt"
	"testing"

	"lsmio/internal/mpisim"
	"lsmio/internal/netsim"
	"lsmio/internal/rt"
	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

// TestMultiRankBP exercises the MPI-coupled BP path: every rank writes its
// own subfile, metadata is gathered to rank 0 which writes md.0/md.idx,
// and each rank reads its own data back.
func TestMultiRankBP(t *testing.T) {
	const ranks = 4
	k := sim.NewKernel()
	fabric := netsim.New(k, netsim.DefaultConfig(ranks))
	world := mpisim.NewWorld(k, fabric, ranks)
	fs := vfs.NewMemFS() // shared backing store (one namespace)

	err := world.Run(func(r *mpisim.Rank) {
		a := New(Config{FS: fs, Runtime: rt.Sim(k), Rank: r})
		io := a.DeclareIO("out")
		io.SetParameter("BufferChunkSize", "65536")
		v := io.DefineVariable("field", 8, 1024)

		w, err := io.Open("multi", ModeWrite)
		if err != nil {
			t.Error(err)
			return
		}
		payload := bytes.Repeat([]byte{byte('A' + r.Rank())}, 8192)
		if err := w.Put(v, payload, Deferred); err != nil {
			t.Error(err)
			return
		}
		if err := w.PerformPuts(); err != nil {
			t.Error(err)
			return
		}
		if err := w.Close(); err != nil { // gathers metadata to rank 0
			t.Error(err)
			return
		}
		r.Barrier()

		// Read back own subfile data.
		rd, err := io.Open("multi", ModeRead)
		if err != nil {
			t.Error(err)
			return
		}
		dst := make([]byte, 8192)
		if err := rd.Get(v, dst); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(dst, payload) {
			t.Errorf("rank %d read wrong data", r.Rank())
		}
		rd.Close()
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every rank produced a subfile + index; only rank 0 wrote md files.
	for r := 0; r < ranks; r++ {
		for _, name := range []string{fmt.Sprintf("multi.bp/data.%d", r), fmt.Sprintf("multi.bp/idx.%d", r)} {
			if !fs.Exists(name) {
				t.Fatalf("missing %s", name)
			}
		}
	}
	if !fs.Exists("multi.bp/md.0") || !fs.Exists("multi.bp/md.idx") {
		t.Fatal("rank 0 metadata files missing")
	}
	// The aggregated metadata holds all ranks' block records.
	f, _ := fs.Open("multi.bp/md.0")
	md, _ := vfs.ReadAll(f)
	f.Close()
	for r := 0; r < ranks; r++ {
		if !bytes.Contains(md, []byte(fmt.Sprintf(`"rank":%d`, r))) {
			t.Fatalf("md.0 missing rank %d records", r)
		}
	}
}
