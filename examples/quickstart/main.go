// Quickstart: the LSMIO public API on the real filesystem.
//
// It exercises the three interfaces from the paper's Figure 3 against one
// store: the K/V Manager (typed puts, append, write barrier), the
// IOStream-like FStream API, and direct engine access with an iterator,
// then prints the performance counters.
//
//	go run ./examples/quickstart [dir]
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"

	"lsmio"
)

func main() {
	dir := "lsmio-quickstart"
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	fs, err := lsmio.NewOSFS(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store directory: %s\n\n", dir)

	// --- K/V API (paper Table 2) ---------------------------------------
	mgr, err := lsmio.NewManager("store", lsmio.ManagerOptions{
		Store: lsmio.StoreOptions{
			FS:      fs,
			Backend: lsmio.BackendRocks, // WAL off; durability via barrier
			Async:   true,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	if err := mgr.PutString("run/name", "quickstart"); err != nil {
		log.Fatal(err)
	}
	mgr.PutInt64("run/step", 42)
	mgr.PutFloat64("run/time", 3.14159)
	state := bytes.Repeat([]byte{0xCA, 0xFE}, 1<<19) // 1 MB of "field data"
	mgr.Put("field/density", state)
	mgr.Append("log", []byte("step 42 checkpointed; "))
	mgr.Append("log", []byte("all ranks healthy"))

	// The write barrier is the durability point (the paper's implicit
	// end-of-checkpoint flush).
	if err := mgr.WriteBarrier(); err != nil {
		log.Fatal(err)
	}

	step, _ := mgr.GetInt64("run/step")
	simTime, _ := mgr.GetFloat64("run/time")
	logLine, _ := mgr.Get("log")
	fmt.Printf("K/V API:    step=%d time=%.5f log=%q\n", step, simTime, logLine)

	// --- FStream API (paper Table 3) ------------------------------------
	streams := lsmio.NewFStreamSystem(mgr)
	f, err := streams.Open("restart.dat", lsmio.ModeWrite)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(f, "restart file written through an iostream-like API at position %d", f.TellP())
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	streams.WriteBarrier()

	g, _ := streams.Open("restart.dat", lsmio.ModeRead)
	content, _ := io.ReadAll(g)
	g.Close()
	fmt.Printf("FStream:    %q\n", content)

	// --- counters -------------------------------------------------------
	c := mgr.Obs().Snapshot().Counters
	fmt.Printf("counters:   puts=%d gets=%d appends=%d barriers=%d bytes=%d\n",
		c["core.puts"], c["core.gets"], c["core.appends"], c["core.barriers"], c["core.bytes_put"])
	fmt.Printf("engine:     flushes=%d bytesFlushed=%d walBytes=%d\n",
		c["lsm.flush.count"], c["lsm.flush.bytes"], c["lsm.wal.bytes"])
	if err := mgr.Close(); err != nil {
		log.Fatal(err)
	}

	// --- direct engine access -------------------------------------------
	db, err := lsmio.OpenDB("store", lsmio.CheckpointEngineOptions(fs))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	it, err := db.NewIterator()
	if err != nil {
		log.Fatal(err)
	}
	defer it.Close()
	fmt.Println("\nkeys on disk (via engine iterator):")
	for it.SeekToFirst(); it.Valid(); it.Next() {
		fmt.Printf("  %-24s %6d bytes\n", it.Key(), len(it.Value()))
	}
}
