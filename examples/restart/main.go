// Restart demo for the ckpt package: versioned checkpoints with
// manifests, integrity verification, retention, and crash-atomic commit,
// on the real filesystem.
//
// The program simulates an application that checkpoints every few steps,
// "crashes" mid-checkpoint (data written, manifest not yet committed),
// and then restarts — recovering the last *committed* step, never the
// torn one. Retention keeps two steps, and a dropped or aborted step's
// tables are freed whole: after the restart the program checks that the
// store's table files hold no more than the kept steps, and exits
// non-zero when they do.
//
//	go run ./examples/restart [dir]
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"lsmio"
	"lsmio/ckpt"
)

func openStore(dir string) (*ckpt.Store, *lsmio.Manager) {
	fs, err := lsmio.NewOSFS(dir)
	if err != nil {
		log.Fatal(err)
	}
	mgr, err := lsmio.NewManager("store", lsmio.ManagerOptions{
		Store: lsmio.StoreOptions{FS: fs, Async: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	return ckpt.New(mgr, ckpt.Options{Keep: 2}), mgr
}

func state(step int64) []byte {
	return bytes.Repeat([]byte{byte(step)}, 1<<20) // 1 MB of "field"
}

func main() {
	dir := "lsmio-restart-demo"
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}

	// --- first life: checkpoint steps 10, 20, 30; crash during 40 ------
	store, mgr := openStore(dir)
	for _, step := range []int64{10, 20, 30} {
		c, err := store.Begin(step)
		if err != nil {
			log.Fatal(err)
		}
		c.Write("field", state(step))
		c.Write("meta", []byte(fmt.Sprintf("step=%d", step)))
		if err := c.Commit(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("committed checkpoint %d\n", step)
	}
	// Step 40: data written but the process dies before Commit.
	torn, _ := store.Begin(40)
	torn.Write("field", state(40))
	fmt.Println("writing checkpoint 40... simulated crash before commit!")
	mgr.Close() // the "crash" (close just releases; no manifest was written)

	// --- second life: restart -----------------------------------------
	store2, mgr2 := openStore(dir)

	steps, err := store2.Steps()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter restart, committed checkpoints: %v (retention keeps 2)\n", steps)

	latest, err := store2.Latest()
	if err != nil {
		log.Fatal(err)
	}
	all, err := store2.ReadAll(latest) // one sequential batch read
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(all["field"], state(latest)) {
		log.Fatal("recovered state does not match")
	}
	fmt.Printf("recovered step %d: %d variables, %d bytes of field data, checksums ok\n",
		latest, len(all), len(all["field"]))
	fmt.Printf("meta: %s\n", all["meta"])
	fmt.Println("\nthe torn checkpoint 40 is invisible: its manifest was never committed.")

	// The application resumes from the recovered step and rolls the torn
	// one back: Abort frees the table its data went to.
	if torn, err = store2.Begin(40); err == nil {
		err = torn.Abort()
	}
	if err != nil {
		log.Fatal(err)
	}
	var live int64
	for _, step := range steps {
		n, err := store2.Size(step)
		if err != nil {
			log.Fatal(err)
		}
		live += n
	}
	if err := mgr2.Close(); err != nil { // lets the flusher finish its unlinks
		log.Fatal(err)
	}
	stored := tableBytes(filepath.Join(dir, "store"))
	fmt.Printf("table files hold %d bytes for %d bytes of kept checkpoints (%.3f)\n",
		stored, live, float64(stored)/float64(live))
	if float64(stored) > 1.05*float64(live) {
		log.Fatal("the dropped checkpoints' tables were not freed")
	}
}

// tableBytes sums the sizes of the .sst files in dir.
func tableBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".sst") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			log.Fatal(err)
		}
		total += info.Size()
	}
	return total
}
