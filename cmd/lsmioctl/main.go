// Command lsmioctl inspects and manipulates an on-disk LSMIO store — the
// operator's tool for real (non-simulated) stores on the local
// filesystem.
//
//	lsmioctl -dir /ckpt/store put run/step 42
//	lsmioctl -dir /ckpt/store get run/step
//	lsmioctl -dir /ckpt/store scan [prefix]
//	lsmioctl -dir /ckpt/store del run/step
//	lsmioctl -dir /ckpt/store stats
//	lsmioctl -dir /ckpt/store compact
//	lsmioctl -dir /ckpt/store scrub
package main

import (
	"flag"
	"fmt"
	"os"
	"unicode"

	"lsmio"
	"lsmio/ckpt"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lsmioctl -dir <store> <command> [args]

commands:
  put <key> <value>   write a key
  get <key>           print a key's value
  del <key>           delete a key
  scan [prefix]       list keys (and printable values) in order
  stats               Manager counters and engine statistics; on a service
                      directory (SERVICE.json), the aggregate across all shards
  tenants             shard layout and tenant quota table of a service directory
  compact             flush and fully compact the store
  verify              check every table's checksums and key ordering
  property <name>     print an engine property (lsmio.last-sequence, ...)
  repair              rebuild CURRENT/MANIFEST from surviving tables and logs
  scrub [prefix]      verify every checkpoint step (default prefix "ckpt"),
                      quarantining damaged steps and unquarantining repaired ones
  restore [-verify] [-json] [-parallel n] [prefix]
                      restore the newest fully-verified checkpoint through the
                      self-healing pipeline (journaled, damaged steps are
                      quarantined and skipped); -verify re-verifies the restored
                      step end-to-end afterwards, -json prints the restore
                      report as JSON`)
	os.Exit(2)
}

func printable(b []byte) string {
	if len(b) > 64 {
		return fmt.Sprintf("<%d bytes>", len(b))
	}
	for _, r := range string(b) {
		if !unicode.IsPrint(r) {
			return fmt.Sprintf("<%d bytes>", len(b))
		}
	}
	return string(b)
}

func main() {
	dir := flag.String("dir", "", "store directory (parent of the DB)")
	flag.Usage = usage
	flag.Parse()
	if *dir == "" || flag.NArg() < 1 {
		usage()
	}
	fs, err := lsmio.NewOSFS(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmioctl:", err)
		os.Exit(1)
	}
	opts := lsmio.CheckpointEngineOptions(fs)
	// Repair runs before (instead of) opening: it exists for stores whose
	// metadata cannot be opened.
	if flag.Arg(0) == "repair" {
		sum, err := lsmio.RepairDB("store", opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsmioctl:", err)
			os.Exit(1)
		}
		fmt.Printf("recovered %d table(s) with %d entries, %d WAL record(s); skipped %d\n",
			sum.TablesRecovered, sum.EntriesRecovered, sum.LogRecordsRecovered, sum.TablesSkipped)
		for _, p := range sum.Problems {
			fmt.Println("  problem:", p)
		}
		return
	}
	// Stats goes through the Manager — the operator view matches what an
	// application linked against the library would see: the unified obs
	// registry covering the `core.*` session counters and the engine's
	// cumulative `lsm.*` statistics in one hierarchical snapshot.
	if flag.Arg(0) == "stats" {
		statsCmd(fs, flag.Args()[1:])
		return
	}
	// Tenants reads the multi-tenant service manifest (SERVICE.json) in a
	// directory hosted by lsmiod: shard layout plus the tenant quota
	// table.
	if flag.Arg(0) == "tenants" {
		tenantsCmd(fs, flag.Args()[1:])
		return
	}
	// Scrub works at the checkpoint layer: every committed step is
	// verified end-to-end, damage is quarantined (restore skips it), and
	// steps that verify again after a repair are unquarantined.
	if flag.Arg(0) == "scrub" {
		mgr, err := lsmio.NewManager("store", lsmio.ManagerOptions{
			Store: lsmio.StoreOptions{FS: fs},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsmioctl:", err)
			os.Exit(1)
		}
		store := ckpt.New(mgr, ckpt.Options{Prefix: flag.Arg(1)})
		rep, err := store.Scrub()
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsmioctl:", err)
			os.Exit(1)
		}
		fmt.Printf("scrubbed %d step(s): %d verified, %d repaired, %d unrecoverable\n",
			rep.Steps, rep.Verified, rep.Repaired, rep.Unrecoverable)
		if q, err := store.Quarantined(); err == nil {
			for step, reason := range q {
				fmt.Printf("  quarantined step %d: %s\n", step, reason)
			}
		}
		if err := mgr.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "lsmioctl:", err)
			os.Exit(1)
		}
		if rep.Unrecoverable > 0 {
			os.Exit(1)
		}
		return
	}
	// Restore runs the self-healing restore pipeline: parallel verified
	// reads, quarantine-and-fallback past damaged steps, and a journal so
	// an interrupted invocation resumes where it left off.
	if flag.Arg(0) == "restore" {
		restoreCmd(fs, flag.Args()[1:])
		return
	}
	// Open the engine directly so scan/compact are available; the
	// store layout is exactly what the Manager produces.
	db, err := lsmio.OpenDB("store", opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmioctl:", err)
		os.Exit(1)
	}
	defer db.Close()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "lsmioctl:", err)
		os.Exit(1)
	}

	switch cmd, args := flag.Arg(0), flag.Args()[1:]; cmd {
	case "put":
		if len(args) != 2 {
			usage()
		}
		if err := db.Put([]byte(args[0]), []byte(args[1])); err != nil {
			die(err)
		}
		if err := db.Flush(); err != nil {
			die(err)
		}
	case "get":
		if len(args) != 1 {
			usage()
		}
		v, err := db.Get([]byte(args[0]))
		if err != nil {
			die(err)
		}
		os.Stdout.Write(v)
		fmt.Println()
	case "del":
		if len(args) != 1 {
			usage()
		}
		if err := db.Delete([]byte(args[0])); err != nil {
			die(err)
		}
		if err := db.Flush(); err != nil {
			die(err)
		}
	case "scan":
		var lower, upper []byte
		if len(args) > 0 && args[0] != "" {
			lower = []byte(args[0])
			upper = prefixSuccessor(lower)
		}
		it, err := db.NewRangeIterator(lower, upper)
		if err != nil {
			die(err)
		}
		defer it.Close()
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			fmt.Printf("%-40s %s\n", it.Key(), printable(it.Value()))
			n++
		}
		fmt.Printf("(%d keys)\n", n)
	case "compact":
		if err := db.CompactAll(); err != nil {
			die(err)
		}
		fmt.Println("compacted")
	case "verify":
		if err := db.VerifyChecksums(); err != nil {
			die(err)
		}
		fmt.Println("all table checksums and orderings verified")
	case "property":
		if len(args) != 1 {
			usage()
		}
		v, ok := db.GetProperty(args[0])
		if !ok {
			die(fmt.Errorf("unknown property %q", args[0]))
		}
		fmt.Println(v)
	default:
		usage()
	}
}

// prefixSuccessor returns the smallest key greater than every key with
// the given prefix (nil for an all-0xff prefix).
func prefixSuccessor(prefix []byte) []byte {
	out := append([]byte(nil), prefix...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xff {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}
