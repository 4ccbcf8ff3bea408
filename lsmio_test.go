package lsmio_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"lsmio"
	"lsmio/internal/obs/obstest"
)

// The facade tests exercise the public API exactly as a downstream user
// would, on both the in-memory FS and the real filesystem.

func TestPublicKVRoundTrip(t *testing.T) {
	mgr, err := lsmio.NewManager("db", lsmio.ManagerOptions{
		Store: lsmio.StoreOptions{FS: lsmio.NewMemFS()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if err := mgr.Put("key", []byte("value")); err != nil {
		t.Fatal(err)
	}
	if err := mgr.WriteBarrier(); err != nil {
		t.Fatal(err)
	}
	v, err := mgr.Get("key")
	if err != nil || string(v) != "value" {
		t.Fatalf("get: %q %v", v, err)
	}
	if _, err := mgr.Get("absent"); !errors.Is(err, lsmio.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestPublicOnRealFilesystem(t *testing.T) {
	fs, err := lsmio.NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := lsmio.NewManager("store", lsmio.ManagerOptions{
		Store: lsmio.StoreOptions{FS: fs, Backend: lsmio.BackendRocks},
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("checkpoint"), 10000)
	for i := 0; i < 20; i++ {
		mgr.Put(string(rune('a'+i)), payload)
	}
	if err := mgr.WriteBarrier(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen from disk.
	mgr2, err := lsmio.NewManager("store", lsmio.ManagerOptions{
		Store: lsmio.StoreOptions{FS: fs},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	v, err := mgr2.Get("a")
	if err != nil || !bytes.Equal(v, payload) {
		t.Fatalf("reopen get: %v", err)
	}
}

func TestPublicFStream(t *testing.T) {
	sys, err := lsmio.InitializeFStreams("fsys", lsmio.ManagerOptions{
		Store: lsmio.StoreOptions{FS: lsmio.NewMemFS()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Cleanup()
	f, err := sys.Open("ckpt.bin", lsmio.ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("simulation state"))
	f.Close()
	sys.WriteBarrier()

	g, err := sys.Open("ckpt.bin", lsmio.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 16)
	io.ReadFull(g, data)
	if string(data) != "simulation state" {
		t.Fatalf("got %q", data)
	}
	g.Close()
}

func TestPublicEngineDirect(t *testing.T) {
	db, err := lsmio.OpenDB("engine", lsmio.CheckpointEngineOptions(lsmio.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	b := lsmio.NewBatch()
	b.Put([]byte("k1"), []byte("v1"))
	b.Put([]byte("k2"), []byte("v2"))
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	count := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		count++
	}
	if count != 2 {
		t.Fatalf("iterated %d keys", count)
	}
}

func TestPublicPluginRegistration(t *testing.T) {
	lsmio.RegisterADIOS2Plugin()
	if lsmio.ADIOS2PluginName != "lsmio" {
		t.Fatalf("plugin name = %q", lsmio.ADIOS2PluginName)
	}
}

func TestPublicCountersAndStats(t *testing.T) {
	mgr, _ := lsmio.NewManager("db", lsmio.ManagerOptions{
		Store: lsmio.StoreOptions{FS: lsmio.NewMemFS()},
	})
	defer mgr.Close()
	mgr.Put("k", []byte("v"))
	mgr.Get("k")
	if puts, gets := obstest.Counter(t, mgr.Obs(), "core.puts"), obstest.Counter(t, mgr.Obs(), "core.gets"); puts != 1 || gets != 1 {
		t.Fatalf("puts %d, gets %d, want 1 and 1", puts, gets)
	}
	mgr.WriteBarrier()
	if n := obstest.Counter(t, mgr.Obs(), "lsm.flush.count"); n == 0 {
		t.Fatalf("engine flushes: %d", n)
	}
}

func TestPublicSnapshotAndRangeIterator(t *testing.T) {
	db, err := lsmio.OpenDB("snapdb", lsmio.CheckpointEngineOptions(lsmio.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 10; i++ {
		db.Put([]byte{byte('a' + i)}, []byte{byte(i)})
	}
	// A range iterator is a snapshot: writes after it opens stay unseen.
	it, err := db.NewRangeIterator([]byte("c"), []byte("f"))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	db.Put([]byte("d"), []byte("changed"))
	db.Put([]byte("cc"), []byte("new"))
	var keys []string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if len(it.Value()) != 1 {
			t.Fatalf("iterator saw %q at %q, written after it opened", it.Value(), it.Key())
		}
		keys = append(keys, string(it.Key()))
	}
	if fmt.Sprint(keys) != "[c d e]" {
		t.Fatalf("range saw %v, want [c d e]", keys)
	}
	if v, err := db.Get([]byte("d")); err != nil || string(v) != "changed" {
		t.Fatalf("live get: %q %v", v, err)
	}
}

func TestPublicRepair(t *testing.T) {
	fs := lsmio.NewMemFS()
	db, err := lsmio.OpenDB("r", lsmio.CheckpointEngineOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("k"), []byte("v"))
	db.Flush()
	db.Close()
	fs.Remove("r/CURRENT")
	if _, err := lsmio.OpenDB("r", lsmio.CheckpointEngineOptions(fs)); err == nil {
		t.Fatal("open after metadata loss should fail")
	}
	sum, err := lsmio.RepairDB("r", lsmio.CheckpointEngineOptions(fs))
	if err != nil || sum.TablesRecovered == 0 {
		t.Fatalf("repair: %+v %v", sum, err)
	}
	db2, err := lsmio.OpenDB("r", lsmio.CheckpointEngineOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, err := db2.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("after repair: %q %v", v, err)
	}
	if err := db2.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicCompressionCodecs(t *testing.T) {
	opts := lsmio.DefaultEngineOptions(lsmio.NewMemFS())
	opts.Compression = lsmio.CompressionSnappy
	db, err := lsmio.OpenDB("c", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	payload := bytes.Repeat([]byte("compressible "), 5000)
	db.Put([]byte("k"), payload)
	db.Flush()
	if v, err := db.Get([]byte("k")); err != nil || !bytes.Equal(v, payload) {
		t.Fatalf("snappy round trip: %v", err)
	}
}

func TestPublicBatchReadAndScan(t *testing.T) {
	mgr, _ := lsmio.NewManager("br", lsmio.ManagerOptions{
		Store: lsmio.StoreOptions{FS: lsmio.NewMemFS()},
	})
	defer mgr.Close()
	for i := 0; i < 10; i++ {
		mgr.Put(fmt.Sprintf("pre/%d", i), []byte("v"))
	}
	mgr.Put("other", []byte("x"))
	all, err := mgr.ReadBatchAll("pre/")
	if err != nil || len(all) != 10 {
		t.Fatalf("ReadBatchAll: %d %v", len(all), err)
	}
	n := 0
	if err := mgr.Store().Scan("pre/", func(string, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("scan saw %d", n)
	}
}
