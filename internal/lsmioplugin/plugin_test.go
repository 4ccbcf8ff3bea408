package lsmioplugin

import (
	"bytes"
	"testing"

	"lsmio/internal/adios2"
	"lsmio/internal/vfs"
)

func pluginIO(t *testing.T, fs vfs.FS) *adios2.IO {
	t.Helper()
	Register()
	a := adios2.New(adios2.Config{FS: fs})
	io := a.DeclareIO("checkpoint")
	io.SetEngine("plugin")
	io.SetParameter("PluginName", PluginName)
	io.SetParameter("BufferChunkSize", "1048576")
	return io
}

func TestPluginWriteReadRoundTrip(t *testing.T) {
	fs := vfs.NewMemFS()
	io := pluginIO(t, fs)
	v := io.DefineVariable("field", 8, 4096)

	w, err := io.Open("out", adios2.ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	for blk := 0; blk < 5; blk++ {
		b := bytes.Repeat([]byte{byte('A' + blk)}, 32<<10)
		payload = append(payload, b...)
		if err := w.Put(v, b, adios2.Deferred); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.PerformPuts(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // implicit write barrier
		t.Fatal(err)
	}

	r, err := io.Open("out", adios2.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(payload))
	if err := r.Get(v, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, payload) {
		t.Fatal("payload corrupted through the plugin")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPluginMultiStep(t *testing.T) {
	fs := vfs.NewMemFS()
	io := pluginIO(t, fs)
	v := io.DefineVariable("x", 1, 1024)
	w, _ := io.Open("steps", adios2.ModeWrite)
	for s := 0; s < 3; s++ {
		w.BeginStep()
		w.Put(v, bytes.Repeat([]byte{byte(s)}, 1024), adios2.Deferred)
		w.EndStep()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, _ := io.Open("steps", adios2.ModeRead)
	for s := 0; s < 3; s++ {
		r.BeginStep()
		dst := make([]byte, 1024)
		if err := r.Get(v, dst); err != nil {
			t.Fatal(err)
		}
		if dst[0] != byte(s) || dst[1023] != byte(s) {
			t.Fatalf("step %d data mismatch", s)
		}
		r.EndStep()
	}
	r.Close()
}

func TestPluginSyncPut(t *testing.T) {
	fs := vfs.NewMemFS()
	io := pluginIO(t, fs)
	v := io.DefineVariable("x", 1, 16)
	w, _ := io.Open("sync", adios2.ModeWrite)
	if err := w.Put(v, []byte("sync-data-here!!"), adios2.Sync); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, _ := io.Open("sync", adios2.ModeRead)
	dst := make([]byte, 16)
	if err := r.Get(v, dst); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "sync-data-here!!" {
		t.Fatalf("got %q", dst)
	}
	r.Close()
}

func TestPluginGetMissingVariable(t *testing.T) {
	fs := vfs.NewMemFS()
	io := pluginIO(t, fs)
	v := io.DefineVariable("x", 1, 16)
	w, _ := io.Open("empty", adios2.ModeWrite)
	w.Close()
	r, _ := io.Open("empty", adios2.ModeRead)
	if err := r.Get(v, make([]byte, 16)); err == nil {
		t.Fatal("missing variable should error")
	}
	r.Close()
}

func TestPluginRegisteredName(t *testing.T) {
	w, err := pluginIO(t, vfs.NewMemFS()).Open("out", adios2.ModeWrite)
	if err != nil {
		t.Fatalf("plugin %q not found by its name: %v", PluginName, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
