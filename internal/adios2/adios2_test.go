package adios2

import (
	"bytes"
	"fmt"
	"testing"

	"lsmio/internal/vfs"
)

func newSerial(fs vfs.FS) *Adios { return New(Config{FS: fs}) }

func TestBPWriteReadRoundTrip(t *testing.T) {
	fs := vfs.NewMemFS()
	a := newSerial(fs)
	io := a.DeclareIO("out")
	io.SetParameter("BufferChunkSize", "65536")
	v := io.DefineVariable("temperature", 8, 1024)

	w, err := io.Open("ckpt", ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	steps := 3
	payloads := make([][]byte, steps)
	for s := 0; s < steps; s++ {
		payloads[s] = bytes.Repeat([]byte{byte('a' + s)}, 8*1024)
		if err := w.BeginStep(); err != nil {
			t.Fatal(err)
		}
		if err := w.Put(v, payloads[s], Deferred); err != nil {
			t.Fatal(err)
		}
		if err := w.PerformPuts(); err != nil {
			t.Fatal(err)
		}
		if err := w.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Metadata + subfiles exist.
	for _, name := range []string{"ckpt.bp/data.0", "ckpt.bp/idx.0", "ckpt.bp/md.0", "ckpt.bp/md.idx"} {
		if !fs.Exists(name) {
			t.Fatalf("missing %s", name)
		}
	}

	r, err := io.Open("ckpt", ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		r.BeginStep()
		dst := make([]byte, 8*1024)
		if err := r.Get(v, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, payloads[s]) {
			t.Fatalf("step %d data mismatch", s)
		}
		r.EndStep()
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBPDeferredPutsNotWrittenUntilPerformPuts(t *testing.T) {
	fs := vfs.NewMemFS()
	a := newSerial(fs)
	io := a.DeclareIO("out")
	v := io.DefineVariable("x", 1, 100)
	w, _ := io.Open("d", ModeWrite)
	w.Put(v, make([]byte, 100), Deferred)
	if size, _ := fs.Stat("d.bp/data.0"); size != 0 {
		t.Fatalf("deferred put hit the file early: %d bytes", size)
	}
	w.Close()
	if size, _ := fs.Stat("d.bp/data.0"); size != 100 {
		t.Fatalf("close did not flush: %d bytes", size)
	}
}

func TestBPSyncPutBuffersImmediately(t *testing.T) {
	fs := vfs.NewMemFS()
	a := newSerial(fs)
	io := a.DeclareIO("out")
	io.SetParameter("BufferChunkSize", "128")
	v := io.DefineVariable("x", 1, 100)
	w, _ := io.Open("s", ModeWrite)
	// 300 bytes through a 128-byte chunk: at least two chunks spill before
	// close.
	w.Put(v, make([]byte, 300), Sync)
	if size, _ := fs.Stat("s.bp/data.0"); size < 256 {
		t.Fatalf("sync put should spill full chunks: %d bytes", size)
	}
	w.Close()
}

func TestBPChunkSpill(t *testing.T) {
	fs := vfs.NewMemFS()
	a := newSerial(fs)
	io := a.DeclareIO("out")
	io.SetParameter("BufferChunkSize", "1024")
	v := io.DefineVariable("x", 1, 100)
	w, _ := io.Open("spill", ModeWrite)
	total := 0
	for i := 0; i < 50; i++ {
		w.Put(v, bytes.Repeat([]byte{byte(i)}, 100), Deferred)
		total += 100
	}
	w.PerformPuts()
	w.Close()
	if size, _ := fs.Stat("spill.bp/data.0"); size != int64(total) {
		t.Fatalf("subfile size %d, want %d", size, total)
	}
}

func TestXMLConfigSelectsPlugin(t *testing.T) {
	called := false
	RegisterPlugin("test-plugin", func(ctx PluginContext) (Engine, error) {
		called = true
		if ctx.Path != "some/path" || ctx.Mode != ModeWrite {
			t.Errorf("ctx = %+v", ctx)
		}
		if v, ok := ctx.Params["Knob"]; !ok || v != "7" {
			t.Errorf("params = %v", ctx.Params)
		}
		return nil, fmt.Errorf("stop here")
	})
	xmlText := []byte(`
<adios-config>
  <io name="checkpoint">
    <engine type="plugin">
      <parameter key="PluginName" value="test-plugin"/>
      <parameter key="Knob" value="7"/>
    </engine>
  </io>
</adios-config>`)
	a, err := NewFromConfig(Config{FS: vfs.NewMemFS()}, xmlText)
	if err != nil {
		t.Fatal(err)
	}
	io := a.DeclareIO("checkpoint")
	if _, err := io.Open("some/path", ModeWrite); err == nil || err.Error() != "stop here" {
		t.Fatalf("open err = %v", err)
	}
	if !called {
		t.Fatal("plugin factory was not invoked")
	}
}

func TestUnknownPluginErrors(t *testing.T) {
	a := newSerial(vfs.NewMemFS())
	io := a.DeclareIO("x")
	io.SetEngine("plugin")
	io.SetParameter("PluginName", "does-not-exist")
	if _, err := io.Open("p", ModeWrite); err == nil {
		t.Fatal("unknown plugin should error")
	}
	io2 := a.DeclareIO("y")
	io2.SetEngine("plugin")
	if _, err := io2.Open("p", ModeWrite); err == nil {
		t.Fatal("missing PluginName should error")
	}
}

func TestBadXMLConfig(t *testing.T) {
	a := newSerial(vfs.NewMemFS())
	if err := a.ApplyConfig([]byte("<not-closed")); err == nil {
		t.Fatal("bad XML should error")
	}
	if err := a.ApplyConfig([]byte(`<adios-config><io><engine type="BP5"/></io></adios-config>`)); err == nil {
		t.Fatal("io without name should error")
	}
}

func TestVariableInquire(t *testing.T) {
	a := newSerial(vfs.NewMemFS())
	io := a.DeclareIO("io")
	io.DefineVariable("v", 4, 10)
	if v := io.InquireVariable("v"); v == nil || v.ElemSize != 4 {
		t.Fatalf("inquire: %+v", v)
	}
	if io.InquireVariable("absent") != nil {
		t.Fatal("absent variable should be nil")
	}
	// DeclareIO is idempotent.
	if a.DeclareIO("io") != io {
		t.Fatal("DeclareIO should return the same IO")
	}
}

func TestBufferChunkSizeParameter(t *testing.T) {
	a := newSerial(vfs.NewMemFS())
	io := a.DeclareIO("io")
	if got := io.bufferChunkSize(); got != 32<<20 {
		t.Fatalf("default chunk = %d", got)
	}
	io.SetParameter("BufferChunkSize", "1048576")
	if got := io.bufferChunkSize(); got != 1<<20 {
		t.Fatalf("chunk = %d", got)
	}
	io.SetParameter("BufferChunkSize", "garbage")
	if got := io.bufferChunkSize(); got != 32<<20 {
		t.Fatalf("garbage chunk should fall back: %d", got)
	}
}

func TestEngineDirectionErrors(t *testing.T) {
	fs := vfs.NewMemFS()
	a := newSerial(fs)
	io := a.DeclareIO("d")
	v := io.DefineVariable("x", 1, 4)
	w, _ := io.Open("dir", ModeWrite)
	if err := w.Get(v, make([]byte, 4)); err == nil {
		t.Fatal("Get on write engine should fail")
	}
	w.Put(v, []byte("abcd"), Deferred)
	w.Close()

	r, _ := io.Open("dir", ModeRead)
	if err := r.Put(v, []byte("abcd"), Deferred); err == nil {
		t.Fatal("Put on read engine should fail")
	}
	if err := r.Get(v, make([]byte, 1)); err == nil {
		t.Fatal("undersized Get buffer should fail")
	}
	missing := io.DefineVariable("never-written", 1, 4)
	if err := r.Get(missing, make([]byte, 4)); err == nil {
		t.Fatal("Get of missing variable should fail")
	}
	r.Close()
}

func TestOpenMissingSubfile(t *testing.T) {
	fs := vfs.NewMemFS()
	a := newSerial(fs)
	io := a.DeclareIO("m")
	if _, err := io.Open("never-written", ModeRead); err == nil {
		t.Fatal("reading a never-written path should fail")
	}
	if _, err := io.Open("x", Mode(99)); err == nil {
		t.Fatal("bad mode should fail")
	}
}

func TestCorruptIndexRejected(t *testing.T) {
	fs := vfs.NewMemFS()
	a := newSerial(fs)
	io := a.DeclareIO("c")
	v := io.DefineVariable("x", 1, 4)
	w, _ := io.Open("corrupt", ModeWrite)
	w.Put(v, []byte("data"), Deferred)
	w.Close()
	f, _ := fs.Create("corrupt.bp/idx.0")
	f.Write([]byte("{broken json"))
	f.Close()
	if _, err := io.Open("corrupt", ModeRead); err == nil {
		t.Fatal("corrupt index should fail open")
	}
}

func TestUnknownEngineType(t *testing.T) {
	a := newSerial(vfs.NewMemFS())
	io := a.DeclareIO("u")
	io.SetEngine("HDF5Mixer")
	if _, err := io.Open("p", ModeWrite); err == nil {
		t.Fatal("unknown engine type should fail")
	}
}
