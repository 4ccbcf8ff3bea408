package main

// The traced run's instruments: a span recorder, a timing/counting
// vfs.FS + vfs.File wrapper handed in as StoreOptions.FS, and a timing
// core.Store decorator handed in as ManagerOptions.Remote. None of them
// is installed in an untraced run, so end-to-end metrics never pay for
// them; trace.overhead_pct reports what they cost.
//
// Two side effects of the Remote seam: core.Manager counts every put as
// a core.remote_ops (it cannot tell a decorator from a collective
// leader), and Manager.Close no longer closes the store, so the
// benchmark closes the decorated store itself.

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"lsmio/internal/core"
	"lsmio/internal/vfs"
)

type spanKind uint8

const (
	kCkptWrite spanKind = iota
	kCkptCommit
	kCkptRestore
	kSvcPut
	kSvcBarrier
	kSvcScan
	kCorePut
	kCoreBarrier
	kCoreGet
	kCoreScan
	kCoreDel
	kVfsWrite
	kVfsSync
	kVfsRead
	kVfsCreate
	kVfsRemove
	kVfsRename
	numKinds
)

var kindNames = [numKinds]string{
	"ckpt.write", "ckpt.commit", "ckpt.restore",
	"svc.put", "svc.barrier", "svc.scan",
	"core.put", "core.barrier", "core.get", "core.scan", "core.del",
	"vfs.write", "vfs.sync", "vfs.read", "vfs.create", "vfs.remove", "vfs.rename",
}

func (k spanKind) isRoot() bool { return k <= kSvcScan }
func (k spanKind) isCore() bool { return k >= kCorePut && k <= kCoreDel }
func (k spanKind) isVfs() bool  { return k >= kVfsWrite }

// fileClass is what a filesystem call operated on, by file name.
type fileClass uint8

const (
	fileOther fileClass = iota // MANIFEST, CURRENT, SERVICE.json
	fileWAL                    // *.log: appended to by the caller of Put
	fileTable                  // *.sst: written by flush and compaction, read by everyone
)

func classOf(name string) fileClass {
	switch {
	case strings.HasSuffix(name, ".log"):
		return fileWAL
	case strings.HasSuffix(name, ".sst"):
		return fileTable
	}
	return fileOther
}

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's epoch. parent, step and bg are filled in by link,
// after the epoch.
type span struct {
	start, end int64
	bytes      int64
	parent     int32 // index of the enclosing span, -1 for none
	step       int32 // commit/restore/pass the span belongs to
	kind       spanKind
	class      fileClass
	bg         bool // no foreground caller: engine flush/compaction, prober
}

func (s *span) dur() int64 { return s.end - s.start }

func (s *span) contains(c *span) bool { return s.start <= c.start && c.end <= s.end }

// maxSpans bounds the preallocated span buffer (40 B each); the busiest
// traced epoch records about a tenth of it.
const maxSpans = 1 << 20

// tracer records spans into a preallocated buffer. Recording is two
// clock reads and an atomic add: it takes no lock and asks nothing
// about the calling goroutine, which from outside the runtime costs
// microseconds. What called what is worked out afterwards (link).
type tracer struct {
	epoch   time.Time
	buf     []span
	n       atomic.Int64
	dropped atomic.Int64
	// paused drops new spans (a workload's set-up inside a traced epoch).
	paused atomic.Bool
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), buf: make([]span, maxSpans)}
}

// reset forgets every recorded span. Call it between epochs, when no
// traced call is in flight.
func (t *tracer) reset() {
	t.n.Store(0)
	t.dropped.Store(0)
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) open(k spanKind, class fileClass, step int) int32 {
	if t.paused.Load() {
		return -1
	}
	idx := t.n.Add(1) - 1
	if idx >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return -1
	}
	t.buf[idx] = span{kind: k, class: class, step: int32(step), parent: -1, start: t.now()}
	return int32(idx)
}

// beginRoot starts a client-level span: one of the benchmark's own
// calls into ckpt or svc, belonging to the given step. The workloads
// call it (and finish) on a nil tracer in untraced epochs.
func (t *tracer) beginRoot(k spanKind, step int) int32 {
	if t == nil {
		return -1
	}
	return t.open(k, fileOther, step)
}

// begin starts a span at the Store boundary.
func (t *tracer) begin(k spanKind) int32 { return t.open(k, fileOther, 0) }

func (t *tracer) finish(idx int32, bytes int64) {
	if idx >= 0 {
		t.buf[idx].end, t.buf[idx].bytes = t.now(), bytes
	}
}

// pause drops (or stops dropping) new spans: a workload's set-up inside
// a traced epoch. A nil tracer has nothing to pause.
func (t *tracer) pause(on bool) {
	if t != nil {
		t.paused.Store(on)
	}
}

// recorded links and returns the spans recorded since reset. Call it
// when no traced call is in flight.
func (t *tracer) recorded() []span {
	n := min(t.n.Load(), int64(len(t.buf)))
	spans := t.buf[:n]
	link(spans)
	return spans
}

// mayParent reports whether a call of kind child can have been made from
// inside a span of kind parent.
func mayParent(parent, child *span) bool {
	switch {
	case child.kind.isCore():
		switch parent.kind {
		case kCkptWrite, kCkptCommit, kCkptRestore:
			return true
		case kSvcPut:
			return child.kind == kCorePut
		case kSvcBarrier:
			return child.kind == kCoreBarrier
		case kSvcScan:
			return child.kind == kCoreScan
		}
	case child.kind == kVfsWrite && child.class == fileWAL:
		// The write-ahead log is appended to by whoever called Put.
		return parent.kind == kCorePut || parent.kind == kCoreDel
	case child.kind == kVfsRead:
		return parent.kind == kCoreGet || parent.kind == kCoreScan
	}
	// Everything else a filesystem sees — table and manifest writes,
	// syncs, creates, renames, removes — is flush or compaction: every
	// workload runs with AsyncFlush, so no client writes a table.
	return false
}

// link works out, from kinds, file classes and time containment, which
// span each span was called from. A span's parent is the most recently
// started span that contains it in time and whose kind can have made
// the call (mayParent); a span with no such parent is background work
// and takes the step of the client call that started last before it.
//
// One case cannot be told apart from outside: a table read issued by
// compaction while a foreground Get or Scan is in flight counts as that
// call's child.
func link(spans []span) {
	order := make([]int32, len(spans))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].start < spans[order[b]].start })
	var open []int32 // started, and possibly not ended, potential parents
	lastStep := int32(0)
	for _, i := range order {
		s := &spans[i]
		live := open[:0]
		for _, o := range open {
			if spans[o].end >= s.start {
				live = append(live, o)
			}
		}
		open = live
		if s.kind.isRoot() {
			lastStep = s.step
		} else {
			for j := len(open) - 1; j >= 0; j-- {
				if p := &spans[open[j]]; p.contains(s) && mayParent(p, s) {
					s.parent, s.step = open[j], p.step
					break
				}
			}
			if s.parent < 0 {
				s.bg, s.step = true, lastStep
			}
		}
		if !s.kind.isVfs() {
			open = append(open, i)
		}
	}
}

// selfTimes returns, for every span, its duration minus the part of it
// that its direct children cover (the union of their intervals, so
// children running in parallel on other goroutines are not subtracted
// twice).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	order := make([]int32, 0, len(spans))
	for i := range spans {
		self[i] = spans[i].dur()
		if spans[i].parent >= 0 {
			order = append(order, int32(i))
		}
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := &spans[order[a]], &spans[order[b]]
		if sa.parent != sb.parent {
			return sa.parent < sb.parent
		}
		return sa.start < sb.start
	})
	for i := 0; i < len(order); {
		p := spans[order[i]].parent
		ps := &spans[p]
		var covered int64
		hi := ps.start
		for ; i < len(order) && spans[order[i]].parent == p; i++ {
			c := &spans[order[i]]
			lo, end := max(c.start, hi), min(c.end, ps.end)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[p] -= covered
	}
	return self
}

// writeSpans writes the recorded spans as CSV.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("id,name,start_ns,end_ns,parent,step,bg,bytes\n")
	var line []byte
	for i := range spans {
		s := &spans[i]
		line = strconv.AppendInt(line[:0], int64(i), 10)
		line = append(line, ',')
		line = append(line, kindNames[s.kind]...)
		for _, v := range []int64{s.start, s.end, int64(s.parent), int64(s.step)} {
			line = append(line, ',')
			line = strconv.AppendInt(line, v, 10)
		}
		if s.bg {
			line = append(line, ",1,"...)
		} else {
			line = append(line, ",0,"...)
		}
		line = strconv.AppendInt(line, s.bytes, 10)
		line = append(line, '\n')
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- vfs wrapper ------------------------------------------------------

// timedFS wraps a filesystem so that every data-path call is a span.
type timedFS struct {
	vfs.FS
	t *tracer
}

func (f timedFS) wrap(name string, h vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &timedFile{File: h, t: f.t, class: classOf(name)}, nil
}

func (f timedFS) Create(name string) (vfs.File, error) {
	id := f.t.open(kVfsCreate, classOf(name), 0)
	h, err := f.FS.Create(name)
	f.t.finish(id, 0)
	return f.wrap(name, h, err)
}

func (f timedFS) Open(name string) (vfs.File, error) {
	h, err := f.FS.Open(name)
	return f.wrap(name, h, err)
}

func (f timedFS) Remove(name string) error {
	id := f.t.open(kVfsRemove, classOf(name), 0)
	err := f.FS.Remove(name)
	f.t.finish(id, 0)
	return err
}

func (f timedFS) Rename(oldName, newName string) error {
	id := f.t.open(kVfsRename, classOf(newName), 0)
	err := f.FS.Rename(oldName, newName)
	f.t.finish(id, 0)
	return err
}

type timedFile struct {
	vfs.File
	t     *tracer
	class fileClass
}

func (f *timedFile) Write(p []byte) (int, error) {
	id := f.t.open(kVfsWrite, f.class, 0)
	n, err := f.File.Write(p)
	f.t.finish(id, int64(n))
	return n, err
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	id := f.t.open(kVfsWrite, f.class, 0)
	n, err := f.File.WriteAt(p, off)
	f.t.finish(id, int64(n))
	return n, err
}

func (f *timedFile) Read(p []byte) (int, error) {
	id := f.t.open(kVfsRead, f.class, 0)
	n, err := f.File.Read(p)
	f.t.finish(id, int64(n))
	return n, err
}

func (f *timedFile) ReadAt(p []byte, off int64) (int, error) {
	id := f.t.open(kVfsRead, f.class, 0)
	n, err := f.File.ReadAt(p, off)
	f.t.finish(id, int64(n))
	return n, err
}

func (f *timedFile) Sync() error {
	id := f.t.open(kVfsSync, f.class, 0)
	err := f.File.Sync()
	f.t.finish(id, 0)
	return err
}

// ---- core.Store decorator ---------------------------------------------

// timedStore makes every call across the Store boundary a span.
type timedStore struct {
	core.Store
	t *tracer
}

func (s timedStore) Put(key string, value []byte, sync bool) error {
	id := s.t.begin(kCorePut)
	err := s.Store.Put(key, value, sync)
	s.t.finish(id, int64(len(value)))
	return err
}

func (s timedStore) Append(key string, value []byte, sync bool) error {
	id := s.t.begin(kCorePut)
	err := s.Store.Append(key, value, sync)
	s.t.finish(id, int64(len(value)))
	return err
}

func (s timedStore) Get(key string) ([]byte, error) {
	id := s.t.begin(kCoreGet)
	v, err := s.Store.Get(key)
	s.t.finish(id, int64(len(v)))
	return v, err
}

func (s timedStore) Del(key string) error {
	id := s.t.begin(kCoreDel)
	err := s.Store.Del(key)
	s.t.finish(id, 0)
	return err
}

func (s timedStore) WriteBarrier(sync bool) error {
	id := s.t.begin(kCoreBarrier)
	err := s.Store.WriteBarrier(sync)
	s.t.finish(id, 0)
	return err
}

func (s timedStore) Scan(prefix string, fn func(key string, value []byte) bool) error {
	id := s.t.begin(kCoreScan)
	var n int64
	err := s.Store.Scan(prefix, func(k string, v []byte) bool {
		n += int64(len(v))
		return fn(k, v)
	})
	s.t.finish(id, n)
	return err
}
