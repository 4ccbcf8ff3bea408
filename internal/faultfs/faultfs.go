// Package faultfs is a deterministic fault-injecting wrapper around any
// vfs.FS (MemFS, OSFS, or the simulated PFS client). It is the test
// substrate for the repository's crash-recovery guarantees:
//
//   - Scheduled error injection: fail the Nth Write/Sync/Rename/... whose
//     path matches a pattern, with transient or permanent errors (Rule).
//   - Torn writes: a failing write may persist only a prefix of its data
//     (Rule.KeepPrefix), modeling a partial page writeback.
//   - Crash simulation: Crash() discards every byte not covered by a
//     completed Sync (or Barrier), modeling loss of the page cache, and
//     kills all open handles.
//   - Crash-point enumeration: with recording enabled the wrapper keeps,
//     for every durability boundary the workload crossed, the durable
//     image a crash at that boundary would leave behind, and materializes
//     it on demand (crashpoints.go) — crashmonkey-style.
//
// Fault model (see also README.md in this package): namespace operations
// (Create, Remove, Rename, MkdirAll) are atomic and immediately durable, in
// order, as on a journaled file system with ordered metadata. File *data*
// is volatile until a Sync on a handle of the file (or the filesystem-level
// Barrier) completes. Rename moves a file's durable bytes with its name. This
// is exactly the contract the LSM engine's WAL/SSTable/manifest protocol
// assumes of its underlying file system.
//
// There is one model behind both Crash and StateAfter: a name table from
// paths to files, each file holding its own durable bytes. A Sync reaches
// the file its handle was opened on, under whatever name it has now, and a
// removed file's bytes can no longer reach the namespace.
package faultfs

import (
	"bytes"
	"errors"
	"fmt"
	"path"
	"strings"
	"sync"
	"time"

	"lsmio/internal/vfs"
)

// Op identifies a filesystem operation class for fault matching.
type Op int

// Operation classes. OpAny matches every class in a Rule.
const (
	OpAny Op = iota
	OpCreate
	OpOpen
	OpRemove
	OpRename
	OpMkdirAll
	OpList
	OpStat
	OpRead  // Read and ReadAt
	OpWrite // Write and WriteAt
	OpSync
	OpTruncate
	OpClose
	OpBarrier
)

var opNames = map[Op]string{
	OpAny: "any", OpCreate: "create", OpOpen: "open", OpRemove: "remove",
	OpRename: "rename", OpMkdirAll: "mkdirall", OpList: "list", OpStat: "stat",
	OpRead: "read", OpWrite: "write", OpSync: "sync", OpTruncate: "truncate",
	OpClose: "close", OpBarrier: "barrier",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Sentinel errors. Injected faults wrap ErrInjected; operations on handles
// opened before a Crash (and writes after a scheduled crash) wrap
// ErrCrashed.
var (
	ErrInjected = errors.New("faultfs: injected fault")
	ErrCrashed  = errors.New("faultfs: filesystem crashed")
)

// InjectedError is the concrete error produced by a firing Rule (unless the
// rule carries its own).
type InjectedError struct {
	Op        Op
	Path      string
	Transient bool
}

func (e *InjectedError) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("faultfs: injected %s %s fault on %q", kind, e.Op, e.Path)
}

func (e *InjectedError) Unwrap() error { return ErrInjected }

// TransientFault marks the error as retryable. Consumers (the PFS client's
// retry loop) classify via this method through errors.As, so they need not
// import this package.
func (e *InjectedError) TransientFault() bool { return e.Transient }

// IsTransient reports whether err (anywhere in its chain) marks itself as a
// transient, retryable fault.
func IsTransient(err error) bool {
	var t interface{ TransientFault() bool }
	return errors.As(err, &t) && t.TransientFault()
}

// Rule schedules fault injection. A rule fires on the Nth call matching
// (Op, Path), and keeps firing for Times consecutive matches.
type Rule struct {
	// Op restricts the rule to one operation class (OpAny: all).
	Op Op
	// Path matches the operation's path: a path.Match pattern, or, failing
	// that, a substring. Empty matches every path. Rename matches on the
	// old name.
	Path string
	// Nth is the 1-based index of the first matching call that fails
	// (0 is treated as 1).
	Nth int
	// Times is how many consecutive matching calls fail from Nth on
	// (0 is treated as 1; negative means forever).
	Times int
	// Transient marks injected errors as retryable (IsTransient).
	Transient bool
	// KeepPrefix, for OpWrite rules, persists the first KeepPrefix bytes
	// of the failing write before returning the error — a torn write.
	KeepPrefix int64
	// Err overrides the returned error (default: *InjectedError). The
	// returned error always wraps it.
	Err error
	// Delay stalls a firing call for this long before it proceeds. With
	// DelayOnly the call then continues normally (slow I/O, not an error)
	// — the deterministic substrate for health-tracker and hedging tests;
	// without DelayOnly the error is injected after the stall (a slow
	// failure). The stall uses the sleeper installed by FS.SetSleeper
	// (real time by default; a simulation passes its virtual-clock sleep).
	Delay     time.Duration
	DelayOnly bool

	seen  int
	fired int
}

func (r *Rule) matches(op Op, p string) bool {
	if r.Op != OpAny && r.Op != op {
		return false
	}
	if r.Path == "" {
		return true
	}
	if ok, err := path.Match(r.Path, p); err == nil && ok {
		return true
	}
	return strings.Contains(p, r.Path)
}

// fire advances the rule's counters for one matching call and reports
// whether it injects a fault this time.
func (r *Rule) fire() bool {
	r.seen++
	nth := r.Nth
	if nth <= 0 {
		nth = 1
	}
	times := r.Times
	if times == 0 {
		times = 1
	}
	if r.seen < nth {
		return false
	}
	if times > 0 && r.fired >= times {
		return false
	}
	r.fired++
	return true
}

func (r *Rule) err(op Op, p string) error {
	ie := &InjectedError{Op: op, Path: p, Transient: r.Transient}
	if r.Err != nil {
		return fmt.Errorf("%w: %w", r.Err, ie)
	}
	return ie
}

// FS wraps an inner vfs.FS with fault injection and crash tracking. It is
// safe for concurrent use, but never holds its own lock across inner-FS
// calls (the inner FS may cooperatively yield inside a simulation).
type FS struct {
	inner vfs.FS

	mu       sync.Mutex
	rules    []*Rule
	injected int
	delayed  int
	sleeper  func(time.Duration)
	gen      int // bumped by Crash(); stale handles die

	// names is the name table: every file that durably exists, by path.
	// dirs holds every directory, with the order it was made in.
	names map[string]*node
	dirs  map[string]int

	// Crash-point recording (crashpoints.go).
	recording  bool
	images     []image
	boundaries int
}

// node is one file of the model. durable is the content a crash keeps.
// Its bytes are never modified once set (capture may only append past
// them), so recorded images share them.
type node struct{ durable []byte }

// New wraps inner. Files already present in inner are treated as fully
// durable: New reads every one of them into the model.
func New(inner vfs.FS) *FS {
	f := &FS{
		inner: inner,
		names: make(map[string]*node),
		dirs:  make(map[string]int),
	}
	f.walk(".")
	return f
}

// walk adds the files and directories under dir in the inner FS to the
// model. An entry that cannot be listed or read is left out.
func (f *FS) walk(dir string) {
	entries, err := f.inner.List(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		p := path.Join(dir, e)
		if _, err := f.inner.Stat(p); err != nil {
			f.dirs[p] = len(f.dirs)
			f.walk(p)
			continue
		}
		if data, err := f.readInner(p); err == nil {
			f.names[p] = &node{durable: data}
		}
	}
}

// Inner returns the wrapped filesystem.
func (f *FS) Inner() vfs.FS { return f.inner }

// AddRule registers a fault-injection rule and returns it.
func (f *FS) AddRule(r *Rule) *Rule {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, r)
	return r
}

// ClearRules removes all fault-injection rules.
func (f *FS) ClearRules() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// Injected returns how many faults have been injected so far.
func (f *FS) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Boundaries returns the number of durability boundaries (Create, Remove,
// Rename, Sync, Barrier) crossed since New or the last StartRecording.
func (f *FS) Boundaries() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.boundaries
}

func cleanPath(name string) string {
	name = path.Clean(strings.TrimPrefix(name, "/"))
	if name == "" {
		name = "."
	}
	return name
}

// consult scans the rules for one (op, path) call under the lock,
// accumulating injected latency from delay-only rules and stopping at the
// first error rule. The caller applies the latency outside the lock.
func (f *FS) consult(op Op, p string) (delay time.Duration, keep int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.rules {
		if !r.matches(op, p) || !r.fire() {
			continue
		}
		delay += r.Delay
		if r.DelayOnly {
			f.delayed++
			continue
		}
		f.injected++
		return delay, r.KeepPrefix, r.err(op, p)
	}
	return delay, 0, nil
}

// sleep applies injected latency through the installed sleeper. It must
// be called without holding f.mu: a simulated sleeper yields to the
// discrete-event kernel, and even time.Sleep must not serialize the FS.
func (f *FS) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	f.mu.Lock()
	s := f.sleeper
	f.mu.Unlock()
	if s == nil {
		s = time.Sleep
	}
	s(d)
}

// check consults the rules for one (op, path) call.
func (f *FS) check(op Op, p string) error {
	delay, _, err := f.consult(op, p)
	f.sleep(delay)
	return err
}

// checkWrite is check for write ops, also returning the matched rule's
// KeepPrefix (bytes to persist before failing).
func (f *FS) checkWrite(p string) (int64, error) {
	delay, keep, err := f.consult(OpWrite, p)
	f.sleep(delay)
	return keep, err
}

// SetSleeper installs how injected Rule.Delay latency is spent (default
// time.Sleep). Simulation-hosted tests pass their virtual-clock sleep so
// slowness is deterministic and free of real waiting.
func (f *FS) SetSleeper(s func(time.Duration)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sleeper = s
}

// Delayed returns how many delay-only stalls have been injected so far.
func (f *FS) Delayed() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.delayed
}

// readInner reads a file's current bytes from the inner FS.
func (f *FS) readInner(p string) ([]byte, error) {
	h, err := f.inner.Open(p)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	return vfs.ReadAll(h)
}

var _ vfs.FS = (*FS)(nil)

// Create implements vfs.FS. Creation is a durability boundary: the file
// durably exists (empty) from this point on.
func (f *FS) Create(name string) (vfs.File, error) {
	name = cleanPath(name)
	if err := f.check(OpCreate, name); err != nil {
		return nil, err
	}
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	nd := &node{}
	f.mu.Lock()
	f.names[name] = nd
	f.noteLocked(OpCreate, name)
	gen := f.gen
	f.mu.Unlock()
	return &file{fs: f, inner: inner, path: name, node: nd, gen: gen}, nil
}

// Open implements vfs.FS.
func (f *FS) Open(name string) (vfs.File, error) {
	name = cleanPath(name)
	if err := f.check(OpOpen, name); err != nil {
		return nil, err
	}
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	nd, gen := f.names[name], f.gen
	f.mu.Unlock()
	return &file{fs: f, inner: inner, path: name, node: nd, gen: gen}, nil
}

// Remove implements vfs.FS. Removal is a durability boundary.
func (f *FS) Remove(name string) error {
	name = cleanPath(name)
	if err := f.check(OpRemove, name); err != nil {
		return err
	}
	if err := f.inner.Remove(name); err != nil {
		return err
	}
	f.mu.Lock()
	delete(f.names, name)
	f.noteLocked(OpRemove, name)
	f.mu.Unlock()
	return nil
}

// Rename implements vfs.FS. Rename is atomic and a durability boundary; the
// file's durable bytes move with its name.
func (f *FS) Rename(oldName, newName string) error {
	oldName, newName = cleanPath(oldName), cleanPath(newName)
	if err := f.check(OpRename, oldName); err != nil {
		return err
	}
	if err := f.inner.Rename(oldName, newName); err != nil {
		return err
	}
	f.mu.Lock()
	nd, ok := f.names[oldName]
	delete(f.names, oldName)
	if ok {
		f.names[newName] = nd
	} else {
		delete(f.names, newName)
	}
	f.noteLocked(OpRename, oldName)
	f.mu.Unlock()
	return nil
}

// MkdirAll implements vfs.FS. Directory creation is durable immediately but
// is not enumerated as a crash point (it carries no data).
func (f *FS) MkdirAll(dir string) error {
	dir = cleanPath(dir)
	if err := f.check(OpMkdirAll, dir); err != nil {
		return err
	}
	if err := f.inner.MkdirAll(dir); err != nil {
		return err
	}
	f.mu.Lock()
	if _, ok := f.dirs[dir]; !ok {
		f.dirs[dir] = len(f.dirs)
	}
	if f.recording {
		f.images[len(f.images)-1].dirs = len(f.dirs)
	}
	f.mu.Unlock()
	return nil
}

// List implements vfs.FS.
func (f *FS) List(dir string) ([]string, error) {
	dir = cleanPath(dir)
	if err := f.check(OpList, dir); err != nil {
		return nil, err
	}
	return f.inner.List(dir)
}

// Stat implements vfs.FS.
func (f *FS) Stat(name string) (int64, error) {
	name = cleanPath(name)
	if err := f.check(OpStat, name); err != nil {
		return 0, err
	}
	return f.inner.Stat(name)
}

// Exists implements vfs.FS. Like the PFS client's Exists it is a pure
// probe: no faults are injected.
func (f *FS) Exists(name string) bool {
	return f.inner.Exists(cleanPath(name))
}

// Barrier implements the optional barrier hook (core.barrierFS) when the
// inner filesystem has one, and on success marks every file's current
// content durable — a storage-level write barrier makes all previously
// issued writes stable.
func (f *FS) Barrier() error {
	if err := f.check(OpBarrier, ""); err != nil {
		return err
	}
	if b, ok := f.inner.(interface{ Barrier() error }); ok {
		if err := b.Barrier(); err != nil {
			return err
		}
	}
	f.mu.Lock()
	files := make(map[string]*node, len(f.names))
	for p, nd := range f.names {
		files[p] = nd
	}
	f.mu.Unlock()
	for p, nd := range files {
		data, err := f.readInner(p)
		f.mu.Lock()
		if err == nil && f.names[p] == nd {
			nd.capture(data)
		}
		f.mu.Unlock()
	}
	f.mu.Lock()
	f.noteLocked(OpBarrier, "")
	f.mu.Unlock()
	return nil
}

// capture makes data the file's durable content. Content that extends
// the durable bytes is appended to them: the images taken before keep
// their shorter view of the same array, so a file that only grows, like
// a log, costs each image only what it added. Callers hold the FS's mu.
func (nd *node) capture(data []byte) {
	if n := len(nd.durable); n > 0 && len(data) >= n && bytes.Equal(data[:n], nd.durable) {
		nd.durable = append(nd.durable, data[n:]...)
	} else {
		nd.durable = data
	}
}

// Crash simulates losing the machine: every byte not covered by a completed
// Sync/Barrier is discarded from the inner filesystem, and every handle
// opened through the wrapper is dead (operations return ErrCrashed). The
// wrapper itself remains usable — reopening files afterwards models the
// post-reboot recovery session.
func (f *FS) Crash() error {
	f.mu.Lock()
	f.gen++
	restore := make(map[string][]byte, len(f.names))
	for p, nd := range f.names {
		restore[p] = nd.durable
	}
	f.mu.Unlock()
	for p, data := range restore {
		h, err := f.inner.Create(p)
		if err != nil {
			return fmt.Errorf("faultfs: crash restore %s: %w", p, err)
		}
		if len(data) > 0 {
			if _, err := h.Write(data); err != nil {
				h.Close()
				return fmt.Errorf("faultfs: crash restore %s: %w", p, err)
			}
		}
		if err := h.Close(); err != nil {
			return fmt.Errorf("faultfs: crash restore %s: %w", p, err)
		}
	}
	return nil
}

// file wraps one open handle. node is the file it was opened on; nil when
// the file appeared in the inner FS without passing through the wrapper,
// which puts it outside the model.
type file struct {
	fs    *FS
	inner vfs.File
	path  string
	node  *node
	gen   int
}

func (fl *file) Name() string { return fl.path }

// alive fails with ErrCrashed when the handle predates a Crash.
func (fl *file) alive() error {
	fl.fs.mu.Lock()
	defer fl.fs.mu.Unlock()
	if fl.gen != fl.fs.gen {
		return fmt.Errorf("%s: %w", fl.path, ErrCrashed)
	}
	return nil
}

func (fl *file) Read(p []byte) (int, error) {
	if err := fl.alive(); err != nil {
		return 0, err
	}
	if err := fl.fs.check(OpRead, fl.path); err != nil {
		return 0, err
	}
	return fl.inner.Read(p)
}

func (fl *file) ReadAt(p []byte, off int64) (int, error) {
	if err := fl.alive(); err != nil {
		return 0, err
	}
	if err := fl.fs.check(OpRead, fl.path); err != nil {
		return 0, err
	}
	return fl.inner.ReadAt(p, off)
}

func (fl *file) Write(p []byte) (int, error) {
	if err := fl.alive(); err != nil {
		return 0, err
	}
	return fl.write(p, func(q []byte) (int, error) { return fl.inner.Write(q) })
}

func (fl *file) WriteAt(p []byte, off int64) (int, error) {
	if err := fl.alive(); err != nil {
		return 0, err
	}
	return fl.write(p, func(q []byte) (int, error) { return fl.inner.WriteAt(q, off) })
}

// write applies injection (including torn writes) around one inner write.
func (fl *file) write(p []byte, inner func([]byte) (int, error)) (int, error) {
	keep, ferr := fl.fs.checkWrite(fl.path)
	if ferr != nil {
		if keep > int64(len(p)) {
			keep = int64(len(p))
		}
		n := 0
		if keep > 0 {
			n, _ = inner(p[:keep])
		}
		return n, ferr
	}
	return inner(p)
}

func (fl *file) Seek(offset int64, whence int) (int64, error) {
	if err := fl.alive(); err != nil {
		return 0, err
	}
	return fl.inner.Seek(offset, whence)
}

func (fl *file) Size() (int64, error) {
	if err := fl.alive(); err != nil {
		return 0, err
	}
	return fl.inner.Size()
}

// Sync implements vfs.File: on success the file's current content becomes
// its durable image — the only way (besides Barrier) file data survives a
// Crash. The durable image is the file's, not the name's: it follows the
// file through a Rename, and a removed file's stays out of the namespace.
func (fl *file) Sync() error {
	if err := fl.alive(); err != nil {
		return err
	}
	if err := fl.fs.check(OpSync, fl.path); err != nil {
		return err
	}
	if err := fl.inner.Sync(); err != nil {
		return err
	}
	var data []byte
	if fl.node != nil {
		var err error
		if data, err = vfs.ReadAll(fl.inner); err != nil {
			return fmt.Errorf("faultfs: sync snapshot %s: %w", fl.path, err)
		}
	}
	fl.fs.mu.Lock()
	if fl.node != nil {
		fl.node.capture(data)
	}
	fl.fs.noteLocked(OpSync, fl.path)
	fl.fs.mu.Unlock()
	return nil
}

func (fl *file) Truncate(size int64) error {
	if err := fl.alive(); err != nil {
		return err
	}
	if err := fl.fs.check(OpTruncate, fl.path); err != nil {
		return err
	}
	return fl.inner.Truncate(size)
}

func (fl *file) Close() error {
	if err := fl.alive(); err != nil {
		return err
	}
	if err := fl.fs.check(OpClose, fl.path); err != nil {
		return err
	}
	return fl.inner.Close()
}
