package vfs

import (
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MemFS is an in-memory FS used by unit tests and as the data store
// backing the simulated parallel file system. It is safe for concurrent
// use.
type MemFS struct {
	mu     sync.Mutex
	files  map[string]*memNode
	dirs   map[string]bool
	closed atomic.Bool
}

// memPageSize is the unit a memNode stores its bytes in. A file grows a
// page at a time, so growing it copies at most one page, never the file.
const memPageSize = 1 << 20

// pagePool recycles full-size pages from one MemFS to the next: Close
// puts a closed filesystem's full pages in, and growPage takes one out
// whenever it grows a page past pooledPageMin. A pooled page keeps its old
// bytes; memNode's hole rule keeps them from showing. The pool is a
// sync.Pool, so the GC empties it when nothing takes the pages: a
// capped free list kept live instead raised the simulator's peak RSS.
var pagePool sync.Pool // of *[memPageSize]byte

// pooledPageMin is the capacity from which a growing page is taken from
// pagePool rather than doubled.
const pooledPageMin = 64 << 10

// memNode is one file's bytes. Page i holds the file's bytes from
// i*memPageSize, up to its length; a nil or short page reads as zeros up
// to size. A page's bytes between its length and its capacity may be
// anything (a pooled page's old bytes, or bytes a shrinking Truncate cut
// off), so the hole rule: a write that starts past a page's length first
// clears the hole between the two.
type memNode struct {
	mu    sync.Mutex
	size  int64
	pages [][]byte
}

// readAt copies the bytes at [off, off+len(p)) ∩ [0, size) into p and
// returns how many it copied. off must be below size.
func (n *memNode) readAt(p []byte, off int64) int {
	if avail := n.size - off; int64(len(p)) > avail {
		p = p[:avail]
	}
	for done := 0; done < len(p); {
		i, in := int(off/memPageSize), int(off%memPageSize)
		dst := p[done:min(len(p), done+memPageSize-in)]
		c := 0
		if i < len(n.pages) && in < len(n.pages[i]) {
			c = copy(dst, n.pages[i][in:])
		}
		clear(dst[c:])
		done += len(dst)
		off += int64(len(dst))
	}
	return len(p)
}

// writeAt stores p at off, growing the file as needed.
func (n *memNode) writeAt(p []byte, off int64) {
	end := off + int64(len(p))
	if last := int((end + memPageSize - 1) / memPageSize); last > len(n.pages) {
		n.pages = append(n.pages, make([][]byte, last-len(n.pages))...)
	}
	for len(p) > 0 {
		i, in := int(off/memPageSize), int(off%memPageSize)
		chunk := min(len(p), memPageSize-in)
		pg := n.pages[i]
		if need := in + chunk; need > len(pg) {
			if need > cap(pg) {
				pg = growPage(pg, need)
			}
			if in > len(pg) {
				clear(pg[len(pg):in])
			}
			pg = pg[:need]
			n.pages[i] = pg
		}
		copy(pg[in:], p[:chunk])
		p = p[chunk:]
		off += int64(chunk)
	}
	if end > n.size {
		n.size = end
	}
}

// growPage returns pg with capacity for need bytes. A page grows by
// doubling from 1 KiB up to memPageSize, so a small file, or a file's
// partly written last page, costs about what it holds. Past
// pooledPageMin it takes a full-size page from pagePool when the pool
// has one: pages that size are the simulated files' payload, which goes
// on to fill them, and a pooled page costs neither an allocation nor
// the doublings' copies.
func growPage(pg []byte, need int) []byte {
	c := max(cap(pg), 1024)
	for c < need {
		c *= 2
	}
	c = min(c, memPageSize)
	var grown []byte
	if c >= pooledPageMin {
		if full, ok := pagePool.Get().(*[memPageSize]byte); ok {
			grown = full[:len(pg)]
		}
	}
	if grown == nil {
		grown = make([]byte, len(pg), c)
	}
	copy(grown, pg)
	return grown
}

// release hands n's full-size pages to pagePool and empties n.
func (n *memNode) release() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, pg := range n.pages {
		if cap(pg) == memPageSize {
			pagePool.Put((*[memPageSize]byte)(pg[:memPageSize]))
		}
	}
	n.pages, n.size = nil, 0
}

// truncate sets the file's size. Growing adds a hole, which reads as
// zeros; shrinking drops the pages past the end and shortens the last
// one, whose cut-off bytes the hole rule clears before a write exposes
// them.
func (n *memNode) truncate(size int64) {
	if keep := int((size + memPageSize - 1) / memPageSize); size < n.size && keep <= len(n.pages) {
		clear(n.pages[keep:])
		n.pages = n.pages[:keep]
		if in := int(size % memPageSize); in > 0 && in < len(n.pages[keep-1]) {
			n.pages[keep-1] = n.pages[keep-1][:in]
		}
	}
	n.size = size
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{
		files: make(map[string]*memNode),
		dirs:  map[string]bool{".": true},
	}
}

func clean(name string) string {
	name = path.Clean(strings.TrimPrefix(name, "/"))
	if name == "" {
		name = "."
	}
	return name
}

func (m *MemFS) ensureParents(name string) {
	for d := path.Dir(name); d != "." && d != "/"; d = path.Dir(d) {
		m.dirs[d] = true
	}
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() {
		return nil, fmt.Errorf("create %s: %w", name, ErrClosed)
	}
	if m.dirs[name] {
		return nil, fmt.Errorf("create %s: %w", name, ErrIsDir)
	}
	n := &memNode{}
	m.files[name] = n
	m.ensureParents(name)
	return &memFile{name: name, node: n, fs: m}, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() {
		return nil, fmt.Errorf("open %s: %w", name, ErrClosed)
	}
	n, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("open %s: %w", name, ErrNotExist)
	}
	return &memFile{name: name, node: n, fs: m}, nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() {
		return fmt.Errorf("remove %s: %w", name, ErrClosed)
	}
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("remove %s: %w", name, ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldName, newName string) error {
	oldName, newName = clean(oldName), clean(newName)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() {
		return fmt.Errorf("rename %s: %w", oldName, ErrClosed)
	}
	n, ok := m.files[oldName]
	if !ok {
		return fmt.Errorf("rename %s: %w", oldName, ErrNotExist)
	}
	delete(m.files, oldName)
	m.files[newName] = n
	m.ensureParents(newName)
	return nil
}

// MkdirAll implements FS.
func (m *MemFS) MkdirAll(dir string) error {
	dir = clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() {
		return fmt.Errorf("mkdir %s: %w", dir, ErrClosed)
	}
	m.dirs[dir] = true
	m.ensureParents(dir + "/x")
	return nil
}

// List implements FS.
func (m *MemFS) List(dir string) ([]string, error) {
	dir = clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() {
		return nil, fmt.Errorf("list %s: %w", dir, ErrClosed)
	}
	if !m.dirs[dir] && dir != "." {
		return nil, fmt.Errorf("list %s: %w", dir, ErrNotExist)
	}
	seen := make(map[string]bool)
	collect := func(p string) {
		if dir == "." {
			if i := strings.IndexByte(p, '/'); i >= 0 {
				seen[p[:i]] = true
			} else {
				seen[p] = true
			}
			return
		}
		prefix := dir + "/"
		if strings.HasPrefix(p, prefix) {
			rest := p[len(prefix):]
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				rest = rest[:i]
			}
			seen[rest] = true
		}
	}
	for p := range m.files {
		collect(p)
	}
	for p := range m.dirs {
		if p != "." && p != dir {
			collect(p)
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out, nil
}

// Stat implements FS.
func (m *MemFS) Stat(name string) (int64, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() {
		return 0, fmt.Errorf("stat %s: %w", name, ErrClosed)
	}
	n, ok := m.files[name]
	if !ok {
		return 0, fmt.Errorf("stat %s: %w", name, ErrNotExist)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.size, nil
}

// Exists implements FS. A closed filesystem holds nothing.
func (m *MemFS) Exists(name string) bool {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; ok {
		return true
	}
	return m.dirs[name]
}

// Close releases the filesystem: its files' full-size pages go to
// pagePool for the next MemFS to reuse. Every later call on it returns
// ErrClosed (Exists reports false), and so does every call on a file
// opened from it, whenever that file was opened.
func (m *MemFS) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Swap(true) {
		return ErrClosed
	}
	for _, n := range m.files {
		n.release()
	}
	m.files, m.dirs = nil, nil
	return nil
}

// Closed reports whether Close has been called.
func (m *MemFS) Closed() bool { return m.closed.Load() }

// TotalBytes reports the sum of all file sizes, for tests and accounting.
func (m *MemFS) TotalBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, n := range m.files {
		n.mu.Lock()
		total += n.size
		n.mu.Unlock()
	}
	return total
}

type memFile struct {
	name   string
	node   *memNode
	fs     *MemFS
	pos    int64
	closed bool
}

// err is ErrClosed once f or its filesystem is closed.
func (f *memFile) err() error {
	if f.closed || f.fs.closed.Load() {
		return ErrClosed
	}
	return nil
}

// lock takes f's node for one call, or returns ErrClosed holding
// nothing. The check follows the lock, so no call runs on a node that
// MemFS.Close has released.
func (f *memFile) lock() error {
	if f.closed {
		return ErrClosed
	}
	f.node.mu.Lock()
	if f.fs.closed.Load() {
		f.node.mu.Unlock()
		return ErrClosed
	}
	return nil
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.lock(); err != nil {
		return 0, err
	}
	defer f.node.mu.Unlock()
	if off >= f.node.size {
		return 0, io.EOF
	}
	n := f.node.readAt(p, off)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.lock(); err != nil {
		return 0, err
	}
	defer f.node.mu.Unlock()
	f.node.writeAt(p, off)
	return len(p), nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	if err := f.err(); err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		size, err := f.Size()
		if err != nil {
			return 0, err
		}
		base = size
	default:
		return 0, fmt.Errorf("seek %s: bad whence %d", f.name, whence)
	}
	np := base + offset
	if np < 0 {
		return 0, fmt.Errorf("seek %s: negative position", f.name)
	}
	f.pos = np
	return np, nil
}

func (f *memFile) Size() (int64, error) {
	if err := f.lock(); err != nil {
		return 0, err
	}
	defer f.node.mu.Unlock()
	return f.node.size, nil
}

func (f *memFile) Sync() error { return f.err() }

func (f *memFile) Truncate(size int64) error {
	if err := f.lock(); err != nil {
		return err
	}
	defer f.node.mu.Unlock()
	f.node.truncate(size)
	return nil
}

func (f *memFile) Close() error {
	err := f.err()
	f.closed = true
	return err
}
