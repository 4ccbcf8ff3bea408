package vfs

import (
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync"
)

// MemFS is an in-memory FS used by unit tests and as the data store
// backing the simulated parallel file system. It is safe for concurrent
// use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memNode
	dirs  map[string]bool
}

// memPageSize is the unit a memNode stores its bytes in. A file grows a
// page at a time, so growing it copies at most one page, never the file.
const memPageSize = 1 << 20

// memNode is one file's bytes. Page i holds the file's bytes from
// i*memPageSize, up to its length; a nil or short page reads as zeros up
// to size. Invariant: a page's bytes between its length and its capacity
// are zero, so extending a page within its capacity exposes only zeros
// (a shrinking Truncate clears what it cuts off).
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
// partly written last page, costs about what it holds.
func growPage(pg []byte, need int) []byte {
	c := max(cap(pg), 1024)
	for c < need {
		c *= 2
	}
	c = min(c, memPageSize)
	grown := make([]byte, len(pg), c)
	copy(grown, pg)
	return grown
}

// truncate sets the file's size. Growing adds a hole, which reads as
// zeros; shrinking drops the pages past the end and clears the cut-off
// tail of the last one, keeping the zero invariant.
func (n *memNode) truncate(size int64) {
	if keep := int((size + memPageSize - 1) / memPageSize); size < n.size && keep <= len(n.pages) {
		clear(n.pages[keep:])
		n.pages = n.pages[:keep]
		if in := int(size % memPageSize); in > 0 && in < len(n.pages[keep-1]) {
			pg := n.pages[keep-1]
			clear(pg[in:])
			n.pages[keep-1] = pg[:in]
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
	m.dirs[dir] = true
	m.ensureParents(dir + "/x")
	return nil
}

// List implements FS.
func (m *MemFS) List(dir string) ([]string, error) {
	dir = clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
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
	n, ok := m.files[name]
	if !ok {
		return 0, fmt.Errorf("stat %s: %w", name, ErrNotExist)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.size, nil
}

// Exists implements FS.
func (m *MemFS) Exists(name string) bool {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; ok {
		return true
	}
	return m.dirs[name]
}

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

func (f *memFile) Name() string { return f.name }

func (f *memFile) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	f.node.mu.Lock()
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
	if f.closed {
		return 0, ErrClosed
	}
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	f.node.writeAt(p, off)
	return len(p), nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		f.node.mu.Lock()
		base = f.node.size
		f.node.mu.Unlock()
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
	if f.closed {
		return 0, ErrClosed
	}
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	return f.node.size, nil
}

func (f *memFile) Sync() error {
	if f.closed {
		return ErrClosed
	}
	return nil
}

func (f *memFile) Truncate(size int64) error {
	if f.closed {
		return ErrClosed
	}
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	f.node.truncate(size)
	return nil
}

func (f *memFile) Close() error {
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	return nil
}
