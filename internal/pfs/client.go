package pfs

import (
	"fmt"
	"hash/crc32"
	"path"
	"strings"
	"time"

	"lsmio/internal/sim"
	"lsmio/internal/vfs"
)

func normalize(name string) string {
	name = path.Clean(strings.TrimPrefix(name, "/"))
	if name == "" {
		name = "."
	}
	return name
}

// ClientFS is one compute node's view of the parallel file system. It
// implements vfs.FS; every operation charges virtual time to the calling
// simulation process. It is bound to a fabric endpoint (the node id).
type ClientFS struct {
	c      *Cluster
	nodeID int
	// parity makes files this client creates use K+1 XOR-parity layouts
	// (set via Cluster.ResilientClient).
	parity bool
	// latest device completion across all this client's writes, for
	// Barrier (the write-barrier LSMIO relies on).
	pending sim.Time
	// open files with possibly-unflushed write-back extents, so Barrier
	// can push them out.
	open map[*pfsFile]struct{}
}

// Client returns the filesystem client for a compute node.
func (c *Cluster) Client(nodeID int) *ClientFS {
	if nodeID < 0 || nodeID >= c.cfg.ComputeNodes {
		panic(fmt.Sprintf("pfs: node %d out of range", nodeID))
	}
	return &ClientFS{c: c, nodeID: nodeID, open: make(map[*pfsFile]struct{})}
}

var _ vfs.FS = (*ClientFS)(nil)

// Create makes a file with the directory-default striping.
func (f *ClientFS) Create(name string) (vfs.File, error) {
	return f.CreateStriped(name, 0, 0)
}

// CreateStriped makes a file with an explicit stripe count and size
// (the `lfs setstripe` equivalent; zero values use the cluster default).
func (f *ClientFS) CreateStriped(name string, stripeCount int, stripeSize int64) (vfs.File, error) {
	p := f.c.cur()
	f.c.chargeMDS(p, f.nodeID)
	name = normalize(name)
	file, err := f.c.store.Create(name)
	if err != nil {
		return nil, err
	}
	f.c.layouts[name] = f.c.newLayout(stripeCount, stripeSize, f.parity)
	return f.track(&pfsFile{fs: f, name: name, inner: file, lay: f.c.layouts[name]}), nil
}

func (f *ClientFS) track(pf *pfsFile) *pfsFile {
	f.open[pf] = struct{}{}
	return pf
}

// Open opens an existing file. Opening by another rank sees the layout the
// creator established (shared-file N-to-1 workloads rely on this).
func (f *ClientFS) Open(name string) (vfs.File, error) {
	p := f.c.cur()
	f.c.chargeMDS(p, f.nodeID)
	name = normalize(name)
	file, err := f.c.store.Open(name)
	if err != nil {
		return nil, err
	}
	lay, ok := f.c.layouts[name]
	if !ok {
		// Defensive: a file written outside the layout map (should not
		// happen) gets a default layout.
		lay = f.c.newLayout(0, 0, false)
		f.c.layouts[name] = lay
	}
	return f.track(&pfsFile{fs: f, name: name, inner: file, lay: lay}), nil
}

// Remove implements vfs.FS.
func (f *ClientFS) Remove(name string) error {
	f.c.chargeMDS(f.c.cur(), f.nodeID)
	name = normalize(name)
	if err := f.c.store.Remove(name); err != nil {
		return err
	}
	delete(f.c.layouts, name)
	return nil
}

// Rename implements vfs.FS.
func (f *ClientFS) Rename(oldName, newName string) error {
	f.c.chargeMDS(f.c.cur(), f.nodeID)
	oldName, newName = normalize(oldName), normalize(newName)
	if err := f.c.store.Rename(oldName, newName); err != nil {
		return err
	}
	if lay, ok := f.c.layouts[oldName]; ok {
		delete(f.c.layouts, oldName)
		f.c.layouts[newName] = lay
	}
	return nil
}

// MkdirAll implements vfs.FS.
func (f *ClientFS) MkdirAll(dir string) error {
	f.c.chargeMDS(f.c.cur(), f.nodeID)
	return f.c.store.MkdirAll(dir)
}

// List implements vfs.FS.
func (f *ClientFS) List(dir string) ([]string, error) {
	f.c.chargeMDS(f.c.cur(), f.nodeID)
	return f.c.store.List(dir)
}

// Stat implements vfs.FS.
func (f *ClientFS) Stat(name string) (int64, error) {
	f.c.chargeMDS(f.c.cur(), f.nodeID)
	return f.c.store.Stat(name)
}

// Exists implements vfs.FS. (No time charge: used on hot paths as a pure
// existence probe; Stat is the charged variant.)
func (f *ClientFS) Exists(name string) bool {
	return f.c.store.Exists(normalize(name))
}

// Barrier blocks the calling process until every write this client has
// issued is on stable storage — the storage-level half of LSMIO's write
// barrier. Unflushed write-back extents are pushed out first; a failed
// push (injected OST fault surviving the retry budget) fails the barrier.
func (f *ClientFS) Barrier() error {
	var firstErr error
	for pf := range f.open {
		if err := pf.flushWriteBack(); err != nil && firstErr == nil {
			firstErr = err
		}
		pf.finalizeCRCs()
	}
	p := f.c.cur()
	if wait := f.pending.Sub(p.Now()); wait > 0 {
		p.Sleep(wait)
	}
	return firstErr
}

// pfsFile is an open file on the simulated PFS. Contiguous writes on one
// handle coalesce in a client write-back extent (Lustre dirty pages) and
// hit the wire as RPCs of up to MaxRPCSize; non-contiguous writes flush
// the pending extent first. Bytes always land in the backing store
// immediately — only the time accounting is deferred.
type pfsFile struct {
	fs      *ClientFS
	name    string
	inner   vfs.File // the backing MemFS file (real bytes)
	lay     *layout
	pending sim.Time // latest device completion for this handle

	wbOff int64 // start of the coalescing extent
	wbLen int64 // pending bytes (0 = none)

	// Read-ahead: [raStart, raEnd) is cached at the client; reads inside
	// it cost only a memory copy. lastReadEnd detects sequential access.
	raStart     int64
	raEnd       int64
	lastReadEnd int64
}

func (pf *pfsFile) Name() string { return pf.name }

// flushWriteBack ships the pending coalesced extent, if any. On failure
// the extent is dropped from the cache (its RPC was refused) and the
// error is surfaced to the caller.
func (pf *pfsFile) flushWriteBack() error {
	if pf.wbLen == 0 {
		return nil
	}
	off, n := pf.wbOff, pf.wbLen
	pf.wbLen = 0
	done, err := pf.fs.c.chargeWriteRPC(pf.fs.c.cur(), pf.fs.nodeID, pf.lay, off, n)
	pf.note(done)
	return err
}

// noteWrite folds n bytes at off into the write-back extent.
func (pf *pfsFile) noteWrite(off, n int64) error {
	c := pf.fs.c
	c.chargeWriteCPU(c.cur(), n)
	if pf.wbLen > 0 && off == pf.wbOff+pf.wbLen {
		pf.wbLen += n
	} else {
		if err := pf.flushWriteBack(); err != nil {
			return err
		}
		pf.wbOff, pf.wbLen = off, n
	}
	for pf.wbLen >= c.cfg.MaxRPCSize {
		take := c.cfg.MaxRPCSize
		off, n := pf.wbOff, take
		pf.wbOff += take
		pf.wbLen -= take
		done, err := c.chargeWriteRPC(c.cur(), pf.fs.nodeID, pf.lay, off, n)
		pf.note(done)
		if err != nil {
			return err
		}
	}
	return nil
}

func (pf *pfsFile) Read(p []byte) (int, error) {
	off, err := pf.inner.Seek(0, 1)
	if err != nil {
		return 0, err
	}
	if err := pf.flushWriteBack(); err != nil {
		return 0, err
	}
	n, err := pf.inner.Read(p)
	if n > 0 {
		if cerr := pf.chargeReadWithRA(off, int64(n)); cerr != nil {
			return 0, cerr
		}
	}
	return n, err
}

func (pf *pfsFile) ReadAt(p []byte, off int64) (int, error) {
	if err := pf.flushWriteBack(); err != nil {
		return 0, err
	}
	n, err := pf.inner.ReadAt(p, off)
	if n > 0 {
		if cerr := pf.chargeReadWithRA(off, int64(n)); cerr != nil {
			return 0, cerr
		}
	}
	return n, err
}

// chargeReadWithRA books a read, applying client read-ahead: sequential
// access fetches a full read-ahead window per RPC, and hits inside the
// cached window cost only the client-side copy.
func (pf *pfsFile) chargeReadWithRA(off, n int64) error {
	c := pf.fs.c
	p := c.cur()
	defer func() { pf.lastReadEnd = off + n }()
	if off >= pf.raStart && off+n <= pf.raEnd && pf.raEnd > 0 {
		// Client-cache hit: copy cost only.
		p.Sleep(time.Duration(float64(n) / c.cfg.ClientStreamBW * 1e9))
		return nil
	}
	fetch := n
	if off == pf.lastReadEnd && c.cfg.ReadAhead > fetch {
		// Sequential pattern: extend the fetch to the read-ahead window,
		// bounded by the file's current size.
		fetch = c.cfg.ReadAhead
		if size, err := pf.inner.Size(); err == nil && off+fetch > size {
			fetch = size - off
		}
		if fetch < n {
			fetch = n
		}
	}
	if err := c.chargeRead(p, pf.fs.nodeID, pf.lay, off, fetch); err != nil {
		return err
	}
	pf.raStart, pf.raEnd = off, off+fetch
	return nil
}

func (pf *pfsFile) Write(p []byte) (int, error) {
	off, err := pf.inner.Seek(0, 1)
	if err != nil {
		return 0, err
	}
	old := pf.readOld(off, len(p))
	n, err := pf.inner.Write(p)
	if n > 0 {
		if pf.lay.parity {
			pf.lay.xorUpdate(off, p[:n], old[:n])
		}
		if werr := pf.noteWrite(off, int64(n)); werr != nil && err == nil {
			err = werr
		}
	}
	return n, err
}

func (pf *pfsFile) WriteAt(p []byte, off int64) (int, error) {
	old := pf.readOld(off, len(p))
	n, err := pf.inner.WriteAt(p, off)
	if n > 0 {
		if pf.lay.parity {
			pf.lay.xorUpdate(off, p[:n], old[:n])
		}
		if werr := pf.noteWrite(off, int64(n)); werr != nil && err == nil {
			err = werr
		}
	}
	return n, err
}

// readOld captures the bytes a write will overwrite (zero-filled past
// EOF), so the parity object can be updated read-modify-write style.
// Only parity layouts pay for it.
func (pf *pfsFile) readOld(off int64, n int) []byte {
	if !pf.lay.parity || n == 0 {
		return nil
	}
	old := make([]byte, n)
	pf.inner.ReadAt(old, off) // partial read leaves the zero fill in place
	return old
}

// finalizeCRCs records the checksum of every stripe unit touched since
// the last sync boundary (the scrubber verifies only finalized units).
func (pf *pfsFile) finalizeCRCs() {
	l := pf.lay
	if !l.parity || len(l.dirty) == 0 {
		return
	}
	buf := make([]byte, l.stripeSize)
	for ci := range l.dirty {
		n, _ := pf.inner.ReadAt(buf, ci*l.stripeSize)
		if n > 0 {
			l.crc[ci] = crc32.ChecksumIEEE(buf[:n])
		}
		delete(l.dirty, ci)
	}
}

// note records a device completion on the handle and the client.
func (pf *pfsFile) note(done sim.Time) {
	if done > pf.pending {
		pf.pending = done
	}
	if done > pf.fs.pending {
		pf.fs.pending = done
	}
}

func (pf *pfsFile) Seek(offset int64, whence int) (int64, error) {
	return pf.inner.Seek(offset, whence)
}

func (pf *pfsFile) Size() (int64, error) { return pf.inner.Size() }

// Sync blocks until this handle's writes reach stable storage.
func (pf *pfsFile) Sync() error {
	if err := pf.flushWriteBack(); err != nil {
		return err
	}
	pf.finalizeCRCs()
	p := pf.fs.c.cur()
	if wait := pf.pending.Sub(p.Now()); wait > 0 {
		p.Sleep(wait)
	}
	return pf.inner.Sync()
}

func (pf *pfsFile) Truncate(size int64) error {
	if err := pf.inner.Truncate(size); err != nil {
		return err
	}
	pf.rebuildParityMeta()
	return nil
}

// rebuildParityMeta recomputes the parity bytes and unit checksums from
// scratch after a size change that XOR deltas cannot track.
func (pf *pfsFile) rebuildParityMeta() {
	l := pf.lay
	if !l.parity {
		return
	}
	size, err := pf.inner.Size()
	if err != nil {
		return
	}
	l.pdata = nil
	l.crc = make(map[int64]uint32)
	l.dirty = make(map[int64]bool)
	if size == 0 {
		return
	}
	buf := make([]byte, l.stripeSize)
	k := int64(l.stripeCount)
	for ci := int64(0); ci*l.stripeSize < size; ci++ {
		n, _ := pf.inner.ReadAt(buf, ci*l.stripeSize)
		if n <= 0 {
			break
		}
		l.crc[ci] = crc32.ChecksumIEEE(buf[:n])
		pOff := (ci / k) * l.stripeSize
		l.ensureParity(pOff + int64(n))
		for i := 0; i < n; i++ {
			l.pdata[pOff+int64(i)] ^= buf[i]
		}
	}
}

func (pf *pfsFile) Close() error {
	err := pf.flushWriteBack()
	pf.finalizeCRCs()
	delete(pf.fs.open, pf)
	if cerr := pf.inner.Close(); err == nil {
		err = cerr
	}
	return err
}
