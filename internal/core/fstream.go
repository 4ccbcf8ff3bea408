package core

import (
	"errors"
	"fmt"
	"io"
)

// FStream is the paper's C++ IOStream-like API (Table 3): a user-space
// POSIX-flavoured file abstraction whose bytes live in the LSMIO store.
// Files are segmented into fixed-size chunks, each stored under its own
// key, plus a metadata key holding the file size; sequential writes
// therefore become sequential puts, which the LSM-tree turns into large
// sequential disk writes.
//
// Like iostreams, errors latch into a fail bit inspected with Fail/Good,
// and Flush/Close push buffered data down; the write barrier is on the
// owning FStreamSystem.
type FStream struct {
	sys  *FStreamSystem
	name string
	pos  int64
	size int64

	// One-chunk write-behind cache.
	curIdx   int64
	curData  []byte
	curDirty bool
	curValid bool

	failbit bool
	lastErr error
	closed  bool
}

// FStreamSystem owns the store behind a set of FStreams; it corresponds to
// the static initialize/cleanup/writeBarrier methods of Table 3.
type FStreamSystem struct {
	mgr       *Manager
	chunkSize int64
	ownsMgr   bool
}

// DefaultFStreamChunkSize is the per-key segment size.
const DefaultFStreamChunkSize = 1 << 20

// InitializeFStreams opens an FStream system over a new Manager in dir
// (Table 3's initialize()).
func InitializeFStreams(dir string, opts ManagerOptions) (*FStreamSystem, error) {
	mgr, err := NewManager(dir, opts)
	if err != nil {
		return nil, err
	}
	return &FStreamSystem{mgr: mgr, chunkSize: DefaultFStreamChunkSize, ownsMgr: true}, nil
}

// NewFStreamSystem wraps an existing Manager (shared with K/V users).
func NewFStreamSystem(mgr *Manager) *FStreamSystem {
	return &FStreamSystem{mgr: mgr, chunkSize: DefaultFStreamChunkSize}
}

// Cleanup closes the system and (when it owns it) the underlying Manager
// (Table 3's cleanup()).
func (s *FStreamSystem) Cleanup() error {
	if s.ownsMgr {
		return s.mgr.Close()
	}
	return nil
}

// WriteBarrier flushes every pending write to disk and blocks until done
// (Table 3's static writeBarrier()).
func (s *FStreamSystem) WriteBarrier() error { return s.mgr.WriteBarrier() }

// Manager exposes the underlying manager.
func (s *FStreamSystem) Manager() *Manager { return s.mgr }

func (s *FStreamSystem) metaKey(name string) string { return "f:" + name + ":meta" }
func (s *FStreamSystem) chunkKey(name string, idx int64) string {
	return fmt.Sprintf("f:%s:%012d", name, idx)
}

// OpenMode selects FStream open behaviour.
type OpenMode int

// Open modes, mirroring ios::in/out/trunc combinations.
const (
	ModeRead OpenMode = iota
	ModeWrite
	ModeReadWrite
)

// Open opens (or for write modes, creates) a named stream.
func (s *FStreamSystem) Open(name string, mode OpenMode) (*FStream, error) {
	f := &FStream{sys: s, name: name, curIdx: -1}
	sizeBytes, err := s.mgr.Get(s.metaKey(name))
	switch {
	case err == nil:
		if len(sizeBytes) == 8 {
			var sz int64
			for i := 0; i < 8; i++ {
				sz |= int64(sizeBytes[i]) << (8 * i)
			}
			f.size = sz
		}
		if mode == ModeWrite {
			// Truncate. The old chunks go too, so that no byte written
			// before the reopen shows through a hole in the new contents.
			for idx := int64(0); idx*s.chunkSize < f.size; idx++ {
				if err := s.mgr.Del(s.chunkKey(name, idx)); err != nil {
					return nil, err
				}
			}
			f.size = 0
		}
	case errors.Is(err, ErrNotFound):
		if mode == ModeRead {
			return nil, fmt.Errorf("lsmio: fstream %q: %w", name, err)
		}
	default:
		return nil, err
	}
	return f, nil
}

// Exists reports whether a named stream has been created.
func (s *FStreamSystem) Exists(name string) bool {
	_, err := s.mgr.Get(s.metaKey(name))
	return err == nil
}

func (f *FStream) setErr(err error) {
	if err != nil && f.lastErr == nil {
		f.lastErr = err
		f.failbit = true
	}
}

// Good reports that no error has latched (iostream good()).
func (f *FStream) Good() bool { return !f.failbit && !f.closed }

// Fail reports a latched error (iostream fail()).
func (f *FStream) Fail() bool { return f.failbit }

// Err returns the latched error, if any.
func (f *FStream) Err() error { return f.lastErr }

// ClearError resets the fail bit (iostream clear()).
func (f *FStream) ClearError() {
	f.failbit = false
	f.lastErr = nil
}

// TellP returns the stream position (iostream tellp()).
func (f *FStream) TellP() int64 { return f.pos }

// SeekP moves the stream position (iostream seekp()).
func (f *FStream) SeekP(offset int64, whence int) int64 {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = f.size
	default:
		f.setErr(fmt.Errorf("lsmio: fstream: bad whence %d", whence))
		return f.pos
	}
	np := base + offset
	if np < 0 {
		f.setErr(fmt.Errorf("lsmio: fstream: negative seek"))
		return f.pos
	}
	f.pos = np
	return f.pos
}

// Size returns the current stream length.
func (f *FStream) Size() int64 { return f.size }

// Name returns the stream name.
func (f *FStream) Name() string { return f.name }

// loadChunk makes chunk idx current, writing back any dirty predecessor.
func (f *FStream) loadChunk(idx int64) error {
	if f.curValid && f.curIdx == idx {
		return nil
	}
	if err := f.writeBackChunk(); err != nil {
		return err
	}
	data, err := f.sys.mgr.Get(f.sys.chunkKey(f.name, idx))
	if errors.Is(err, ErrNotFound) {
		data = nil
	} else if err != nil {
		return err
	}
	f.curIdx = idx
	f.curData = append(f.curData[:0], data...)
	f.curDirty = false
	f.curValid = true
	return nil
}

// writeBackChunk pushes the cached chunk into the store if dirty.
func (f *FStream) writeBackChunk() error {
	if !f.curValid || !f.curDirty {
		return nil
	}
	if err := f.sys.mgr.Put(f.sys.chunkKey(f.name, f.curIdx), f.curData); err != nil {
		return err
	}
	f.curDirty = false
	return nil
}

// Write appends len(p) bytes at the current position (iostream write()).
func (f *FStream) Write(p []byte) (int, error) {
	if f.closed {
		return 0, errors.New("lsmio: fstream: write on closed stream")
	}
	written := 0
	cs := f.sys.chunkSize
	for len(p) > 0 {
		idx := f.pos / cs
		within := f.pos % cs
		take := cs - within
		if take > int64(len(p)) {
			take = int64(len(p))
		}
		if err := f.loadChunk(idx); err != nil {
			f.setErr(err)
			return written, err
		}
		end := within + take
		if end > int64(len(f.curData)) {
			grown := make([]byte, end)
			copy(grown, f.curData)
			f.curData = grown
		}
		copy(f.curData[within:end], p[:take])
		f.curDirty = true
		f.pos += take
		if f.pos > f.size {
			f.size = f.pos
		}
		p = p[take:]
		written += int(take)
	}
	return written, nil
}

// Read fills p from the current position (iostream read()); it returns
// io.EOF at end of stream.
func (f *FStream) Read(p []byte) (int, error) {
	if f.closed {
		return 0, errors.New("lsmio: fstream: read on closed stream")
	}
	if f.pos >= f.size {
		return 0, io.EOF
	}
	n := 0
	cs := f.sys.chunkSize
	for n < len(p) && f.pos < f.size {
		idx := f.pos / cs
		within := f.pos % cs
		if err := f.loadChunk(idx); err != nil {
			f.setErr(err)
			return n, err
		}
		avail := int64(len(f.curData)) - within
		if lim := f.size - f.pos; avail > lim {
			avail = lim
		}
		if avail <= 0 {
			// Sparse hole: zero-fill to chunk edge or requested length.
			hole := cs - within
			if lim := f.size - f.pos; hole > lim {
				hole = lim
			}
			if hole > int64(len(p)-n) {
				hole = int64(len(p) - n)
			}
			for i := int64(0); i < hole; i++ {
				p[n+int(i)] = 0
			}
			f.pos += hole
			n += int(hole)
			continue
		}
		take := avail
		if take > int64(len(p)-n) {
			take = int64(len(p) - n)
		}
		copy(p[n:n+int(take)], f.curData[within:within+take])
		f.pos += take
		n += int(take)
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Flush writes buffered data and metadata into the store (iostream
// flush()); durability still requires the system write barrier.
func (f *FStream) Flush() error {
	if err := f.writeBackChunk(); err != nil {
		f.setErr(err)
		return err
	}
	var meta [8]byte
	for i := 0; i < 8; i++ {
		meta[i] = byte(f.size >> (8 * i))
	}
	if err := f.sys.mgr.Put(f.sys.metaKey(f.name), meta[:]); err != nil {
		f.setErr(err)
		return err
	}
	return nil
}

// Close flushes and closes the stream.
func (f *FStream) Close() error {
	if f.closed {
		return errors.New("lsmio: fstream: already closed")
	}
	err := f.Flush()
	f.closed = true
	return err
}
