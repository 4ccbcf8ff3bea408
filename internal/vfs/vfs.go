// Package vfs defines the filesystem abstraction shared by every storage
// component in this repository. The LSM engine, the LSMIO library and the
// comparator file formats (HDF5-like, ADIOS2-like) perform all their I/O
// through FS and File, so the same code runs unchanged against the real
// operating-system filesystem (OSFS), an in-memory filesystem for tests
// (MemFS), and the simulated Lustre parallel file system (package pfs),
// where each operation additionally advances the calling rank's virtual
// clock.
package vfs

import (
	"errors"
	"fmt"
	"io"
)

// Common error values. Implementations wrap or return these so callers can
// test with errors.Is.
var (
	ErrNotExist = errors.New("file does not exist")
	ErrExist    = errors.New("file already exists")
	ErrClosed   = errors.New("file already closed")
	ErrIsDir    = errors.New("is a directory")
)

// FS is a minimal hierarchical filesystem. Paths are slash-separated and
// relative to the filesystem root.
type FS interface {
	// Create makes (or truncates) a file and opens it for reading and
	// writing, creating parent directories as needed.
	Create(name string) (File, error)
	// Open opens an existing file for reading and writing.
	Open(name string) (File, error)
	// Remove deletes a file.
	Remove(name string) error
	// Rename atomically renames a file.
	Rename(oldName, newName string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(dir string) error
	// List returns the names (not full paths) of entries in dir, sorted.
	List(dir string) ([]string, error)
	// Stat returns the size of a file.
	Stat(name string) (size int64, err error)
	// Exists reports whether a file or directory exists.
	Exists(name string) bool
}

// File is an open file supporting both positional and cursor I/O.
// Implementations need not be safe for concurrent use; the storage engines
// in this repository serialize access per file handle.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Closer
	io.Seeker
	// Size returns the current file length.
	Size() (int64, error)
	// Sync forces buffered data to stable storage. On the simulated PFS
	// this is where write-back cache drain time is charged.
	Sync() error
	// Truncate changes the file length.
	Truncate(size int64) error
	// Name returns the path the file was opened with.
	Name() string
}

// ReadAll reads the whole file from the beginning regardless of cursor.
func ReadAll(f File) ([]byte, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if size == 0 {
		return buf, nil
	}
	n, err := f.ReadAt(buf, 0)
	if err == io.EOF {
		err = nil
	}
	if err == nil && int64(n) < size {
		// A short read with no error would hand the caller a buffer whose
		// tail is silent zeros — treat it as the I/O failure it is.
		return buf[:n], fmt.Errorf("vfs: short read of %s: %d of %d bytes: %w",
			f.Name(), n, size, io.ErrUnexpectedEOF)
	}
	return buf, err
}
