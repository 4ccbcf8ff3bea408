package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// OSFS implements FS on a directory of the real operating-system
// filesystem. It is what the LSMIO examples and the lsmioctl tool use when
// running outside the simulator.
type OSFS struct {
	root string
}

// NewOSFS returns an FS rooted at dir, creating it if necessary.
func NewOSFS(dir string) (*OSFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vfs: root %s: %w", dir, err)
	}
	return &OSFS{root: dir}, nil
}

func (o *OSFS) path(name string) string {
	return filepath.Join(o.root, filepath.FromSlash(clean(name)))
}

func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("%w (%v)", ErrNotExist, err)
	case errors.Is(err, fs.ErrExist):
		return fmt.Errorf("%w (%v)", ErrExist, err)
	default:
		return err
	}
}

// Create implements FS.
func (o *OSFS) Create(name string) (File, error) {
	p := o.path(name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, mapErr(err)
	}
	f, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, mapErr(err)
	}
	return &osFile{name: clean(name), f: f}, nil
}

// Open implements FS.
func (o *OSFS) Open(name string) (File, error) {
	f, err := os.OpenFile(o.path(name), os.O_RDWR, 0)
	if err != nil {
		return nil, mapErr(err)
	}
	return &osFile{name: clean(name), f: f}, nil
}

// Remove implements FS.
func (o *OSFS) Remove(name string) error { return mapErr(os.Remove(o.path(name))) }

// Rename implements FS.
func (o *OSFS) Rename(oldName, newName string) error {
	dst := o.path(newName)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return mapErr(err)
	}
	return mapErr(os.Rename(o.path(oldName), dst))
}

// MkdirAll implements FS.
func (o *OSFS) MkdirAll(dir string) error { return mapErr(os.MkdirAll(o.path(dir), 0o755)) }

// List implements FS.
func (o *OSFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(o.path(dir))
	if err != nil {
		return nil, mapErr(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// Stat implements FS.
func (o *OSFS) Stat(name string) (int64, error) {
	fi, err := os.Stat(o.path(name))
	if err != nil {
		return 0, mapErr(err)
	}
	return fi.Size(), nil
}

// Exists implements FS.
func (o *OSFS) Exists(name string) bool {
	_, err := os.Stat(o.path(name))
	return err == nil
}

type osFile struct {
	name string
	f    *os.File
}

func (f *osFile) Name() string                            { return f.name }
func (f *osFile) Read(p []byte) (int, error)              { return f.f.Read(p) }
func (f *osFile) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }
func (f *osFile) Write(p []byte) (int, error)             { return f.f.Write(p) }
func (f *osFile) WriteAt(p []byte, off int64) (int, error) {
	return f.f.WriteAt(p, off)
}
func (f *osFile) Seek(offset int64, whence int) (int64, error) {
	return f.f.Seek(offset, whence)
}
func (f *osFile) Size() (int64, error) {
	fi, err := f.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
func (f *osFile) Sync() error            { return f.f.Sync() }
func (f *osFile) Truncate(n int64) error { return f.f.Truncate(n) }
func (f *osFile) Close() error           { return f.f.Close() }
