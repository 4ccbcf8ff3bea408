package main

// The scratch filesystem the stores under test live on.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"

	"lsmio/internal/vfs"
)

// unsyncedFS is vfs.OSFS with Sync absorbed. The scratch directory has
// to live inside the checkout, which is normally on a disk; there the
// latency of fsync on a shared virtual device varies tenfold from run to
// run (measured: the same 1 GiB written at 160 MB/s, then at 1.6 GB/s),
// which would drown every number this benchmark reports. With Sync
// absorbed, file data stays in the page cache until the epoch removes
// it, exactly as on tmpfs, where fsync is free. Latencies are therefore
// the sandbox's, not a device's; that acknowledged writes survive a
// crash is checked separately (durability check), and the traced run
// still counts the Sync calls the engine makes.
type unsyncedFS struct{ vfs.FS }

func (f unsyncedFS) Create(name string) (vfs.File, error) {
	h, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return unsyncedFile{h}, nil
}

func (f unsyncedFS) Open(name string) (vfs.File, error) {
	h, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return unsyncedFile{h}, nil
}

type unsyncedFile struct{ vfs.File }

func (unsyncedFile) Sync() error { return nil }

// scratchFS returns the filesystem an epoch's stores are opened on.
func scratchFS(dir string) (vfs.FS, error) {
	osfs, err := vfs.NewOSFS(dir)
	if err != nil {
		return nil, err
	}
	return unsyncedFS{osfs}, nil
}

// makeScratch creates this round's private directory under base.
func makeScratch(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "round-")
}

// fsType names the filesystem holding dir ("tmpfs", "ext4", ...).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs type 0x%X", uint32(st.Type))
}

// dirBytes sums the sizes of the regular files under dir, and counts
// those whose name ends in suffix.
func dirBytes(dir, suffix string) (bytes int64, matching int, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return ierr
		}
		bytes += info.Size()
		if strings.HasSuffix(path, suffix) {
			matching++
		}
		return nil
	})
	return bytes, matching, err
}
