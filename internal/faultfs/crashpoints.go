package faultfs

import (
	"fmt"
	"sort"

	"lsmio/internal/vfs"
)

// Crash-point enumeration (crashmonkey-style). With recording enabled the
// wrapper keeps, for every durability boundary, the durable image a crash
// immediately after it would leave: the name table's durable bytes at that
// moment. Images share the files' byte slices, which are never modified, so
// keeping one costs a map of the names, and StateAfter(b) only copies image
// b into a fresh MemFS.
//
// A "durability boundary" is an operation after which strictly more state
// is guaranteed on stable storage: Create, Remove, Rename (namespace ops,
// atomic + durable on a journaled FS), Sync (one file's data), and Barrier
// (all files' data). Plain writes and truncates are not boundaries — they
// only change the volatile image.

// CrashPoint describes one enumerated durability boundary.
type CrashPoint struct {
	// Boundary is the 1-based boundary index (pass to StateAfter).
	Boundary int
	// Op is the operation that formed the boundary.
	Op Op
	// Path is the operation's primary path ("" for Barrier).
	Path string
}

// image is the durable state right after one boundary.
type image struct {
	pt    CrashPoint
	files map[string][]byte
	// dirs counts the directories the image holds: those of order below
	// it. A directory is durable once made, so it joins the latest image.
	dirs int
}

// noteLocked advances the boundary counter for a boundary op and, when
// recording, keeps the durable image it leaves. Callers hold f.mu.
func (f *FS) noteLocked(op Op, p string) {
	f.boundaries++
	if f.recording {
		f.images = append(f.images, f.imageLocked(CrashPoint{Boundary: f.boundaries, Op: op, Path: p}))
	}
}

func (f *FS) imageLocked(pt CrashPoint) image {
	files := make(map[string][]byte, len(f.names))
	for p, nd := range f.names {
		files[p] = nd.durable
	}
	return image{pt: pt, files: files, dirs: len(f.dirs)}
}

// StartRecording takes the wrapper's current durable state as boundary 0,
// resets the boundary counter to zero, and keeps the image of every
// subsequent boundary until StopRecording. It always returns nil.
func (f *FS) StartRecording() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.boundaries = 0
	f.images = []image{f.imageLocked(CrashPoint{})}
	f.recording = true
	return nil
}

// StopRecording stops recording. The images are kept for enumeration.
func (f *FS) StopRecording() {
	f.mu.Lock()
	f.recording = false
	f.mu.Unlock()
}

// CrashPoints lists every durability boundary recorded since
// StartRecording, in order.
func (f *FS) CrashPoints() []CrashPoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	var pts []CrashPoint
	for _, im := range f.images[min(1, len(f.images)):] {
		pts = append(pts, im.pt)
	}
	return pts
}

// StateAfter materializes the durable filesystem image as of a crash
// immediately after boundary b (b = 0: before any recorded boundary) into
// a fresh MemFS. The recorded workload is not disturbed; StateAfter may be
// called repeatedly with different b.
func (f *FS) StateAfter(b int) (*vfs.MemFS, error) {
	f.mu.Lock()
	if len(f.images) == 0 {
		f.mu.Unlock()
		return nil, fmt.Errorf("faultfs: StateAfter without StartRecording")
	}
	im := f.images[min(max(b, 0), len(f.images)-1)]
	var dirs []string
	for d, order := range f.dirs {
		if order < im.dirs {
			dirs = append(dirs, d)
		}
	}
	f.mu.Unlock()

	out := vfs.NewMemFS()
	sort.Strings(dirs)
	for _, d := range dirs {
		if err := out.MkdirAll(d); err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(im.files))
	for p := range im.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		h, err := out.Create(p)
		if err != nil {
			return nil, fmt.Errorf("faultfs: materialize %s: %w", p, err)
		}
		if data := im.files[p]; len(data) > 0 {
			if _, err := h.Write(data); err != nil {
				h.Close()
				return nil, err
			}
		}
		if err := h.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
