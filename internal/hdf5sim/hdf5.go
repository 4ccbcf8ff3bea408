// Package hdf5sim reimplements the slice of HDF5 behaviour that matters
// to the LSMIO paper's comparison: a single shared, self-describing file
// whose chunked datasets interleave small metadata structures (superblock,
// object headers, chunk B-tree nodes) near the head of the file with bulk
// chunk data behind them.
//
// The metadata traffic is the point. Every chunk write updates a B-tree
// node and the object header — small writes at low file offsets — before
// writing the chunk itself. On a striped parallel file system those
// head-of-file updates land on the same few OSTs from every rank,
// thrashing extent locks and disk heads, which is precisely why HDF5
// trails both the IOR baseline and LSMIO in the paper's figures.
//
// The format is simplified but real: the superblock, object header, B-tree
// nodes and chunk extents are actually written and read back; readers
// consult the on-disk B-tree to find chunks. Chunk placement is
// deterministic (chunk i's extent is computable from i), which stands in
// for HDF5's allocator coordination under MPI-IO without needing shared
// allocator state across ranks.
package hdf5sim

import (
	"encoding/binary"
	"fmt"
	"io"

	"lsmio/internal/vfs"
)

// Format constants. Offsets are deterministic functions of the dataset
// geometry, standing in for the real allocator.
const (
	signature     = "\x89HDF5sim\r\n"
	superblockLen = 96
	headerOff     = 128 // object header block
	headerLen     = 256
	btreeOff      = 1024 // first B-tree node
	btreeNodeLen  = 512
	btreeFanout   = 16 // chunk entries per node
	entryLen      = 24 // chunkIdx(8) offset(8) length(8)
)

// DatasetSpec fixes a 1-D chunked dataset's geometry at create time.
type DatasetSpec struct {
	Name     string
	TotalLen int64 // dataset length in bytes
	ChunkLen int64 // chunk size in bytes
	ElemSize int
}

func (s DatasetSpec) numChunks() int64 {
	return (s.TotalLen + s.ChunkLen - 1) / s.ChunkLen
}

// dataStart returns where bulk chunk data begins: after the B-tree region.
func (s DatasetSpec) dataStart() int64 {
	nodes := (s.numChunks() + btreeFanout - 1) / btreeFanout
	return btreeOff + nodes*btreeNodeLen
}

// ChunkExtent returns the file-space extent of a chunk; collective
// drivers use it to translate dataset offsets to file offsets.
func (s DatasetSpec) ChunkExtent(chunkIdx int64) (off, length int64) {
	return s.chunkExtent(chunkIdx)
}

func (s DatasetSpec) chunkExtent(chunkIdx int64) (off, length int64) {
	length = s.ChunkLen
	if rem := s.TotalLen - chunkIdx*s.ChunkLen; rem < length {
		length = rem
	}
	return s.dataStart() + chunkIdx*s.ChunkLen, length
}

func (s DatasetSpec) btreeNodeOffset(chunkIdx int64) int64 {
	return btreeOff + (chunkIdx/btreeFanout)*btreeNodeLen
}

// DataSink receives bulk chunk data. The default sink writes straight to
// the file; the IOR harness substitutes a two-phase (collective) sink.
// Metadata always goes directly to the file, as in HDF5 under MPI-IO.
type DataSink interface {
	WriteAt(data []byte, off int64) error
}

// DataSource supplies bulk chunk data for reads.
type DataSource interface {
	ReadAt(data []byte, off int64) error
}

type fileSink struct{ f vfs.File }

func (s fileSink) WriteAt(data []byte, off int64) error {
	_, err := s.f.WriteAt(data, off)
	return err
}

func (s fileSink) ReadAt(data []byte, off int64) error {
	_, err := s.f.ReadAt(data, off)
	if err == io.EOF {
		err = nil
	}
	return err
}

// MetadataPolicy controls how metadata updates (object header, B-tree
// nodes) reach the file. The default performs them directly from the
// calling rank; a collective policy (HDF5's collective metadata writes
// under MPI-IO) synchronizes all ranks per operation and writes from one.
type MetadataPolicy interface {
	// Do invokes write according to the policy (possibly on a subset of
	// ranks after coordination).
	Do(write func() error) error
}

type directMetadata struct{}

func (directMetadata) Do(write func() error) error { return write() }

// File is one rank's handle on a (possibly shared) HDF5-like file.
type File struct {
	fs            vfs.FS
	f             vfs.File
	spec          DatasetSpec
	write         bool
	mdPol         MetadataPolicy
	chunksWritten int64
}

// SetMetadataPolicy installs a metadata-write policy (nil restores the
// direct default).
func (h *File) SetMetadataPolicy(p MetadataPolicy) {
	if p == nil {
		p = directMetadata{}
	}
	h.mdPol = p
}

// Create creates the file, writes the superblock, object header and empty
// B-tree, and returns a handle. Under N-to-1 usage exactly one rank calls
// Create; the others Open after a barrier.
func Create(fsys vfs.FS, path string, spec DatasetSpec) (*File, error) {
	if spec.ChunkLen <= 0 || spec.TotalLen <= 0 {
		return nil, fmt.Errorf("hdf5sim: bad dataset spec %+v", spec)
	}
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	h := &File{fs: fsys, f: f, spec: spec, write: true, mdPol: directMetadata{}}
	// Superblock.
	sb := make([]byte, superblockLen)
	copy(sb, signature)
	binary.LittleEndian.PutUint64(sb[16:], uint64(spec.TotalLen))
	binary.LittleEndian.PutUint64(sb[24:], uint64(spec.ChunkLen))
	binary.LittleEndian.PutUint64(sb[32:], uint64(spec.ElemSize))
	if _, err := f.WriteAt(sb, 0); err != nil {
		f.Close()
		return nil, err
	}
	// Object header for the single dataset.
	hdr := make([]byte, headerLen)
	copy(hdr, spec.Name)
	if _, err := f.WriteAt(hdr, headerOff); err != nil {
		f.Close()
		return nil, err
	}
	return h, nil
}

// Open opens an existing file and reads its dataset geometry from the
// superblock.
func Open(fsys vfs.FS, path string) (*File, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	sb := make([]byte, superblockLen)
	if _, err := f.ReadAt(sb, 0); err != nil && err != io.EOF {
		f.Close()
		return nil, err
	}
	if string(sb[:len(signature)]) != signature {
		f.Close()
		return nil, fmt.Errorf("hdf5sim: %s: bad signature", path)
	}
	spec := DatasetSpec{
		TotalLen: int64(binary.LittleEndian.Uint64(sb[16:])),
		ChunkLen: int64(binary.LittleEndian.Uint64(sb[24:])),
		ElemSize: int(binary.LittleEndian.Uint64(sb[32:])),
	}
	return &File{fs: fsys, f: f, spec: spec, write: true, mdPol: directMetadata{}}, nil
}

// OpenShared opens the shared file from a non-creating rank.
func OpenShared(fsys vfs.FS, path string) (*File, error) { return Open(fsys, path) }

// WriteHyperslab writes [start, start+len(data)) of the dataset. The range
// must be chunk-aligned (how IOR drives HDF5 with transfer == chunk).
// Each chunk costs, in order: an object-header touch, a B-tree node
// update, then the chunk data through the sink.
func (h *File) WriteHyperslab(start int64, data []byte, sink DataSink) error {
	if sink == nil {
		sink = fileSink{h.f}
	}
	if start%h.spec.ChunkLen != 0 {
		return fmt.Errorf("hdf5sim: write at %d not chunk-aligned", start)
	}
	for len(data) > 0 {
		chunkIdx := start / h.spec.ChunkLen
		_, chunkLen := h.spec.chunkExtent(chunkIdx)
		n := chunkLen
		if n > int64(len(data)) {
			n = int64(len(data))
		}
		if err := h.writeChunk(chunkIdx, data[:n], sink); err != nil {
			return err
		}
		data = data[n:]
		start += n
	}
	return nil
}

func (h *File) writeChunk(chunkIdx int64, data []byte, sink DataSink) error {
	off, _ := h.spec.chunkExtent(chunkIdx)
	// 1. Object header touch (mtime, dimension bookkeeping). The metadata
	// cache coalesces these; they write through every btreeFanout chunk
	// writes on this handle (a rank-uniform schedule, so collective
	// metadata policies stay aligned across ranks).
	h.chunksWritten++
	if h.chunksWritten%btreeFanout == 1 {
		err := h.mdPol.Do(func() error {
			var stamp [16]byte
			binary.LittleEndian.PutUint64(stamp[:8], uint64(chunkIdx))
			_, err := h.f.WriteAt(stamp[:], headerOff+32)
			return err
		})
		if err != nil {
			return err
		}
	}
	// 2. B-tree entry for the chunk.
	err := h.mdPol.Do(func() error {
		nodeOff := h.spec.btreeNodeOffset(chunkIdx)
		slot := (chunkIdx % btreeFanout) * entryLen
		var entry [entryLen]byte
		binary.LittleEndian.PutUint64(entry[0:], uint64(chunkIdx)+1) // +1: 0 means empty
		binary.LittleEndian.PutUint64(entry[8:], uint64(off))
		binary.LittleEndian.PutUint64(entry[16:], uint64(len(data)))
		_, err := h.f.WriteAt(entry[:], nodeOff+slot)
		return err
	})
	if err != nil {
		return err
	}
	// 3. The chunk data itself.
	return sink.WriteAt(data, off)
}

// ReadHyperslab reads [start, start+len(dst)) of the dataset. Each chunk
// costs a B-tree lookup (a real read of the node) before the data read.
func (h *File) ReadHyperslab(start int64, dst []byte, src DataSource) error {
	if src == nil {
		src = fileSink{h.f}
	}
	if start%h.spec.ChunkLen != 0 {
		return fmt.Errorf("hdf5sim: read at %d not chunk-aligned", start)
	}
	for len(dst) > 0 {
		chunkIdx := start / h.spec.ChunkLen
		off, length, err := h.lookupChunk(chunkIdx)
		if err != nil {
			return err
		}
		n := length
		if n > int64(len(dst)) {
			n = int64(len(dst))
		}
		if err := src.ReadAt(dst[:n], off); err != nil {
			return err
		}
		dst = dst[n:]
		start += n
	}
	return nil
}

// lookupChunk consults the on-disk B-tree node for a chunk's extent.
func (h *File) lookupChunk(chunkIdx int64) (off, length int64, err error) {
	nodeOff := h.spec.btreeNodeOffset(chunkIdx)
	node := make([]byte, btreeNodeLen)
	if _, err := h.f.ReadAt(node, nodeOff); err != nil && err != io.EOF {
		return 0, 0, err
	}
	slot := (chunkIdx % btreeFanout) * entryLen
	stored := binary.LittleEndian.Uint64(node[slot:])
	if stored != uint64(chunkIdx)+1 {
		return 0, 0, fmt.Errorf("hdf5sim: chunk %d not present", chunkIdx)
	}
	off = int64(binary.LittleEndian.Uint64(node[slot+8:]))
	length = int64(binary.LittleEndian.Uint64(node[slot+16:]))
	return off, length, nil
}

// RawWriteAt writes bulk bytes at a file offset, bypassing the dataset
// layer. Collective (two-phase) drivers use it on the aggregator side.
func (h *File) RawWriteAt(data []byte, off int64) error {
	_, err := h.f.WriteAt(data, off)
	return err
}

// RawReadCovering reads bulk bytes at a file offset as one piece of a
// read of the window [start, end) that covers them, bypassing the
// dataset layer: the file books the whole window and copies only data
// (data sieving under MPI-IO). The file must be one that can, as every
// file a pfs client opens can.
func (h *File) RawReadCovering(data []byte, off, start, end int64) (int, error) {
	f, ok := h.f.(interface {
		ReadCovering(p []byte, off, start, end int64) (int, error)
	})
	if !ok {
		return 0, fmt.Errorf("hdf5sim: %T cannot read a covering window", h.f)
	}
	return f.ReadCovering(data, off, start, end)
}

// Sync flushes outstanding writes (H5Fflush).
func (h *File) Sync() error { return h.f.Sync() }

// Close finalizes the file; a writer refreshes the superblock stamp first
// (HDF5 rewrites the superblock on close).
func (h *File) Close() error {
	if h.write {
		var stamp [8]byte
		binary.LittleEndian.PutUint64(stamp[:], uint64(h.spec.TotalLen))
		if _, err := h.f.WriteAt(stamp[:], superblockLen-8); err != nil {
			h.f.Close()
			return err
		}
	}
	return h.f.Close()
}
