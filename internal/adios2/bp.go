package adios2

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"lsmio/internal/vfs"
)

// bpEngine is the BP5-like default engine: per-rank data subfiles inside a
// <path>.bp directory, plus md.0/md.idx metadata files written by rank 0.
//
// Write side:
//
//	deferred Put  -> pending list (no copy, like BP5)
//	PerformPuts   -> marshal into chunk buffer(s) of BufferChunkSize,
//	                 charging MarshalPerByte; full chunks stream to the
//	                 subfile as large sequential writes
//	EndStep/Close -> flush tail chunk, gather metadata to rank 0, rank 0
//	                 appends md.0 and md.idx; per-rank block index lands in
//	                 idx.<rank> so readers can locate blocks
type bpEngine struct {
	io   *IO
	path string
	mode Mode
	rank int

	dataFile vfs.File
	buf      []byte
	bufCap   int64
	offset   int64 // current subfile write offset

	pending []pendingPut
	step    int
	meta    []metaRecord

	// Read side.
	index   []metaRecord
	readBuf []byte
}

type pendingPut struct {
	v    *Variable
	data []byte
	sync bool
}

func bpDir(path string) string { return path + ".bp" }

func openBP(ioObj *IO, path string, mode Mode) (Engine, error) {
	e := &bpEngine{
		io:     ioObj,
		path:   path,
		mode:   mode,
		rank:   ioObj.a.rankID(),
		bufCap: ioObj.bufferChunkSize(),
	}
	fs := ioObj.a.cfg.FS
	dir := bpDir(path)
	switch mode {
	case ModeWrite:
		if err := fs.MkdirAll(dir); err != nil {
			return nil, err
		}
		f, err := fs.Create(fmt.Sprintf("%s/data.%d", dir, e.rank))
		if err != nil {
			return nil, err
		}
		e.dataFile = f
		e.buf = make([]byte, 0, e.bufCap)
	case ModeRead:
		f, err := fs.Open(fmt.Sprintf("%s/data.%d", dir, e.rank))
		if err != nil {
			return nil, err
		}
		e.dataFile = f
		idxFile, err := fs.Open(fmt.Sprintf("%s/idx.%d", dir, e.rank))
		if err != nil {
			return nil, err
		}
		idxBytes, err := vfs.ReadAll(idxFile)
		idxFile.Close()
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(idxBytes, &e.index); err != nil {
			return nil, fmt.Errorf("adios2: corrupt idx.%d: %w", e.rank, err)
		}
	default:
		return nil, fmt.Errorf("adios2: bad mode %d", mode)
	}
	return e, nil
}

func (e *bpEngine) compute(d time.Duration) { e.io.a.cfg.Runtime.Compute(d) }

// BeginStep implements Engine.
func (e *bpEngine) BeginStep() error { return nil }

// Put implements Engine. Deferred puts record intent only; Sync puts
// marshal immediately.
func (e *bpEngine) Put(v *Variable, data []byte, mode PutMode) error {
	if e.mode != ModeWrite {
		return fmt.Errorf("adios2: Put on a read engine")
	}
	e.compute(putFixed)
	if mode == Sync {
		return e.marshal(v, data)
	}
	e.pending = append(e.pending, pendingPut{v: v, data: data})
	return nil
}

// PerformPuts implements Engine: drains deferred puts into the buffer.
func (e *bpEngine) PerformPuts() error {
	for _, p := range e.pending {
		if err := e.marshal(p.v, p.data); err != nil {
			return err
		}
	}
	e.pending = e.pending[:0]
	return nil
}

// marshal serializes one variable block into the chunk buffer, spilling
// full chunks to the subfile.
func (e *bpEngine) marshal(v *Variable, data []byte) error {
	e.compute(time.Duration(marshalPerByte * float64(len(data))))
	e.meta = append(e.meta, metaRecord{
		Var:    v.Name,
		Step:   e.step,
		Rank:   e.rank,
		Offset: e.offset + int64(len(e.buf)),
		Length: int64(len(data)),
	})
	e.compute(varMetaCost)
	for len(data) > 0 {
		space := e.bufCap - int64(len(e.buf))
		take := int64(len(data))
		if take > space {
			take = space
		}
		e.buf = append(e.buf, data[:take]...)
		data = data[take:]
		if int64(len(e.buf)) == e.bufCap {
			if err := e.flushChunk(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushChunk writes the current buffer chunk to the subfile.
func (e *bpEngine) flushChunk() error {
	if len(e.buf) == 0 {
		return nil
	}
	n, err := e.dataFile.Write(e.buf)
	if err != nil {
		return err
	}
	e.offset += int64(n)
	e.buf = e.buf[:0]
	return nil
}

// Get implements Engine: reads the variable's block for the current step
// from the subfile (sequential large reads — BP readers stream blocks).
func (e *bpEngine) Get(v *Variable, dst []byte) error {
	if e.mode != ModeRead {
		return fmt.Errorf("adios2: Get on a write engine")
	}
	for _, rec := range e.index {
		if rec.Var == v.Name && rec.Step == e.step {
			if int64(len(dst)) < rec.Length {
				return fmt.Errorf("adios2: Get buffer too small for %q", v.Name)
			}
			if _, err := e.dataFile.ReadAt(dst[:rec.Length], rec.Offset); err != nil && err != io.EOF {
				return err
			}
			e.compute(time.Duration(unmarshalPerByte * float64(rec.Length)))
			return nil
		}
	}
	return fmt.Errorf("adios2: variable %q step %d not found", v.Name, e.step)
}

// EndStep implements Engine: completes the step and pushes metadata.
func (e *bpEngine) EndStep() error {
	if e.mode == ModeRead {
		e.step++
		return nil
	}
	if err := e.PerformPuts(); err != nil {
		return err
	}
	e.step++
	return nil
}

// Close implements Engine.
func (e *bpEngine) Close() error {
	if e.mode == ModeRead {
		return e.dataFile.Close()
	}
	if err := e.PerformPuts(); err != nil {
		return err
	}
	if err := e.flushChunk(); err != nil {
		return err
	}
	if err := e.dataFile.Sync(); err != nil {
		return err
	}
	if err := e.dataFile.Close(); err != nil {
		return err
	}
	fs := e.io.a.cfg.FS
	dir := bpDir(e.path)
	// Per-rank block index (lets the read engine find its blocks).
	idxFile, err := fs.Create(fmt.Sprintf("%s/idx.%d", dir, e.rank))
	if err != nil {
		return err
	}
	if _, err := idxFile.Write(encodeMeta(e.meta)); err != nil {
		idxFile.Close()
		return err
	}
	if err := idxFile.Close(); err != nil {
		return err
	}
	// Global metadata: gathered to rank 0, which writes md.0 and md.idx —
	// the side-channel writes that distinguish BP5 from LSMIO's single
	// write stream.
	rank := e.io.a.cfg.Rank
	all := e.meta
	if rank != nil {
		gathered := rank.Gather(0, e.meta, int64(len(e.meta))*64)
		if rank.Rank() != 0 {
			return nil
		}
		all = nil
		for _, g := range gathered {
			all = append(all, g.([]metaRecord)...)
		}
	}
	md, err := fs.Create(dir + "/md.0")
	if err != nil {
		return err
	}
	if _, err := md.Write(encodeMeta(all)); err != nil {
		md.Close()
		return err
	}
	if err := md.Close(); err != nil {
		return err
	}
	idx, err := fs.Create(dir + "/md.idx")
	if err != nil {
		return err
	}
	var hdr [16]byte
	putUint64(hdr[:8], uint64(len(all)))
	putUint64(hdr[8:], uint64(e.step))
	if _, err := idx.Write(hdr[:]); err != nil {
		idx.Close()
		return err
	}
	return idx.Close()
}
