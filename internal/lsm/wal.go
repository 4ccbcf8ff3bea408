package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"lsmio/internal/vfs"
)

// Write-ahead log, LevelDB record framing: the file is a sequence of 32 KB
// blocks; each record is split into fragments that never span a block
// boundary.
//
//	fragment := crc32(4) length(2) type(1) payload
//	type     := full | first | middle | last
const (
	walBlockSize  = 32 << 10
	walHeaderSize = 7

	recFull   = 1
	recFirst  = 2
	recMiddle = 3
	recLast   = 4
)

// walTypeCRC[t] is the CRC-32C of the one-byte fragment type t, where a
// fragment's checksum starts before it goes on over the payload.
var walTypeCRC = func() (crcs [256]uint32) {
	for t := range crcs {
		crcs[t] = crc32.Checksum([]byte{byte(t)}, crcTable)
	}
	return crcs
}()

// walPad is the zeros that pad a block's tail too short for a header.
var walPad [walHeaderSize - 1]byte

// walWriter appends records to a log file.
type walWriter struct {
	f        vfs.File
	off      int64 // bytes successfully written to f
	blockOff int   // offset within the current 32 KB block
	buf      []byte
}

func newWALWriter(f vfs.File) *walWriter { return &walWriter{f: f} }

// addRecord appends one record, fragmenting across block boundaries.
//
// Failure model: a failed write may still have persisted a prefix of its
// bytes (a torn write), so on any write error the position model is
// resynchronized from the file itself (resync) instead of being left
// where a clean failure would have put it. Without that, a retried
// append after a failed pad write would pad again past the block
// boundary and land the next record header mid-block — the reader then
// misparses the header and silently truncates replay at that point.
func (w *walWriter) addRecord(data []byte) error {
	first := true
	for {
		leftover := walBlockSize - w.blockOff
		if leftover < walHeaderSize {
			// Pad the tail of the block with zeros.
			if leftover > 0 {
				if _, err := w.f.Write(walPad[:leftover]); err != nil {
					w.resync()
					return err
				}
				w.off += int64(leftover)
			}
			w.blockOff = 0
			continue
		}
		avail := walBlockSize - w.blockOff - walHeaderSize
		n := len(data)
		if n > avail {
			n = avail
		}
		var typ byte
		switch {
		case first && n == len(data):
			typ = recFull
		case first:
			typ = recFirst
		case n == len(data):
			typ = recLast
		default:
			typ = recMiddle
		}
		if err := w.emit(typ, data[:n]); err != nil {
			return err
		}
		data = data[n:]
		first = false
		if len(data) == 0 {
			return nil
		}
	}
}

func (w *walWriter) emit(typ byte, payload []byte) error {
	w.buf = w.buf[:0]
	var hdr [walHeaderSize]byte
	crc := crc32.Update(walTypeCRC[typ], crcTable, payload)
	binary.LittleEndian.PutUint32(hdr[0:], crc)
	binary.LittleEndian.PutUint16(hdr[4:], uint16(len(payload)))
	hdr[6] = typ
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, payload...)
	if _, err := w.f.Write(w.buf); err != nil {
		w.resync()
		return err
	}
	w.off += int64(len(w.buf))
	w.blockOff += len(w.buf)
	if w.blockOff == walBlockSize {
		w.blockOff = 0
	}
	return nil
}

// resync realigns the writer's position model with the bytes that
// actually reached the file after a failed write: a torn write may have
// persisted any prefix, and the file is the only source of truth. If
// even the size probe fails the model is left untouched — the caller is
// expected to stop using the log (the DB poisons itself on WAL errors).
func (w *walWriter) resync() {
	if size, err := w.f.Size(); err == nil {
		w.off = size
		w.blockOff = int(size % walBlockSize)
	}
}

// tell returns the number of bytes successfully appended so far; the
// group-commit leader records it before an append so a failed cohort's
// partial record can be rolled back.
func (w *walWriter) tell() int64 { return w.off }

// rollback truncates the log to off, discarding a suspect tail (e.g. a
// record whose append or fsync failed): even a reopen without a crash
// must never resurrect a write whose caller saw an error.
func (w *walWriter) rollback(off int64) error {
	if err := w.f.Truncate(off); err != nil {
		return err
	}
	if _, err := w.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	w.off = off
	w.blockOff = int(off % walBlockSize)
	return nil
}

// sync flushes the log to stable storage.
func (w *walWriter) sync() error { return w.f.Sync() }

// close closes the underlying file.
func (w *walWriter) close() error { return w.f.Close() }

// walReader replays a log file record by record.
type walReader struct {
	f        vfs.File
	off      int64
	size     int64
	blockOff int
	frag     []byte
}

func newWALReader(f vfs.File) (*walReader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	return &walReader{f: f, size: size}, nil
}

// next returns the next record, or io.EOF at the end of the log. A torn
// tail (partial final record, as after a crash) also ends iteration.
func (r *walReader) next() ([]byte, error) {
	var record []byte
	inFragmented := false
	for {
		leftover := walBlockSize - r.blockOff
		if leftover < walHeaderSize {
			r.off += int64(leftover)
			r.blockOff = 0
			continue
		}
		if r.off+walHeaderSize > r.size {
			return nil, io.EOF
		}
		var hdr [walHeaderSize]byte
		if _, err := r.f.ReadAt(hdr[:], r.off); err != nil && err != io.EOF {
			return nil, err
		}
		wantCRC := binary.LittleEndian.Uint32(hdr[0:])
		length := int(binary.LittleEndian.Uint16(hdr[4:]))
		typ := hdr[6]
		if typ == 0 && length == 0 && wantCRC == 0 {
			// Zero padding / preallocated space: end of log.
			return nil, io.EOF
		}
		if r.off+walHeaderSize+int64(length) > r.size {
			return nil, io.EOF // torn write at the tail
		}
		payload := make([]byte, length)
		if _, err := r.f.ReadAt(payload, r.off+walHeaderSize); err != nil && err != io.EOF {
			return nil, err
		}
		if crc32.Update(walTypeCRC[typ], crcTable, payload) != wantCRC {
			return nil, io.EOF // corrupt tail: stop replay
		}
		r.off += int64(walHeaderSize + length)
		r.blockOff += walHeaderSize + length
		if r.blockOff >= walBlockSize {
			r.blockOff = 0
		}
		switch typ {
		case recFull:
			if inFragmented {
				return nil, fmt.Errorf("lsm: wal: full record inside fragmented record")
			}
			return payload, nil
		case recFirst:
			if inFragmented {
				return nil, fmt.Errorf("lsm: wal: first record inside fragmented record")
			}
			inFragmented = true
			record = append(record[:0], payload...)
		case recMiddle:
			if !inFragmented {
				return nil, fmt.Errorf("lsm: wal: middle record outside fragmented record")
			}
			record = append(record, payload...)
		case recLast:
			if !inFragmented {
				return nil, fmt.Errorf("lsm: wal: last record outside fragmented record")
			}
			return append(record, payload...), nil
		default:
			return nil, fmt.Errorf("lsm: wal: unknown record type %d", typ)
		}
	}
}
