package ior

import (
	"fmt"
	"io"
)

// Two-phase (collective buffering) I/O, ROMIO-style as tuned for Lustre:
// one aggregator per file stripe (cb_nodes = stripe count, capped at the
// world size). In the exchange phase every rank ships each stripe-sized
// piece of its transfer to the piece's owning aggregator; in the I/O phase
// the aggregator writes the pieces it owns, which land on a single OST as
// an ascending single-writer stream — eliminating the extent-lock
// migration and seek storm that kill interleaved N-to-1 writes.
//
// Sends are eager (buffered at the destination), so the per-transfer
// exchange cannot deadlock even though all ranks run the same loop.

const tagTwoPhase = 7

// twoPhasePiece is one piece in flight to its aggregator. It carries its
// own copy of the bytes: the sender reuses its buffer before the
// aggregator reads them.
type twoPhasePiece struct {
	off  int64
	data []byte
}

// span is [off, off+n) of the file.
type span struct{ off, n int64 }

type twoPhase struct {
	e        *env
	aggCount int
	// writeRaw is the aggregator's bulk write path (posix WriteAt or the
	// HDF5 raw data channel).
	writeRaw func(data []byte, off int64) error
	spans    []span // splitByStripe's result, reused
}

func newTwoPhase(e *env, writeRaw func(data []byte, off int64) error) *twoPhase {
	agg := e.p.StripeCount
	if agg > e.nodes {
		agg = e.nodes
	}
	if agg < 1 {
		agg = 1
	}
	return &twoPhase{e: e, aggCount: agg, writeRaw: writeRaw}
}

// owner returns the aggregator rank owning the stripe at a file offset.
func (tp *twoPhase) owner(fileOff int64) int {
	return int((fileOff / tp.e.p.StripeSize) % int64(tp.aggCount))
}

// splitByStripe cuts [off, off+n) at stripe boundaries. The result is
// valid until the next call.
func (tp *twoPhase) splitByStripe(off, n int64) []span {
	tp.spans = tp.spans[:0]
	ss := tp.e.p.StripeSize
	for n > 0 {
		take := min(ss-off%ss, n)
		tp.spans = append(tp.spans, span{off, take})
		off += take
		n -= take
	}
	return tp.spans
}

// write performs the exchange + I/O phases for this rank's transfer
// (seg, t) at file offset off. All ranks call it for the same (seg, t) in
// the same order; fileOffsetOf tells the aggregator where every other
// rank's transfer landed. dataFileOff maps the transfer's logical offset
// to the physical file offset (identity for posix; dataset shift for
// HDF5).
func (tp *twoPhase) write(seg, t int, off int64, data []byte,
	fileOffsetOf func(rank, seg, t int) int64) error {
	r := tp.e.rank
	me := r.Rank()

	// Exchange phase: ship my pieces to their owners. Only a sent piece
	// is copied: the caller reuses its buffer before the owner reads it.
	for _, s := range tp.splitByStripe(off, int64(len(data))) {
		if owner := tp.owner(s.off); owner != me {
			pc := twoPhasePiece{off: s.off, data: append([]byte(nil), data[s.off-off:][:s.n]...)}
			r.Send(owner, tagTwoPhase, pc, s.n+16)
		}
	}

	// I/O phase: aggregators collect every piece of this round and write
	// them in rank order (ascending object offsets per OST). My own
	// pieces are written from data, which is mine until write returns.
	if me < tp.aggCount {
		for src := 0; src < tp.e.nodes; src++ {
			srcOff := fileOffsetOf(src, seg, t)
			if src == me && srcOff != off {
				return fmt.Errorf("ior: two-phase protocol error: my transfer is at %d, not %d", off, srcOff)
			}
			for _, s := range tp.splitByStripe(srcOff, int64(len(data))) {
				if tp.owner(s.off) != me {
					continue
				}
				var piece twoPhasePiece
				if src == me {
					piece = twoPhasePiece{off: s.off, data: data[s.off-off:][:s.n]}
				} else {
					piece = r.Recv(src, tagTwoPhase).(twoPhasePiece)
				}
				if piece.off != s.off {
					return fmt.Errorf("ior: two-phase protocol error: expected piece at %d, got %d", s.off, piece.off)
				}
				if err := tp.writeRaw(piece.data, piece.off); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// sieveReader models ROMIO's data-sieving read path for non-contiguous
// (interleaved N-to-1) collective reads: to read a strided piece, the
// library reads the whole covering window and copies the wanted bytes
// out of it. Amplification grows with the interleave factor — the
// mechanism behind the paper's observation that collective I/O makes IOR
// reads dramatically slower. The file books the read of the whole window
// in virtual time but copies only the piece, which is still read for
// real and verified: nothing ever looks at the window's other bytes.
type sieveReader struct {
	// readCovering reads dst at off as one piece of a read of the
	// window [start, end): a pfs file's ReadCovering, directly or
	// through the HDF5 raw data channel.
	readCovering func(dst []byte, off, start, end int64) (int, error)
	window       int64
}

// coveringFile is a file that can read a piece of a window; every file
// a pfs client opens is one.
type coveringFile interface {
	ReadCovering(p []byte, off, start, end int64) (int, error)
}

const maxSieveBuffer = 4 << 20 // ROMIO's default ind_rd_buffer_size ballpark

func newSieveReader(e *env, readCovering func(dst []byte, off, start, end int64) (int, error)) *sieveReader {
	window := int64(e.nodes) * e.p.TransferSize
	if window > maxSieveBuffer {
		window = maxSieveBuffer
	}
	if window < e.p.TransferSize {
		window = e.p.TransferSize
	}
	return &sieveReader{readCovering: readCovering, window: window}
}

func (sr *sieveReader) read(off int64, dst []byte) error {
	start := off - off%sr.window
	// The window always covers the requested range, even when it
	// straddles a window boundary (HDF5 shifts data extents by its
	// metadata region); the file cuts it at its end.
	end := max(start+sr.window, off+int64(len(dst)))
	_, err := sr.readCovering(dst, off, start, end)
	if err == io.EOF {
		err = nil
	}
	return err
}
