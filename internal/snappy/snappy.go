// Package snappy implements the Snappy block format (the compression
// RocksDB uses by default) from scratch: an LZ77-family byte-oriented
// codec favouring speed over ratio. The encoder uses the reference
// implementation's strategy: a hash table sized to the input and a
// lookup step that grows over incompressible stretches. The decoder
// accepts any valid Snappy block stream.
//
// The encoder's hash table is kept between calls and not cleared: each
// entry records a position offset by a running base, so entries left by
// earlier calls read as empty, and encoding a small block costs nothing
// per table entry. Which matches are found, and so
// the emitted bytes, are those of an encoder that clears its table on
// every call; a test pins them to one.
//
// Format (https://github.com/google/snappy/blob/main/format_description.txt):
//
//	block  := uvarint(uncompressedLen) element*
//	element:= literal | copy
//	tag & 3: 0 literal, 1 copy with 1-byte offset, 2 copy with 2-byte
//	         offset, 3 copy with 4-byte offset
package snappy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
)

// Errors returned by Decode.
var (
	ErrCorrupt  = errors.New("snappy: corrupt input")
	ErrTooLarge = errors.New("snappy: decoded block is too large")
)

const (
	tagLiteral = 0x00
	tagCopy1   = 0x01
	tagCopy2   = 0x02
	tagCopy4   = 0x03

	maxBlockDecodedLen = 1 << 30

	// maxExpansion bounds decoded bytes per encoded byte: the densest
	// element is a 3-byte copy producing 64 bytes.
	maxExpansion = 22
)

// MaxEncodedLen returns the worst-case encoded size for srcLen input
// bytes.
func MaxEncodedLen(srcLen int) int {
	// varint + literals with headers every <=60 bytes is bounded by
	// the reference formula.
	return 32 + srcLen + srcLen/6
}

// The encoder's hash table of candidate positions for 4-byte sequences
// has two entries per input byte, rounded up to a power of two, within
// these bounds. A table smaller than the input fills with positions of
// the same call, and then almost every lookup costs a load and compare
// that fails. The sizes and the hash decide which matches are found, so
// changing either changes the emitted bytes.
const (
	minTableBits = 8
	maxTableBits = 17
)

// tableBits returns the table size, as a power of two, for n input bytes.
func tableBits(n int) int {
	return min(max(bits.Len(uint(n-1))+1, minTableBits), maxTableBits)
}

// encTable is the encoder's hash table, reused across calls through
// tables; a call uses the first 1<<tableBits(len(src)) entries. An entry
// holds base+s for position s of the call that stored it; base grows by
// each call's input length, so every entry below the current base is from
// an earlier call and counts as empty. The table is cleared only when
// base would overflow int32, not once per call.
type encTable struct {
	pos  [1 << maxTableBits]int32
	base int32
}

// tables keeps encoder tables between calls. It is not a sync.Pool,
// which the garbage collector empties: a table is 512 KiB, and building
// one again after a collection costs more than encoding a 4 KiB block,
// and more garbage than the block's own buffers. An encoder uses the CPU
// from start to end, so no more encoders run at once than there are Ps
// (the simulator runs one at a time), and a table is kept for each. A
// table is built only when more encoders than that run at once, which
// takes an encoder preempted mid-call; it is dropped when it comes back.
var tables = make(chan *encTable, runtime.GOMAXPROCS(0))

// acquire returns the base to store positions of an n-byte input from,
// clearing the table first if base+n would overflow. Base starts at 1,
// so a zeroed entry is empty too.
func (t *encTable) acquire(n int) int32 {
	if int64(t.base)+int64(n) > math.MaxInt32 {
		clear(t.pos[:])
		t.base = 1
	}
	b := t.base
	t.base += int32(n)
	return b
}

// hash maps u to an index into a table of 1<<(32-shift) entries. The
// masks tell the compiler that the shift is below 32 and the index within
// encTable.pos, so neither is checked at run time.
func hash(u uint32, shift uint) uint32 {
	return (u * 0x1e35a7bd) >> (shift & 31) & (1<<maxTableBits - 1)
}

// Encode compresses src, appending to dst (which may be nil).
func Encode(dst, src []byte) []byte {
	// Sized once for the worst case, so the appends below never regrow.
	dst = slices.Grow(dst, MaxEncodedLen(len(src)))
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}
	if len(src) < 16 {
		// Too short to find profitable matches.
		return emitLiteral(dst, src)
	}

	var t *encTable
	select {
	case t = <-tables:
	default:
		t = &encTable{base: 1}
	}
	dst = t.encode(dst, src)
	select {
	case tables <- t:
	default:
	}
	return dst
}

// encode appends the elements of src (at least 16 bytes) to dst.
func (t *encTable) encode(dst, src []byte) []byte {
	shift := uint(32 - tableBits(len(src)))
	base := int(t.acquire(len(src)))
	var litStart int
	s := 0
	for {
		var candidate int
		if s, candidate = t.match(src, s, base, shift); candidate < 0 {
			return emitLiteral(dst, src[litStart:])
		}
		dst = emitLiteral(dst, src[litStart:s])
		start, offset := s, s-candidate
		s = extend(src, s+4, offset)
		dst = emitCopy(dst, offset, s-start)
		litStart = s
		// Positions inside a match are not looked up. As in the reference
		// implementation, the one just before its end is stored, so the
		// bytes straddling the end can be matched when they repeat.
		if s <= len(src)-3 {
			t.pos[hash(binary.LittleEndian.Uint32(src[s-1:]), shift)] = int32(base + s - 1)
		}
	}
}

// extend returns the end of the match that has reached s in src and
// repeats the bytes offset before it. It compares 8 bytes at a time: the
// first differing byte is the lowest set byte of the XOR of the two words.
func extend(src []byte, s, offset int) int {
	for s+8 <= len(src) {
		x := binary.LittleEndian.Uint64(src[s:]) ^ binary.LittleEndian.Uint64(src[s-offset:])
		if x != 0 {
			return s + bits.TrailingZeros64(x)>>3
		}
		s += 8
	}
	for s < len(src) && src[s] == src[s-offset] {
		s++
	}
	return s
}

// match looks up positions of src from s on and returns the first whose
// 4 bytes were seen before, with the earlier position (candidate), or a
// negative candidate if no position is left. Positions looked up are
// stored, as base+position. The first 32 lookups are one byte apart;
// each further 32 misses make the step one byte longer, so an
// incompressible stretch costs ever fewer lookups per byte, at the price
// of a match that starts between two lookups. Kept out of encode, the
// loop holds its variables in registers; written inline there, it
// reloaded them from the stack and 4 KiB blocks encoded ~8% slower.
func (t *encTable) match(src []byte, s, base int, shift uint) (int, int) {
	limit := len(src) - 4
	for skip := 32; s <= limit; skip++ {
		cur := binary.LittleEndian.Uint32(src[s:])
		h := hash(cur, shift)
		candidate := int(t.pos[h]) - base
		t.pos[h] = int32(base + s)
		if candidate >= 0 && s-candidate <= 65535 && binary.LittleEndian.Uint32(src[candidate:]) == cur {
			return s, candidate
		}
		s += skip >> 5
	}
	return s, -1
}

// emitLiteral appends a literal element for lit.
func emitLiteral(dst, lit []byte) []byte {
	for len(lit) > 0 {
		chunk := lit
		// One literal element can carry up to 2^32 bytes, but keep the
		// 1-4 extra-byte encodings exercised with a generous cap.
		if len(chunk) > 1<<24 {
			chunk = chunk[:1<<24]
		}
		n := len(chunk) - 1
		switch {
		case n < 60:
			dst = append(dst, byte(n)<<2|tagLiteral)
		case n < 1<<8:
			dst = append(dst, 60<<2|tagLiteral, byte(n))
		case n < 1<<16:
			dst = append(dst, 61<<2|tagLiteral, byte(n), byte(n>>8))
		default:
			dst = append(dst, 62<<2|tagLiteral, byte(n), byte(n>>8), byte(n>>16))
		}
		dst = append(dst, chunk...)
		lit = lit[len(chunk):]
	}
	return dst
}

// emitCopy appends copy elements for a match of the given length at the
// given backward offset.
func emitCopy(dst []byte, offset, length int) []byte {
	// Long matches are split into <=64-byte copies (copy2 form handles
	// any offset up to 65535; the encoder never produces larger offsets).
	for length >= 68 {
		dst = append(dst, 63<<2|tagCopy2, byte(offset), byte(offset>>8))
		length -= 64
	}
	if length > 64 {
		// Leave >=4 for the final copy.
		dst = append(dst, 59<<2|tagCopy2, byte(offset), byte(offset>>8))
		length -= 60
	}
	if length >= 12 || offset >= 2048 || length < 4 {
		dst = append(dst, byte(length-1)<<2|tagCopy2, byte(offset), byte(offset>>8))
		return dst
	}
	// copy1: 4 <= length < 12, offset < 2048.
	dst = append(dst,
		byte(offset>>8)<<5|byte(length-4)<<2|tagCopy1,
		byte(offset))
	return dst
}

// DecodedLen returns the uncompressed length recorded in a block.
func DecodedLen(src []byte) (int, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, ErrCorrupt
	}
	if v > maxBlockDecodedLen {
		return 0, ErrTooLarge
	}
	return int(v), nil
}

// Decode decompresses src, appending to dst (which may be nil).
func Decode(dst, src []byte) ([]byte, error) {
	decodedLen, err := DecodedLen(src)
	if err != nil {
		return nil, err
	}
	_, n := binary.Uvarint(src)
	src = src[n:]

	// Sized once from the header. A hostile header cannot make this
	// large: no input decodes to more than maxExpansion times its length,
	// and one that claims to fails the length check at the end.
	out := slices.Grow(dst, min(decodedLen, maxExpansion*len(src)))
	base := len(out)
	for len(src) > 0 {
		tag := src[0]
		switch tag & 3 {
		case tagLiteral:
			n := int(tag >> 2)
			src = src[1:]
			switch {
			case n < 60:
				n++
			case n == 60:
				if len(src) < 1 {
					return nil, ErrCorrupt
				}
				n = int(src[0]) + 1
				src = src[1:]
			case n == 61:
				if len(src) < 2 {
					return nil, ErrCorrupt
				}
				n = int(src[0]) | int(src[1])<<8
				n++
				src = src[2:]
			case n == 62:
				if len(src) < 3 {
					return nil, ErrCorrupt
				}
				n = int(src[0]) | int(src[1])<<8 | int(src[2])<<16
				n++
				src = src[3:]
			default: // 63
				if len(src) < 4 {
					return nil, ErrCorrupt
				}
				n = int(binary.LittleEndian.Uint32(src))
				n++
				src = src[4:]
			}
			if n < 0 || n > len(src) {
				return nil, ErrCorrupt
			}
			out = append(out, src[:n]...)
			src = src[n:]
		case tagCopy1:
			if len(src) < 2 {
				return nil, ErrCorrupt
			}
			length := 4 + int(tag>>2)&0x7
			offset := int(tag&0xe0)<<3 | int(src[1])
			src = src[2:]
			var err error
			out, err = copyBack(out, base, offset, length)
			if err != nil {
				return nil, err
			}
		case tagCopy2:
			if len(src) < 3 {
				return nil, ErrCorrupt
			}
			length := 1 + int(tag>>2)
			offset := int(src[1]) | int(src[2])<<8
			src = src[3:]
			var err error
			out, err = copyBack(out, base, offset, length)
			if err != nil {
				return nil, err
			}
		case tagCopy4:
			if len(src) < 5 {
				return nil, ErrCorrupt
			}
			length := 1 + int(tag>>2)
			offset := int(binary.LittleEndian.Uint32(src[1:]))
			src = src[5:]
			var err error
			out, err = copyBack(out, base, offset, length)
			if err != nil {
				return nil, err
			}
		}
		if len(out)-base > decodedLen {
			return nil, ErrCorrupt
		}
	}
	if len(out)-base != decodedLen {
		return nil, fmt.Errorf("%w: decoded %d bytes, header says %d",
			ErrCorrupt, len(out)-base, decodedLen)
	}
	return out, nil
}

// copyBack appends length bytes starting offset bytes before the end of
// out. A copy longer than its offset repeats the last offset bytes; it
// is appended in spans that double, each a copy of bytes already
// written, which gives the format's byte-at-a-time result.
func copyBack(out []byte, base, offset, length int) ([]byte, error) {
	if offset <= 0 || length <= 0 || offset > len(out)-base {
		return nil, ErrCorrupt
	}
	pos := len(out) - offset
	for length > offset {
		out = append(out, out[pos:pos+offset]...)
		length -= offset
		offset *= 2
	}
	return append(out, out[pos:pos+length]...), nil
}
