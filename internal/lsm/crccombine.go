package lsm

import "hash/crc32"

// crcCombine returns the CRC-32C of a ++ b from crcA = CRC-32C(a),
// crcB = CRC-32C(b) and lenB = len(b), without reading either: zlib's
// crc32_combine. A block whose value a caller has already checksummed
// (valueSum) is checksummed from its head, that sum and its tail, so the
// value is not read a second time; and a read takes a value's sum out
// of its block's the same way (tableReader.get).
//
// CRC-32C(a ++ b) = CRC-32C(a)·x^(8·lenB) + CRC-32C(b) over GF(2)
// modulo the Castagnoli polynomial: the pre- and post-inversions of the
// two sums cancel, as they do for any two CRCs of the same parameters.
func crcCombine(crcA, crcB uint32, lenB int64) uint32 {
	return multModP(x8nModP(lenB), crcA) ^ crcB
}

// multModP multiplies a and b modulo the polynomial, both in the
// reflected bit order the CRC uses (x^0 is the top bit).
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				break
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.Castagnoli
		} else {
			b >>= 1
		}
	}
	return p
}

// x8nModP returns x^(8·n) modulo the polynomial: the factor that shifts
// a CRC past n zero bytes. It multiplies x^(2^k) in for every set bit k
// of 8·n, squaring its way from x^8 up.
func x8nModP(n int64) uint32 {
	p := uint32(1) << 31  // x^0
	sq := uint32(1) << 30 // x^1
	for range 3 {
		sq = multModP(sq, sq)
	}
	for ; n != 0; n >>= 1 {
		if n&1 != 0 {
			p = multModP(sq, p)
		}
		sq = multModP(sq, sq)
	}
	return p
}
