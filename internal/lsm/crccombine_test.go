package lsm

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// checkCombine compares crcCombine against one checksum over a ++ b,
// both ways: joining the sums of a and b, and splitting b's sum off the
// sum of a ++ b, as a read does to take a value's sum out of its block's
// (tableReader.get).
func checkCombine(t testing.TB, a, b []byte) {
	t.Helper()
	crcA, crcB := crc32.Checksum(a, crcTable), crc32.Checksum(b, crcTable)
	whole := crc32.Update(crcA, crcTable, b)
	if got := crcCombine(crcA, crcB, int64(len(b))); got != whole {
		t.Fatalf("crcCombine over %d ++ %d bytes = %#08x, want %#08x", len(a), len(b), got, whole)
	}
	if got := whole ^ crcCombine(crcA, 0, int64(len(b))); got != crcB {
		t.Fatalf("split of %d ++ %d bytes = %#08x, want %#08x", len(a), len(b), got, crcB)
	}
}

// TestCRCCombine: the combined sum of two pieces is the sum of their
// concatenation, and the second piece's sum splits back off it, for
// empty pieces on either side and for second pieces from one byte up to
// 2^25 (every power of two, and its neighbours, so that every bit of the
// length is exercised set and clear).
func TestCRCCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 300+1<<25+1)
	rng.Read(buf)
	checkCombine(t, nil, nil)
	checkCombine(t, buf[:5000], nil)
	checkCombine(t, nil, buf[:5000])
	for k := 0; k <= 25; k++ {
		for _, n := range []int{1<<k - 1, 1 << k, 1<<k + 1} {
			a := buf[:rng.Intn(300)]
			checkCombine(t, a, buf[len(a):len(a)+n])
		}
	}
	for i := 0; i < 200; i++ {
		a := buf[:rng.Intn(1<<16)]
		checkCombine(t, a, buf[len(a):len(a)+rng.Intn(1<<16)])
	}
}

// FuzzCRCCombine splits arbitrary bytes at an arbitrary point and checks
// the combined sum of the halves against the sum of the whole, and the
// second half's sum split off the whole's against its own.
func FuzzCRCCombine(f *testing.F) {
	f.Add([]byte(""), uint(0))
	f.Add([]byte("123456789"), uint(4))
	f.Add(make([]byte, 4096), uint(17))
	f.Fuzz(func(t *testing.T, data []byte, split uint) {
		i := int(split % uint(len(data)+1))
		checkCombine(t, data[:i], data[i:])
	})
}
