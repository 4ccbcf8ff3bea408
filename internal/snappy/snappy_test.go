package snappy

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	enc := Encode(nil, src)
	dec, err := Decode(nil, enc)
	if err != nil {
		t.Fatalf("decode(%d bytes): %v", len(src), err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("round trip mismatch: %d bytes in, %d out", len(src), len(dec))
	}
	return enc
}

func TestRoundTripBasics(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("abcabcabcabc"),
		[]byte(strings.Repeat("lsmio ", 1000)),
		bytes.Repeat([]byte{0}, 100000),
		[]byte("short no-match text!"),
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

func TestCompressesRepetitiveData(t *testing.T) {
	src := bytes.Repeat([]byte("checkpoint data block "), 5000)
	enc := roundTrip(t, src)
	if len(enc) > len(src)/10 {
		t.Fatalf("repetitive data: %d -> %d (poor ratio)", len(src), len(enc))
	}
}

func TestIncompressibleDataNearPassthrough(t *testing.T) {
	src := make([]byte, 1<<16)
	rand.New(rand.NewSource(1)).Read(src)
	enc := roundTrip(t, src)
	if len(enc) > MaxEncodedLen(len(src)) {
		t.Fatalf("encoded %d exceeds MaxEncodedLen %d", len(enc), MaxEncodedLen(len(src)))
	}
	if len(enc) > len(src)+len(src)/8 {
		t.Fatalf("incompressible blow-up: %d -> %d", len(src), len(enc))
	}
}

func TestQuickRoundTrip(t *testing.T) {
	fn := func(src []byte) bool {
		enc := Encode(nil, src)
		dec, err := Decode(nil, enc)
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStructuredRoundTrip(t *testing.T) {
	// Structured inputs exercise the match path harder than random bytes.
	rng := rand.New(rand.NewSource(77))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for i := 0; i < 300; i++ {
		var b strings.Builder
		n := rng.Intn(5000)
		for b.Len() < n {
			b.WriteString(words[rng.Intn(len(words))])
			if rng.Intn(4) == 0 {
				b.WriteByte(byte(rng.Intn(256)))
			}
		}
		roundTrip(t, []byte(b.String()))
	}
}

func TestDecodeGarbageNeverPanics(t *testing.T) {
	fn := func(src []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Decode panicked on %x: %v", src, r)
			}
		}()
		_, _ = Decode(nil, src)
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 800}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	src := []byte(strings.Repeat("truncation test data ", 200))
	enc := Encode(nil, src)
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := Decode(nil, enc[:cut]); err == nil && cut < len(enc) {
			// Only the full stream may decode cleanly... a prefix could
			// coincidentally be valid only if it decodes to exactly the
			// header length, which the length check rejects.
			t.Fatalf("truncated stream at %d decoded without error", cut)
		}
	}
}

func TestDecodeBadOffsets(t *testing.T) {
	// Hand-built: header says 4 bytes, a copy references data before the
	// start.
	bad := []byte{4, tagCopy1 | 0<<2, 0xFF} // length 4, offset 255 with empty history
	if _, err := Decode(nil, bad); err == nil {
		t.Fatal("copy before start of output should fail")
	}
	// Literal longer than remaining input.
	bad2 := []byte{10, 9 << 2, 'a', 'b'} // claims 10-byte literal, 2 present
	if _, err := Decode(nil, bad2); err == nil {
		t.Fatal("overlong literal should fail")
	}
}

func TestDecodedLen(t *testing.T) {
	enc := Encode(nil, make([]byte, 12345))
	n, err := DecodedLen(enc)
	if err != nil || n != 12345 {
		t.Fatalf("DecodedLen = %d, %v", n, err)
	}
	if _, err := DecodedLen(nil); err == nil {
		t.Fatal("empty input should fail")
	}
}

func TestOverlappingCopy(t *testing.T) {
	// "ababab..." style output requires overlapping copy semantics.
	src := append([]byte("ab"), bytes.Repeat([]byte("ab"), 500)...)
	roundTrip(t, src)
	// RLE-like single-byte period.
	roundTrip(t, bytes.Repeat([]byte{'x'}, 3000))
}

func TestAppendToExistingDst(t *testing.T) {
	prefix := []byte("existing-")
	src := []byte(strings.Repeat("payload ", 100))
	enc := Encode([]byte("E:"), src)
	if !bytes.HasPrefix(enc, []byte("E:")) {
		t.Fatal("Encode must append to dst")
	}
	dec, err := Decode(prefix, enc[2:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(dec, prefix) || !bytes.Equal(dec[len(prefix):], src) {
		t.Fatal("Decode must append to dst")
	}
}

// Into a nil dst, both directions size their output once instead of
// growing it by doubling; a header that promises far more than the input
// can expand to must not get that much memory.
func TestNilDstIsSizedOnce(t *testing.T) {
	src := []byte(strings.Repeat("checkpoint block ", 4096/17))
	enc := Encode(nil, src)
	if n := testing.AllocsPerRun(20, func() { Encode(nil, src) }); n > 2 {
		t.Errorf("Encode(nil, …) allocates %v times, want 1 (2 under -race)", n)
	}
	if n := testing.AllocsPerRun(20, func() { Decode(nil, enc) }); n > 2 {
		t.Errorf("Decode(nil, …) allocates %v times, want 1 (2 under -race)", n)
	}
	hostile := append(binary.AppendUvarint(nil, maxBlockDecodedLen), 0, 'x')
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(nil, hostile)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("hostile header decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4096 {
		t.Errorf("hostile header made Decode allocate %d bytes for %d bytes of input", got, len(hostile))
	}
}

// encodeReference is the encoder as it was before the pooled table and
// the word-at-a-time match extension (it shares the element emitters,
// which did not change): the bytes Encode emits are pinned to it.
func encodeReference(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}
	if len(src) < 16 {
		return emitLiteral(dst, src)
	}
	const tableBits = 14
	var table [1 << tableBits]int32
	for i := range table {
		table[i] = -1
	}
	hash := func(u uint32) uint32 {
		return (u * 0x1e35a7bd) >> (32 - tableBits)
	}
	load32 := func(i int) uint32 {
		return binary.LittleEndian.Uint32(src[i:])
	}
	var litStart int
	s := 0
	limit := len(src) - 4
	for s <= limit {
		h := hash(load32(s))
		candidate := table[h]
		table[h] = int32(s)
		if candidate >= 0 && s-int(candidate) <= 65535 && load32(int(candidate)) == load32(s) {
			dst = emitLiteral(dst, src[litStart:s])
			base := s
			matched := 4
			s += 4
			c := int(candidate) + 4
			for s < len(src) && c < len(src) && src[s] == src[c] {
				s++
				c++
				matched++
			}
			dst = emitCopy(dst, base-int(candidate), matched)
			litStart = s
			continue
		}
		s++
	}
	return emitLiteral(dst, src[litStart:])
}

// engineBlock is a 4 KiB block as the engine compresses it on the
// benchmark's compressible payload: every 64 random bytes are followed
// by a copy of themselves.
func engineBlock(rng *rand.Rand) []byte {
	b := make([]byte, 4<<10)
	for off := 0; off < len(b); off += 128 {
		rng.Read(b[off : off+64])
		copy(b[off+64:], b[off:off+64])
	}
	return b
}

// differentialCorpus is a seeded set of inputs covering what the engine
// compresses and the encoder's edge cases.
func differentialCorpus() [][]byte {
	rng := rand.New(rand.NewSource(28))
	var corpus [][]byte
	for i := 0; i < 64; i++ {
		corpus = append(corpus, engineBlock(rng))
	}
	for _, n := range []int{16, 100, 4 << 10, 70 << 10} {
		b := make([]byte, n)
		rng.Read(b)
		corpus = append(corpus, b)
	}
	for _, n := range []int{20, 4 << 10, 100 << 10} {
		corpus = append(corpus, bytes.Repeat([]byte{byte(n)}, n))
	}
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for i := 0; i < 100; i++ {
		var b []byte
		n := rng.Intn(20000)
		for len(b) < n {
			b = append(b, words[rng.Intn(len(words))]...)
			if rng.Intn(4) == 0 {
				b = append(b, byte(rng.Intn(256)))
			}
		}
		corpus = append(corpus, b)
	}
	for n := 0; n <= 17; n++ {
		b := make([]byte, n)
		rng.Read(b)
		corpus = append(corpus, b, bytes.Repeat([]byte{'a'}, n))
	}
	// Larger than 64 KiB with long-range repeats: a candidate beyond the
	// 65535-byte offset limit must be passed over.
	far := make([]byte, 200<<10)
	rng.Read(far[:1<<10])
	for off := 1 << 10; off < len(far); off += 1 << 10 {
		if rng.Intn(3) == 0 {
			rng.Read(far[off : off+1<<10])
		} else {
			src := rng.Intn(off/(1<<10)) << 10
			copy(far[off:off+1<<10], far[src:src+1<<10])
		}
	}
	return append(corpus, far)
}

func TestEncodeMatchesReference(t *testing.T) {
	for i, src := range differentialCorpus() {
		want := encodeReference(nil, src)
		if got := Encode(nil, src); !bytes.Equal(got, want) {
			t.Fatalf("input %d (%d bytes): Encode emitted %d bytes, the reference %d", i, len(src), len(got), len(want))
		}
		roundTrip(t, src)
	}
}

// A table whose base is about to overflow is cleared and restarts; the
// entries of the calls before the wrap must not be taken for positions
// of the calls after it.
func TestEncodeAcrossTableWrap(t *testing.T) {
	corpus := differentialCorpus()
	tab := &encTable{base: math.MaxInt32 - 3*(4<<10)}
	wrapped := false
	for i, src := range corpus {
		if len(src) < 16 {
			continue
		}
		before := tab.base
		want := encodeReference(nil, src)
		got := tab.encode(binary.AppendUvarint(nil, uint64(len(src))), src)
		if !bytes.Equal(got, want) {
			t.Fatalf("input %d (%d bytes) at base %d: encode differs from the reference", i, len(src), before)
		}
		wrapped = wrapped || tab.base < before
	}
	if !wrapped {
		t.Fatal("the corpus never wrapped the table's base")
	}
}

func FuzzSnappyEncode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	f.Add(engineBlock(rng))
	f.Add([]byte(strings.Repeat("checkpoint ", 50)))
	f.Add([]byte("0123456789abcdef"))
	f.Fuzz(func(t *testing.T, src []byte) {
		enc := Encode(nil, src)
		if want := encodeReference(nil, src); !bytes.Equal(enc, want) {
			t.Fatalf("Encode differs from the reference on %d bytes", len(src))
		}
		dec, err := Decode(nil, enc)
		if err != nil || !bytes.Equal(dec, src) {
			t.Fatalf("round trip of %d bytes: %v", len(src), err)
		}
	})
}

// Once the pool holds a table, encoding into a dst with room allocates
// nothing.
func TestEncodeDoesNotAllocate(t *testing.T) {
	src := engineBlock(rand.New(rand.NewSource(3)))
	dst := make([]byte, 0, MaxEncodedLen(len(src)))
	Encode(dst, src)
	if n := testing.AllocsPerRun(100, func() { Encode(dst[:0], src) }); n != 0 {
		t.Errorf("Encode into a sized dst allocates %v times per call, want 0", n)
	}
}

// Overlapping copies (offset < length) decode to what the format's
// byte-at-a-time definition gives.
func TestDecodeOverlappingCopies(t *testing.T) {
	prefix := []byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ!?")
	for _, offset := range []int{1, 2, 3, 7, 63} {
		for length := 1; length <= 64; length++ {
			enc := binary.AppendUvarint(nil, uint64(len(prefix)+length))
			enc = emitLiteral(enc, prefix)
			enc = append(enc, byte(length-1)<<2|tagCopy2, byte(offset), byte(offset>>8))
			want := append([]byte(nil), prefix...)
			for i := 0; i < length; i++ {
				want = append(want, want[len(want)-offset])
			}
			got, err := Decode(nil, enc)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("offset %d length %d: got %q, %v; want %q", offset, length, got[len(prefix):], err, want[len(prefix):])
			}
		}
	}
}

// benchInputs are the encoder benchmarks' inputs: the 4 KiB blocks the
// engine compresses on a compressible and on an incompressible payload,
// and a long repetitive text.
func benchInputs() []struct {
	name string
	src  []byte
} {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 4<<10)
	rng.Read(random)
	return []struct {
		name string
		src  []byte
	}{
		{"4KiB-compressible", engineBlock(rng)},
		{"4KiB-incompressible", random},
		{"300KB-repetitive", bytes.Repeat([]byte("checkpoint field data 3.14159 "), 10000)},
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, in := range benchInputs() {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.src)))
			var dst []byte
			for i := 0; i < b.N; i++ {
				dst = Encode(dst[:0], in.src)
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, in := range benchInputs() {
		b.Run(in.name, func(b *testing.B) {
			enc := Encode(nil, in.src)
			b.SetBytes(int64(len(in.src)))
			var dst []byte
			for i := 0; i < b.N; i++ {
				var err error
				dst, err = Decode(dst[:0], enc)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
