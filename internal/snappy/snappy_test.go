package snappy

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
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

// encodeReference is the encoder with a fixed 16 K-entry table that
// looks up every position (it shares the element emitters, which did not
// change). Tables written before the encoder sized its table to the input
// and skipped over incompressible stretches hold its bytes, so it serves
// as a producer of test vectors for the decoder and as the yardstick for
// Encode's output size.
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

// engineBlock is an n-byte block (a multiple of 128) as the engine
// compresses it on the benchmark's compressible payload: every 64 random
// bytes are followed by a copy of themselves. Small values share 4 KiB
// blocks; a value of at least 4 KiB is a block of its own size.
func engineBlock(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for off := 0; off < len(b); off += 128 {
		rng.Read(b[off : off+64])
		copy(b[off+64:], b[off:off+64])
	}
	return b
}

// mixedBlock is an n-byte block whose first half is random bytes and
// whose second half is text: the lookup step has grown long by the time
// the compressible half starts.
func mixedBlock(rng *rand.Rand, n int) []byte {
	words := []string{"checkpoint ", "step ", "rank ", "tensor ", "layer ", "optimizer ", "state ", "shard "}
	b := make([]byte, n/2, n)
	rng.Read(b)
	for len(b) < n {
		b = append(b, words[rng.Intn(len(words))]...)
		if rng.Intn(8) == 0 {
			b = strconv.AppendInt(b, rng.Int63n(1e6), 10)
		}
	}
	return b[:n]
}

// corpus is a seeded set of inputs covering what the engine compresses
// and the encoder's edge cases.
func corpus() [][]byte {
	rng := rand.New(rand.NewSource(28))
	var corpus [][]byte
	for i := 0; i < 64; i++ {
		corpus = append(corpus, engineBlock(rng, 4<<10))
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
	corpus = append(corpus, far)
	// Values of at least a block are blocks of their own size.
	for _, n := range []int{16 << 10, 33 << 10, 64 << 10} {
		corpus = append(corpus, engineBlock(rng, n))
	}
	return append(corpus, mixedBlock(rng, 64<<10))
}

// sizeWithinReference reports whether an encoding of n bytes is at most
// 1% + 16 bytes longer than the reference's encoding of ref bytes: the
// compression ratio that a lookup step longer than one byte may give up.
// The corpus's worst case is the 64 KiB block that turns from random to
// text halfway (+0.77%): its text starts with a step of some 46 bytes,
// and positions not looked up are not in the table to be matched later.
// Storing the positions just before a copy's end does not help there
// (the one before the end: +0.77%; the two before it: the same): the
// loss is in the search, not after copies.
func sizeWithinReference(n, ref int) bool {
	return n <= ref+ref/100+16
}

// On the corpus, Encode's output decodes to its input and is hardly
// longer than the reference's, which decodes too (blocks of existing
// tables).
func TestEncodeSizeWithinReference(t *testing.T) {
	var got, want, worst int
	worstPct := math.Inf(-1)
	for i, src := range corpus() {
		ref := encodeReference(nil, src)
		if dec, err := Decode(nil, ref); err != nil || !bytes.Equal(dec, src) {
			t.Fatalf("input %d (%d bytes): the reference's encoding does not decode: %v", i, len(src), err)
		}
		enc := roundTrip(t, src)
		if !sizeWithinReference(len(enc), len(ref)) {
			t.Errorf("input %d (%d bytes): Encode emitted %d bytes, the reference %d", i, len(src), len(enc), len(ref))
		}
		got += len(enc)
		want += len(ref)
		if pct := 100 * float64(len(enc)-len(ref)) / float64(len(ref)); pct > worstPct {
			worst, worstPct = i, pct
		}
	}
	t.Logf("corpus: Encode %d bytes, the reference %d (%+.3f%%); worst input %d (%+.3f%%)",
		got, want, 100*float64(got-want)/float64(want), worst, worstPct)
}

// A call leaves entries in the kept table, of whatever size its input
// gave it, that the next call must not take for its own; and a table
// whose base is about to overflow is cleared and restarts, where the
// entries of the calls before the wrap must not be taken for positions
// of the calls after it. Either way each input encodes as with a cleared
// table.
func TestEncodeAcrossTableWrap(t *testing.T) {
	tab := &encTable{base: math.MaxInt32 - 3*(4<<10)}
	fresh := new(encTable)
	wrapped := false
	for i, src := range corpus() {
		if len(src) < 16 {
			continue
		}
		before := tab.base
		clear(fresh.pos[:])
		fresh.base = 1
		want := fresh.encode(nil, src)
		if got := tab.encode(nil, src); !bytes.Equal(got, want) {
			t.Fatalf("input %d (%d bytes) at base %d: encode differs from a cleared table's", i, len(src), before)
		}
		wrapped = wrapped || tab.base < before
	}
	if !wrapped {
		t.Fatal("the corpus never wrapped the table's base")
	}
}

// Both encoders' output decodes to the input, and Encode's fits in
// MaxEncodedLen, the room Encode reserves. The bound against the
// reference is not checked here: it holds on what the engine compresses,
// not on every input. A repeat shorter than the step can be missed when
// its first occurrence was stepped over too, and the fuzzer builds such
// inputs within seconds (136 bytes: 140 encoded, the reference 122).
// Nor does it hold on inputs of 4 KiB or more: mixedBlock, random then
// text, encodes up to 6.1% longer than the reference at 4 KiB, 3.6% at
// 8 KiB and 4.3% at 16 KiB (worst of seeds 1–20).
func FuzzSnappyEncode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	f.Add(engineBlock(rng, 4<<10))
	f.Add([]byte(strings.Repeat("checkpoint ", 50)))
	f.Add([]byte("0123456789abcdef"))
	f.Fuzz(func(t *testing.T, src []byte) {
		ref := encodeReference(nil, src)
		if dec, err := Decode(nil, ref); err != nil || !bytes.Equal(dec, src) {
			t.Fatalf("the reference's encoding of %d bytes does not decode: %v", len(src), err)
		}
		enc := Encode(nil, src)
		dec, err := Decode(nil, enc)
		if err != nil || !bytes.Equal(dec, src) {
			t.Fatalf("round trip of %d bytes: %v", len(src), err)
		}
		if len(enc) > MaxEncodedLen(len(src)) {
			t.Fatalf("Encode emitted %d bytes for %d, more than MaxEncodedLen %d", len(enc), len(src), MaxEncodedLen(len(src)))
		}
	})
}

// Encoders running at once each get a table of their own, kept or, past
// the kept ones, built for the call, so each emits what it emits alone.
func TestEncodeConcurrently(t *testing.T) {
	inputs := corpus()
	want := make([][]byte, len(inputs))
	for i, src := range inputs {
		want[i] = Encode(nil, src)
	}
	var wg sync.WaitGroup
	for g := 0; g < max(16, 2*cap(tables)); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(inputs); i += 3 {
				if got := Encode(nil, inputs[i]); !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d, input %d: output differs from a lone encoder's", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Once a table is kept, encoding into a dst with room allocates
// nothing, whatever size of table the input takes.
func TestEncodeDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4 << 10, 64 << 10} {
		src := engineBlock(rng, n)
		dst := make([]byte, 0, MaxEncodedLen(len(src)))
		Encode(dst, src)
		if allocs := testing.AllocsPerRun(100, func() { Encode(dst[:0], src) }); allocs != 0 {
			t.Errorf("Encode of %d bytes into a sized dst allocates %v times per call, want 0", n, allocs)
		}
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

// benchInputs are the codec benchmarks' inputs: the blocks the engine
// compresses on a compressible payload, 4 KiB ones of small values and
// value-sized ones, a 4 KiB block of an incompressible payload, a block
// that turns compressible halfway, and a long repetitive text.
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
		{"4KiB-compressible", engineBlock(rng, 4<<10)},
		{"4KiB-incompressible", random},
		{"16KiB-compressible", engineBlock(rng, 16<<10)},
		{"32KiB-compressible", engineBlock(rng, 32<<10)},
		{"64KiB-compressible", engineBlock(rng, 64<<10)},
		{"64KiB-random-then-text", mixedBlock(rng, 64<<10)},
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
