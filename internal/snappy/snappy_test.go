package snappy

import (
	"bytes"
	"encoding/binary"
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

func BenchmarkEncode(b *testing.B) {
	src := bytes.Repeat([]byte("checkpoint field data 3.14159 "), 10000)
	b.SetBytes(int64(len(src)))
	var dst []byte
	for i := 0; i < b.N; i++ {
		dst = Encode(dst[:0], src)
	}
}

func BenchmarkDecode(b *testing.B) {
	src := bytes.Repeat([]byte("checkpoint field data 3.14159 "), 10000)
	enc := Encode(nil, src)
	b.SetBytes(int64(len(src)))
	var dst []byte
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = Decode(dst[:0], enc)
		if err != nil {
			b.Fatal(err)
		}
	}
}
