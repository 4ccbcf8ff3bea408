package lsm

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// SSTable data and index blocks use the LevelDB block format: entries with
// shared-prefix key compression, restart points every N entries, and a
// trailer listing restart offsets.
//
//	entry     := varint(shared) varint(unshared) varint(valueLen)
//	             keyDelta[unshared] value[valueLen]
//	trailer   := restartOffset*uint32 ... numRestarts:uint32

// blockBuilder accumulates sorted (internalKey, value) entries.
type blockBuilder struct {
	restartInterval int
	buf             []byte
	nextCap         int // capacity of the buffer add makes after a take
	restarts        []uint32
	counter         int
	lastKey         []byte
	entries         int
}

func newBlockBuilder(restartInterval int) *blockBuilder {
	b := &blockBuilder{restartInterval: restartInterval}
	b.reset()
	return b
}

func (b *blockBuilder) reset() {
	b.buf = b.buf[:0]
	b.restarts = b.restarts[:0]
	b.restarts = append(b.restarts, 0)
	b.counter = 0
	b.lastKey = b.lastKey[:0]
	b.entries = 0
}

func (b *blockBuilder) empty() bool { return b.entries == 0 }

// estimatedSize returns the built block size so far.
func (b *blockBuilder) estimatedSize() int {
	return len(b.buf) + 4*len(b.restarts) + 4
}

func (b *blockBuilder) add(key, value []byte) {
	if cap(b.buf) == 0 {
		b.buf = make([]byte, 0, b.nextCap)
	}
	b.addHeader(key, len(value))
	b.buf = append(b.buf, value...)
}

// addHeader appends everything of an entry but its value, which the
// caller puts right behind it: into buf (add) or, for a value too large
// to be worth copying, straight into the file after buf's bytes.
func (b *blockBuilder) addHeader(key []byte, valueLen int) {
	shared := 0
	if b.counter < b.restartInterval {
		n := len(b.lastKey)
		if len(key) < n {
			n = len(key)
		}
		for shared < n && b.lastKey[shared] == key[shared] {
			shared++
		}
	} else {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
		b.counter = 0
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)-shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(valueLen))
	b.buf = append(b.buf, key[shared:]...)
	b.lastKey = append(b.lastKey[:0], key...)
	b.counter++
	b.entries++
}

// finish appends the restart trailer and returns the raw block contents,
// with room behind them for the block trailer encodeBlock adds. The
// slice is the builder's own buffer: it is valid until the next reset.
func (b *blockBuilder) finish() []byte {
	b.buf = slices.Grow(b.buf, 4*len(b.restarts)+4+blockTrailerLen)
	for _, r := range b.restarts {
		b.buf = binary.LittleEndian.AppendUint32(b.buf, r)
	}
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(len(b.restarts)))
	return b.buf
}

// take is finish for a block that outlives the builder's next reset: the
// buffer is handed to the caller, and the builder makes itself another
// when the next value is copied in (add). That one is sized by this
// block if it is a guide to the next, which a block that filled up is —
// blocks of one table are about as big as each other — and a block cut
// short by a value written from elsewhere is not: it can be as little as
// that entry's header, and a run of such blocks needs no buffer at all.
func (b *blockBuilder) take(guide bool) []byte {
	raw := b.finish()
	if guide {
		// By the last such block, not by the largest ever.
		b.nextCap = min(cap(raw), 2*len(raw))
	}
	b.buf = nil
	return raw
}

// block is a parsed read-only block.
type block struct {
	data        []byte // entries only (trailer stripped)
	restarts    []uint32
	numRestarts int
}

func parseBlock(raw []byte) (*block, error) {
	restartStart, ok := entriesLen(raw)
	if !ok {
		return nil, fmt.Errorf("lsm: corrupt block trailer (%d bytes)", len(raw))
	}
	numRestarts := int(binary.LittleEndian.Uint32(raw[len(raw)-4:]))
	restarts := make([]uint32, numRestarts)
	for i := 0; i < numRestarts; i++ {
		restarts[i] = binary.LittleEndian.Uint32(raw[restartStart+4*i:])
	}
	return &block{data: raw[:restartStart], restarts: restarts, numRestarts: numRestarts}, nil
}

// entriesLen returns the length of raw's entries region: where its
// restart trailer starts, by the restart count in its last 4 bytes. ok
// is false when raw is too short for the trailer that count describes.
func entriesLen(raw []byte) (n int, ok bool) {
	if len(raw) < 4 {
		return 0, false
	}
	trailer := 4 * (uint64(binary.LittleEndian.Uint32(raw[len(raw)-4:])) + 1)
	if trailer > uint64(len(raw)) {
		return 0, false
	}
	return len(raw) - int(trailer), true
}

// blockIterator walks a block's entries in order.
type blockIterator struct {
	b     *block
	start int // offset of the current entry
	off   int // offset of the NEXT entry to decode
	key   []byte
	value []byte
	valid bool
	err   error
}

func (b *block) iterator() *blockIterator { return &blockIterator{b: b} }

// decodeNext parses the entry at it.off, extending it.key per prefix
// compression rules.
func (it *blockIterator) decodeNext() bool {
	if it.off >= len(it.b.data) {
		it.valid = false
		return false
	}
	it.start = it.off
	data := it.b.data[it.off:]
	shared, n1 := binary.Uvarint(data)
	if n1 <= 0 {
		it.fail("bad shared varint")
		return false
	}
	unshared, n2 := binary.Uvarint(data[n1:])
	if n2 <= 0 {
		it.fail("bad unshared varint")
		return false
	}
	valueLen, n3 := binary.Uvarint(data[n1+n2:])
	if n3 <= 0 {
		it.fail("bad value-length varint")
		return false
	}
	hdr := n1 + n2 + n3
	if uint64(len(data)) < uint64(hdr)+unshared+valueLen {
		it.fail("entry overruns block")
		return false
	}
	if uint64(shared) > uint64(len(it.key)) {
		it.fail("shared prefix longer than previous key")
		return false
	}
	it.key = append(it.key[:shared], data[hdr:hdr+int(unshared)]...)
	if len(it.key) < 8 {
		// Every valid entry carries an 8-byte internal-key trailer; a
		// shorter key means the block is corrupt (and would panic the
		// comparator).
		it.fail("key shorter than internal trailer")
		return false
	}
	it.value = data[hdr+int(unshared) : hdr+int(unshared)+int(valueLen)]
	it.off += hdr + int(unshared) + int(valueLen)
	it.valid = true
	return true
}

func (it *blockIterator) fail(msg string) {
	it.err = fmt.Errorf("lsm: corrupt block: %s", msg)
	it.valid = false
}

func (it *blockIterator) SeekToFirst() {
	it.off = 0
	it.key = it.key[:0]
	it.decodeNext()
}

// Seek positions at the first entry with internal key >= target.
func (it *blockIterator) Seek(target internalKey) {
	// Binary search restart points for the last restart whose key < target.
	n := it.b.numRestarts
	idx := sort.Search(n, func(i int) bool {
		k, ok := it.b.keyAtRestart(int(it.b.restarts[i]))
		if !ok || len(k) < 8 {
			return true
		}
		return compareIKeys(internalKey(k), target) >= 0
	})
	// Start from the restart before idx (entries there may still be < target).
	start := 0
	if idx > 0 {
		start = int(it.b.restarts[idx-1])
	}
	it.off = start
	it.key = it.key[:0]
	for it.decodeNext() {
		if compareIKeys(internalKey(it.key), target) >= 0 {
			return
		}
	}
}

// keyAtRestart decodes the full key stored at a restart offset (restart
// entries always have shared == 0).
func (b *block) keyAtRestart(off int) ([]byte, bool) {
	if off >= len(b.data) {
		return nil, false
	}
	data := b.data[off:]
	shared, n1 := binary.Uvarint(data)
	if n1 <= 0 || shared != 0 {
		return nil, false
	}
	unshared, n2 := binary.Uvarint(data[n1:])
	if n2 <= 0 {
		return nil, false
	}
	_, n3 := binary.Uvarint(data[n1+n2:])
	if n3 <= 0 {
		return nil, false
	}
	hdr := n1 + n2 + n3
	if uint64(len(data)) < uint64(hdr)+unshared {
		return nil, false
	}
	return data[hdr : hdr+int(unshared)], true
}

func (it *blockIterator) Next() {
	if it.valid {
		it.decodeNext()
	}
}

func (it *blockIterator) Valid() bool       { return it.valid }
func (it *blockIterator) IKey() internalKey { return internalKey(it.key) }
func (it *blockIterator) Value() []byte     { return it.value }
func (it *blockIterator) Close() error      { return it.err }
