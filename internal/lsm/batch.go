package lsm

import (
	"encoding/binary"
	"fmt"
)

// Batch collects writes to be applied atomically. Its wire encoding (also
// the WAL record payload) is:
//
//	seq(8) count(4) { kind(1) varint(keyLen) key varint(valueLen)? value? }*
//
// Batches are how the paper's "LevelDB-style" LSMIO local store implements
// buffering and aggregation when the write-ahead log cannot be disabled
// (§3.1.2): entries accumulate in the batch and hit the engine only on a
// barrier.
//
// Ownership: Put and Delete copy key and value into the batch's buffer,
// so the caller may reuse its own slices as soon as they return. That is
// the only copy the engine makes of a value on the way in: DB.Apply hands
// the buffer itself to the memtable and leaves the batch empty, so a
// later Put or Reset on the same Batch starts a fresh buffer.
type Batch struct {
	data  []byte
	count uint32
}

const batchHeaderLen = 12

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Put queues a key/value write.
func (b *Batch) Put(key, value []byte) {
	b.appendKey(kindValue, key)
	b.data = binary.AppendUvarint(b.data, uint64(len(value)))
	// In a fresh batch this append outgrows the header-sized buffer, so
	// the value is copied exactly once, into a buffer of just its size.
	b.data = append(b.data, value...)
}

// Delete queues a deletion.
func (b *Batch) Delete(key []byte) {
	b.appendKey(kindDelete, key)
}

// appendKey starts an entry. An empty batch gets a buffer sized for the
// header, this key and a value's length.
func (b *Batch) appendKey(kind keyKind, key []byte) {
	if len(b.data) < batchHeaderLen {
		b.data = make([]byte, batchHeaderLen, batchHeaderLen+1+len(key)+2*binary.MaxVarintLen32)
	}
	b.data = append(b.data, byte(kind))
	b.data = binary.AppendUvarint(b.data, uint64(len(key)))
	b.data = append(b.data, key...)
	b.count++
}

// Count returns the number of queued operations.
func (b *Batch) Count() int { return int(b.count) }

// Size returns the encoded size in bytes.
func (b *Batch) Size() int { return max(len(b.data), batchHeaderLen) }

// Bytes returns n bytes of the encoding starting at off, valid until the
// batch is next modified or applied. The value of the most recent Put is
// the last len(value) bytes: Bytes(Size()-len(value), len(value)).
func (b *Batch) Bytes(off, n int) []byte { return b.data[off : off+n : off+n] }

// Reset empties the batch for reuse.
func (b *Batch) Reset() {
	b.data = b.data[:min(len(b.data), batchHeaderLen)]
	clear(b.data)
	b.count = 0
}

// release gives up the buffer, which now belongs to the memtable.
func (b *Batch) release() { b.data, b.count = nil, 0 }

// setSeq stamps the starting sequence number before application/logging.
func (b *Batch) setSeq(seq seqNum) {
	binary.LittleEndian.PutUint64(b.data[:8], uint64(seq))
	binary.LittleEndian.PutUint32(b.data[8:12], b.count)
}

func (b *Batch) seq() seqNum { return seqNum(binary.LittleEndian.Uint64(b.data[:8])) }

// forEach decodes the batch, calling fn for every operation with the
// operation's own sequence number. key and value are slices of the
// batch's buffer.
func (b *Batch) forEach(fn func(seq seqNum, kind keyKind, key, value []byte) error) error {
	if len(b.data) < batchHeaderLen {
		return fmt.Errorf("lsm: batch too short")
	}
	seq := b.seq()
	count := binary.LittleEndian.Uint32(b.data[8:12])
	p := b.data[batchHeaderLen:]
	for i := uint32(0); i < count; i++ {
		if len(p) < 1 {
			return fmt.Errorf("lsm: batch truncated at op %d", i)
		}
		kind := keyKind(p[0])
		p = p[1:]
		keyLen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < keyLen {
			return fmt.Errorf("lsm: batch: bad key at op %d", i)
		}
		key := p[n : n+int(keyLen)]
		p = p[n+int(keyLen):]
		var value []byte
		if kind == kindValue {
			valLen, n := binary.Uvarint(p)
			if n <= 0 || uint64(len(p)-n) < valLen {
				return fmt.Errorf("lsm: batch: bad value at op %d", i)
			}
			// Capped: the memtable keeps this slice and Get returns it, and
			// an append by that caller must not reach the next entry.
			value = p[n : n+int(valLen) : n+int(valLen)]
			p = p[n+int(valLen):]
		}
		if err := fn(seq+seqNum(i), kind, key, value); err != nil {
			return err
		}
	}
	return nil
}

// decodeBatch wraps raw WAL payload bytes as a batch for replay.
func decodeBatch(payload []byte) (*Batch, error) {
	if len(payload) < batchHeaderLen {
		return nil, fmt.Errorf("lsm: batch payload too short")
	}
	return &Batch{
		data:  payload,
		count: binary.LittleEndian.Uint32(payload[8:12]),
	}, nil
}
