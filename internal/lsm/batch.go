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
//
// A value put with PutCRC carries its CRC-32C out of band, in sums: not
// in the wire encoding, so the WAL never sees it and replay has none.
type Batch struct {
	data  []byte
	count uint32
	sums  []opSum
	// one holds the first sum, so a batch of one put (DB.PutCRC)
	// allocates nothing for it.
	one [1]opSum
}

// opSum is the CRC-32C a caller gave for the value of the batch's
// op-th operation.
type opSum struct{ op, crc uint32 }

// valueSum is an optional CRC-32C of some bytes: noSum when there is
// none. A memtable entry has its value's when its writer supplied one,
// which the table builder folds into the checksum of a block that holds
// the value raw (encodeBlock) instead of reading the value again. A read
// has a raw block's entries' from the block check (readRawBlock), from
// which a get derives its value's (tableReader.get).
type valueSum uint64

const noSum valueSum = 0

func sumOf(crc uint32) valueSum { return valueSum(crc) | 1<<32 }

// crc returns the value's CRC-32C and whether there is one.
func (s valueSum) crc() (uint32, bool) { return uint32(s), s != noSum }

const batchHeaderLen = 12

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Put queues a key/value write.
func (b *Batch) Put(key, value []byte) { b.put(key, value, noSum) }

// PutCRC is Put for a caller that has checksummed the value: crc must be
// its CRC-32C (crc32.Castagnoli). A table block that holds the value raw
// gets its checksum from crc instead of from a pass over the value, so a
// crc that is not the value's makes the block read back as
// ErrCorruption.
func (b *Batch) PutCRC(key, value []byte, crc uint32) { b.put(key, value, sumOf(crc)) }

func (b *Batch) put(key, value []byte, sum valueSum) {
	if crc, ok := sum.crc(); ok {
		if b.sums == nil {
			b.sums = b.one[:0]
		}
		b.sums = append(b.sums, opSum{op: b.count, crc: crc})
	}
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
	b.count, b.sums = 0, b.sums[:0]
}

// release gives up the buffer, which now belongs to the memtable. The
// sums were copied into its entries, so their slice stays for reuse.
func (b *Batch) release() { b.data, b.count, b.sums = nil, 0, b.sums[:0] }

// setSeq stamps the starting sequence number before application/logging.
func (b *Batch) setSeq(seq seqNum) {
	binary.LittleEndian.PutUint64(b.data[:8], uint64(seq))
	binary.LittleEndian.PutUint32(b.data[8:12], b.count)
}

func (b *Batch) seq() seqNum { return seqNum(binary.LittleEndian.Uint64(b.data[:8])) }

// forEach decodes the batch, calling fn for every operation with the
// operation's own sequence number and its value's sum. key and value
// are slices of the batch's buffer.
func (b *Batch) forEach(fn func(seq seqNum, kind keyKind, key, value []byte, sum valueSum) error) error {
	if len(b.data) < batchHeaderLen {
		return fmt.Errorf("lsm: batch too short")
	}
	seq := b.seq()
	count := binary.LittleEndian.Uint32(b.data[8:12])
	p := b.data[batchHeaderLen:]
	sums := b.sums
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
		sum := noSum
		if kind == kindValue {
			valLen, n := binary.Uvarint(p)
			if n <= 0 || uint64(len(p)-n) < valLen {
				return fmt.Errorf("lsm: batch: bad value at op %d", i)
			}
			// Capped: the memtable keeps this slice and Get returns it, and
			// an append by that caller must not reach the next entry.
			value = p[n : n+int(valLen) : n+int(valLen)]
			p = p[n+int(valLen):]
			if len(sums) > 0 && sums[0].op == i {
				sum, sums = sumOf(sums[0].crc), sums[1:]
			}
		}
		if err := fn(seq+seqNum(i), kind, key, value, sum); err != nil {
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
