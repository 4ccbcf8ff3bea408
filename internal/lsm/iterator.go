package lsm

import (
	"bytes"
	"container/heap"
)

// internalIterator is the contract shared by memtable, block and table
// iterators: forward iteration over (internalKey, value) pairs in
// internal-key order.
type internalIterator interface {
	SeekToFirst()
	Seek(ik internalKey)
	Next()
	Valid() bool
	IKey() internalKey
	Value() []byte
	Close() error
}

// mergingIterator merges several sorted internal iterators, the read-side
// merge-sort the LSM paper describes for reads spanning C0 and C1..Ck.
type mergingIterator struct {
	children []internalIterator
	h        iterHeap
	inited   bool
}

func newMergingIterator(children []internalIterator) *mergingIterator {
	return &mergingIterator{children: children}
}

type iterHeap []internalIterator

func (h iterHeap) Len() int           { return len(h) }
func (h iterHeap) Less(i, j int) bool { return compareIKeys(h[i].IKey(), h[j].IKey()) < 0 }
func (h iterHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *iterHeap) Push(x any)        { *h = append(*h, x.(internalIterator)) }
func (h *iterHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func (m *mergingIterator) rebuild() {
	m.h = m.h[:0]
	for _, c := range m.children {
		if c.Valid() {
			m.h = append(m.h, c)
		}
	}
	heap.Init(&m.h)
	m.inited = true
}

func (m *mergingIterator) SeekToFirst() {
	for _, c := range m.children {
		c.SeekToFirst()
	}
	m.rebuild()
}

func (m *mergingIterator) Seek(ik internalKey) {
	for _, c := range m.children {
		c.Seek(ik)
	}
	m.rebuild()
}

func (m *mergingIterator) Next() {
	if len(m.h) == 0 {
		return
	}
	top := m.h[0]
	top.Next()
	if top.Valid() {
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
}

func (m *mergingIterator) Valid() bool       { return m.inited && len(m.h) > 0 }
func (m *mergingIterator) IKey() internalKey { return m.h[0].IKey() }
func (m *mergingIterator) Value() []byte     { return m.h[0].Value() }

// soleBlock is tableIterator.soleBlock for the child that holds the
// current entry; stored is nil when that child is not a table's.
func (m *mergingIterator) soleBlock() (stored []byte, rawLen int) {
	if t, ok := m.h[0].(*tableIterator); ok {
		return t.soleBlock()
	}
	return nil, 0
}

func (m *mergingIterator) Close() error {
	var first error
	for _, c := range m.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Iterator is the public iterator over user keys: it collapses internal
// entries to the newest visible version of each key and skips tombstones.
type Iterator struct {
	merge *mergingIterator
	seq   seqNum
	db    *DB
	ver   *version
	// Range bounds on user keys: [lower, upper). Empty slices mean
	// unbounded (NewRangeIterator copies nil to empty).
	lower []byte
	upper []byte

	key   []byte
	skip  []byte // a user key whose remaining versions settle passes over
	value []byte
	valid bool
}

// SeekToFirst positions at the smallest live user key within the bounds.
func (it *Iterator) SeekToFirst() {
	if len(it.lower) > 0 {
		it.merge.Seek(lookupKey(it.lower, it.seq))
	} else {
		it.merge.SeekToFirst()
	}
	it.settle(false)
}

// Seek positions at the first live user key >= key (clamped to the
// iterator's bounds).
func (it *Iterator) Seek(key []byte) {
	if len(it.lower) > 0 && bytes.Compare(key, it.lower) < 0 {
		key = it.lower
	}
	it.merge.Seek(lookupKey(key, it.seq))
	it.settle(false)
}

// Next advances to the next live user key.
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	// The current key becomes the one to pass over, and the buffer that
	// held the last one takes the next: no key is copied to move on.
	it.key, it.skip = it.skip, it.key
	it.merge.Next()
	it.settle(true)
}

// settle finds the newest visible entry for the next user key (after
// it.skip when skipping), passing over shadowed versions, invisible
// sequence numbers and deletions.
func (it *Iterator) settle(skipping bool) {
	for it.merge.Valid() {
		ik := it.merge.IKey()
		if ik.seq() > it.seq {
			it.merge.Next()
			continue
		}
		uk := ik.userKey()
		if skipping && bytes.Equal(uk, it.skip) {
			it.merge.Next()
			continue
		}
		if ik.kind() == kindDelete {
			it.skip = append(it.skip[:0], uk...)
			skipping = true
			it.merge.Next()
			continue
		}
		if len(it.upper) > 0 && bytes.Compare(uk, it.upper) >= 0 {
			it.valid = false
			return
		}
		it.key = append(it.key[:0], uk...)
		it.value = it.merge.Value()
		it.valid = true
		return
	}
	it.valid = false
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.valid }

// Key returns the current user key; valid until the next positioning call.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value where it lies, without a copy: in the
// memtable (for a DB.PutCRC value on a store without a WAL, the writer's
// own buffer) or in a block the iterator read. It is read-only and valid
// until the next positioning call. OwnValue is the form to keep.
func (it *Iterator) Value() []byte { return it.value }

// OwnValue returns the current value as a slice the caller may keep and
// modify, copied at most once: when no one else can see the block it
// lies in (a table read with the block cache off), it is handed over as
// it lies, and then it keeps that block's memory alive while it is
// kept; a value in the memtable or in a cached block is copied. Call it
// at most once per position.
func (it *Iterator) OwnValue() []byte {
	if !it.valid {
		return nil
	}
	if t, ok := it.merge.h[0].(*tableIterator); ok && t.t.cache == nil {
		return it.value[:len(it.value):len(it.value)]
	}
	return append([]byte(nil), it.value...)
}

// Close releases the iterator's snapshot.
func (it *Iterator) Close() error {
	err := it.merge.Close()
	if it.db != nil && it.ver != nil {
		it.db.mu.Lock()
		it.db.unrefVersion(it.ver)
		it.db.mu.Unlock()
		it.ver = nil
	}
	return err
}
