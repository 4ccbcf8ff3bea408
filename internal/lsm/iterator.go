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
	it.settle(nil)
}

// Seek positions at the first live user key >= key (clamped to the
// iterator's bounds).
func (it *Iterator) Seek(key []byte) {
	if len(it.lower) > 0 && bytes.Compare(key, it.lower) < 0 {
		key = it.lower
	}
	it.merge.Seek(lookupKey(key, it.seq))
	it.settle(nil)
}

// Next advances to the next live user key.
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	prev := append([]byte(nil), it.key...)
	it.merge.Next()
	it.settle(prev)
}

// settle finds the newest visible entry for the next user key after skip,
// skipping shadowed versions, invisible sequence numbers and deletions.
func (it *Iterator) settle(skip []byte) {
	for it.merge.Valid() {
		ik := it.merge.IKey()
		if ik.seq() > it.seq {
			it.merge.Next()
			continue
		}
		uk := ik.userKey()
		if skip != nil && bytes.Equal(uk, skip) {
			it.merge.Next()
			continue
		}
		if ik.kind() == kindDelete {
			skip = append(skip[:0], uk...)
			it.merge.Next()
			continue
		}
		if len(it.upper) > 0 && bytes.Compare(uk, it.upper) >= 0 {
			it.valid = false
			return
		}
		it.key = append(it.key[:0], uk...)
		it.value = append(it.value[:0], it.merge.Value()...)
		it.valid = true
		return
	}
	it.valid = false
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.valid }

// Key returns the current user key; valid until the next positioning call.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value; valid until the next positioning call.
func (it *Iterator) Value() []byte { return it.value }

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
