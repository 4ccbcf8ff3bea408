package lsm

import (
	"bytes"
	"container/heap"
)

// internalIterator is the contract shared by memtable, block and table
// iterators: bidirectional iteration over (internalKey, value) pairs in
// internal-key order. Prev is defined only from a valid position;
// SeekToLast recovers from an invalid one.
type internalIterator interface {
	SeekToFirst()
	SeekToLast()
	Seek(ik internalKey)
	Next()
	Prev()
	Valid() bool
	IKey() internalKey
	Value() []byte
	Close() error
}

// mergingIterator merges several sorted internal iterators, the read-side
// merge-sort the LSM paper describes for reads spanning C0 and C1..Ck.
// It supports both directions; switching direction repositions every
// child relative to the current key, LevelDB-style.
type mergingIterator struct {
	children []internalIterator
	h        iterHeap
	inited   bool
	reverse  bool
}

func newMergingIterator(children []internalIterator) *mergingIterator {
	return &mergingIterator{children: children}
}

type iterHeap struct {
	its     []internalIterator
	reverse bool
}

func (h iterHeap) Len() int { return len(h.its) }
func (h iterHeap) Less(i, j int) bool {
	c := compareIKeys(h.its[i].IKey(), h.its[j].IKey())
	if h.reverse {
		return c > 0
	}
	return c < 0
}
func (h iterHeap) Swap(i, j int) { h.its[i], h.its[j] = h.its[j], h.its[i] }
func (h *iterHeap) Push(x any)   { h.its = append(h.its, x.(internalIterator)) }
func (h *iterHeap) Pop() any {
	old := h.its
	n := len(old)
	it := old[n-1]
	h.its = old[:n-1]
	return it
}

func (m *mergingIterator) rebuild() {
	m.h.its = m.h.its[:0]
	m.h.reverse = m.reverse
	for _, c := range m.children {
		if c.Valid() {
			m.h.its = append(m.h.its, c)
		}
	}
	heap.Init(&m.h)
	m.inited = true
}

func (m *mergingIterator) SeekToFirst() {
	m.reverse = false
	for _, c := range m.children {
		c.SeekToFirst()
	}
	m.rebuild()
}

func (m *mergingIterator) SeekToLast() {
	m.reverse = true
	for _, c := range m.children {
		c.SeekToLast()
	}
	m.rebuild()
}

func (m *mergingIterator) Seek(ik internalKey) {
	m.reverse = false
	for _, c := range m.children {
		c.Seek(ik)
	}
	m.rebuild()
}

func (m *mergingIterator) Next() {
	if len(m.h.its) == 0 {
		return
	}
	if m.reverse {
		// Direction switch: every child must sit at the first entry
		// strictly after the current key.
		cur := append(internalKey(nil), m.h.its[0].IKey()...)
		m.reverse = false
		for _, c := range m.children {
			c.Seek(cur)
			if c.Valid() && compareIKeys(c.IKey(), cur) == 0 {
				c.Next()
			}
		}
		m.rebuild()
		return
	}
	top := m.h.its[0]
	top.Next()
	if top.Valid() {
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
}

func (m *mergingIterator) Prev() {
	if len(m.h.its) == 0 {
		return
	}
	if !m.reverse {
		// Direction switch: every child must sit at the last entry
		// strictly before the current key.
		cur := append(internalKey(nil), m.h.its[0].IKey()...)
		m.reverse = true
		for _, c := range m.children {
			c.Seek(cur)
			if c.Valid() {
				c.Prev() // lands strictly before cur (Seek was >= cur)
			} else {
				c.SeekToLast() // everything is before cur
			}
		}
		m.rebuild()
		return
	}
	top := m.h.its[0]
	top.Prev()
	if top.Valid() {
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
}

func (m *mergingIterator) Valid() bool       { return m.inited && len(m.h.its) > 0 }
func (m *mergingIterator) IKey() internalKey { return m.h.its[0].IKey() }
func (m *mergingIterator) Value() []byte     { return m.h.its[0].Value() }

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
	// dirBack records whether the last positioning left the merge
	// iterator behind (true) or at (false) the current entry.
	dirBack bool
}

// SeekToFirst positions at the smallest live user key within the bounds.
func (it *Iterator) SeekToFirst() {
	if len(it.lower) > 0 {
		it.merge.Seek(lookupKey(it.lower, it.seq))
	} else {
		it.merge.SeekToFirst()
	}
	it.dirBack = false
	it.settle(nil)
}

// SeekToLast positions at the largest live user key within the bounds.
func (it *Iterator) SeekToLast() {
	if len(it.upper) > 0 {
		it.merge.Seek(makeIKey(it.upper, maxSeq, kindValue))
		if it.merge.Valid() {
			it.merge.Prev()
		} else {
			it.merge.SeekToLast()
		}
	} else {
		it.merge.SeekToLast()
	}
	it.dirBack = true
	it.settleBack(nil)
}

// Prev moves to the preceding live user key.
func (it *Iterator) Prev() {
	if !it.valid {
		return
	}
	cur := append([]byte(nil), it.key...)
	if !it.dirBack {
		// The merge iterator sits at the current entry; step behind it.
		it.merge.Prev()
		it.dirBack = true
	}
	it.settleBack(cur)
}

// settleBack finds the newest visible entry of the largest user key before
// the current position, skipping the given key, invisible versions,
// deletions and anything outside the bounds. On return the merge iterator
// sits behind the accepted key's version cluster.
func (it *Iterator) settleBack(skip []byte) {
	for it.merge.Valid() {
		ik := it.merge.IKey()
		uk := ik.userKey()
		if skip != nil && bytes.Equal(uk, skip) {
			it.merge.Prev()
			continue
		}
		if ik.seq() > it.seq {
			it.merge.Prev()
			continue
		}
		// Gather this user key's visible versions; backward traversal
		// visits them oldest to newest, so the last one kept wins.
		candKey := append([]byte(nil), uk...)
		var candVal []byte
		var candKind keyKind
		for it.merge.Valid() && bytes.Equal(it.merge.IKey().userKey(), candKey) {
			ik2 := it.merge.IKey()
			if ik2.seq() <= it.seq {
				candVal = append(candVal[:0], it.merge.Value()...)
				candKind = ik2.kind()
			}
			it.merge.Prev()
		}
		if candKind == kindDelete {
			skip = nil
			continue
		}
		if len(it.lower) > 0 && bytes.Compare(candKey, it.lower) < 0 {
			break
		}
		it.key = candKey
		it.value = candVal
		it.valid = true
		return
	}
	it.valid = false
}

// Seek positions at the first live user key >= key (clamped to the
// iterator's bounds).
func (it *Iterator) Seek(key []byte) {
	if len(it.lower) > 0 && bytes.Compare(key, it.lower) < 0 {
		key = it.lower
	}
	it.merge.Seek(lookupKey(key, it.seq))
	it.dirBack = false
	it.settle(nil)
}

// Next advances to the next live user key.
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	prev := append([]byte(nil), it.key...)
	it.merge.Next()
	it.dirBack = false
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
