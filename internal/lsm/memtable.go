package lsm

import "sync/atomic"

// The memtable is a skiplist keyed by internal keys, the C0 tree of the
// LSM paper (O'Neil et al., 1996). Inserts are O(log n); iteration is in
// sorted order. The skiplist's level generator is seeded deterministically
// so that simulations are reproducible.
//
// Concurrency, LevelDB's: one writer at a time (add runs under the DB
// lock), any number of readers without it (Get and iterators read the
// memtable after dropping the lock). A node is complete before the atomic
// store that links it in, and readers follow links with atomic loads, so
// a reader sees either no node or a whole one.

const (
	maxSkipHeight = 12
	skipBranching = 4
)

type skipNode struct {
	ikey  internalKey
	value []byte
	sum   valueSum // not counted in memtable.size: flush points stay put
	next  []atomic.Pointer[skipNode]
}

// Nodes, their next-pointer towers and their internal keys are carved
// from slabs, so an insert allocates nothing most of the time. A slab is
// never reallocated (nodes point into it); a full one is simply replaced
// and stays alive through the nodes carved from it.
const (
	nodeSlabLen  = 64
	towerSlabLen = 128
	keySlabLen   = 4 << 10
)

type memtable struct {
	head   *skipNode
	height atomic.Int32
	rnd    uint64 // xorshift state
	size   int64  // approximate memory usage in bytes
	count  int
	// logNum is the WAL this memtable's writes are logged in (0 with the
	// WAL off). With Options.Sync that log must stay until the memtable
	// is flushed.
	logNum uint64
	// drop lists the tables a DeletePrefix retires in the edit that
	// installs this memtable's flush.
	drop []deletedFile

	nodes  []skipNode
	towers []atomic.Pointer[skipNode]
	keys   []byte
}

func newMemtable() *memtable {
	m := &memtable{
		head: &skipNode{next: make([]atomic.Pointer[skipNode], maxSkipHeight)},
		rnd:  0x9E3779B97F4A7C15, // fixed seed: deterministic shape
	}
	m.height.Store(1)
	return m
}

func (m *memtable) randomHeight() int {
	h := 1
	for h < maxSkipHeight {
		m.rnd ^= m.rnd << 13
		m.rnd ^= m.rnd >> 7
		m.rnd ^= m.rnd << 17
		if m.rnd%skipBranching != 0 {
			break
		}
		h++
	}
	return h
}

// findGreaterOrEqual returns the first node with ikey >= key, filling prev
// (when non-nil) with the rightmost node before key at every level.
func (m *memtable) findGreaterOrEqual(key internalKey, prev []*skipNode) *skipNode {
	x := m.head
	level := m.height.Load() - 1
	for {
		next := x.next[level].Load()
		if next != nil && compareIKeys(next.ikey, key) < 0 {
			x = next
			continue
		}
		if prev != nil {
			prev[level] = x
		}
		if level == 0 {
			return next
		}
		level--
	}
}

// carve returns n fresh elements from *slab, starting a new slab when
// the current one cannot hold them.
func carve[T any](slab *[]T, n, slabLen int) []T {
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, max(slabLen, n))
	}
	s := *slab
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// newNode carves a node of height h from the slabs, with userKey copied
// into its internal key.
func (m *memtable) newNode(seq seqNum, kind keyKind, userKey []byte, h int) *skipNode {
	n := &carve(&m.nodes, 1, nodeSlabLen)[0]
	n.next = carve(&m.towers, h, towerSlabLen)
	n.ikey = carve(&m.keys, len(userKey)+8, keySlabLen)
	n.ikey.set(userKey, seq, kind)
	return n
}

// add inserts an entry. Keys are unique per (userKey, seq, kind) because
// the sequence number increases on every write. userKey is copied; value
// is kept as passed, so it must never change afterwards — in practice it
// is a slice of the batch buffer the DB took over in Apply. sum goes to
// the flush with the value.
func (m *memtable) add(seq seqNum, kind keyKind, userKey, value []byte, sum valueSum) {
	h := m.randomHeight()
	n := m.newNode(seq, kind, userKey, h)
	n.value, n.sum = value, sum
	ik := n.ikey
	var prev [maxSkipHeight]*skipNode
	m.findGreaterOrEqual(ik, prev[:])
	if cur := int(m.height.Load()); h > cur {
		for i := cur; i < h; i++ {
			prev[i] = m.head
		}
		// A reader that sees the new height before the links below finds
		// nil at the new levels of head and drops down a level.
		m.height.Store(int32(h))
	}
	for i := 0; i < h; i++ {
		n.next[i].Store(prev[i].next[i].Load())
		prev[i].next[i].Store(n)
	}
	m.size += int64(len(ik) + len(value) + 48) // entry + node overhead
	m.count++
}

// get looks up userKey at snapshot seq. It returns (value, true, nil-err)
// for a live entry, (nil, true, ...) deleted=true semantics folded:
// found reports whether any entry for the key exists at or below seq;
// deleted reports whether the newest such entry is a tombstone.
func (m *memtable) get(userKey []byte, seq seqNum) (value []byte, found, deleted bool) {
	n := m.findGreaterOrEqual(lookupKey(userKey, seq), nil)
	if n == nil || string(n.ikey.userKey()) != string(userKey) {
		return nil, false, false
	}
	if n.ikey.kind() == kindDelete {
		return nil, true, true
	}
	return n.value, true, false
}

// approximateSize returns the memtable's memory footprint in bytes.
func (m *memtable) approximateSize() int64 { return m.size }

// empty reports whether the memtable holds no entries.
func (m *memtable) empty() bool { return m.count == 0 }

// iterator returns a sorted iterator over all internal entries.
func (m *memtable) iterator() *memIterator {
	return &memIterator{m: m}
}

// memIterator walks the skiplist in internal-key order. It satisfies the
// internal iterator contract used by the merging iterator.
type memIterator struct {
	m *memtable
	n *skipNode
}

func (it *memIterator) SeekToFirst()        { it.n = it.m.head.next[0].Load() }
func (it *memIterator) Seek(ik internalKey) { it.n = it.m.findGreaterOrEqual(ik, nil) }
func (it *memIterator) Next()               { it.n = it.n.next[0].Load() }
func (it *memIterator) Valid() bool         { return it.n != nil }
func (it *memIterator) IKey() internalKey   { return it.n.ikey }
func (it *memIterator) Value() []byte       { return it.n.value }
func (it *memIterator) Sum() valueSum       { return it.n.sum }
func (it *memIterator) Close() error        { return nil }
