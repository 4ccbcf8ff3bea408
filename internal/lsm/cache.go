package lsm

import (
	"container/list"
	"sync"

	"lsmio/internal/obs"
)

// blockCacheShards is the production shard count. Restore reads fan out
// over a bounded worker pool (ckpt parallel restore), so the cache is
// sharded by (fileNum, offset) hash — each shard owns its own mutex and
// LRU list, keeping concurrent readers off one global lock.
const blockCacheShards = 16

// blockCache is a size-bounded sharded LRU over decoded blocks, shared
// by all the tables of one DB. The paper's configuration disables it for
// checkpoint data; the default configuration enables it, and the
// ablation benchmarks compare the two. Hit/miss counts go straight to
// the DB's obs counters (atomic, shared across shards).
type blockCache struct {
	shards       []cacheShard
	hits, misses *obs.Counter
}

// cacheShard is one independently-locked LRU holding its slice of the
// total capacity. Eviction is per-shard: an approximation of global LRU
// that trades exact recency order for lock independence.
type cacheShard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	order    *list.List // front = most recent
	items    map[cacheKey]*list.Element

	// traffic counts the bytes of the blocks put into the shard or
	// passed by (putIfReread) since it was made. passed holds each block
	// passed by within the last capacity bytes of traffic, with the
	// traffic just after it; passedOrder holds the same, oldest first,
	// and may still hold a block passed has dropped or passed again.
	traffic     int64
	passed      map[cacheKey]int64
	passedOrder []passedBlock
}

type passedBlock struct {
	key cacheKey
	at  int64
}

// minPassedCharge is the least traffic a block passed by counts for, so
// that passed holds at most capacity/minPassedCharge blocks however
// small they are.
const minPassedCharge = 1 << 10

type cacheKey struct {
	fileNum uint64
	offset  int64
}

type cacheEntry struct {
	key   cacheKey
	block *block
	size  int64
}

func newBlockCache(capacity int64, hits, misses *obs.Counter) *blockCache {
	return newBlockCacheShards(capacity, blockCacheShards, hits, misses)
}

// newBlockCacheShards builds a cache with an explicit shard count
// (tests use one shard for deterministic LRU order).
func newBlockCacheShards(capacity int64, n int, hits, misses *obs.Counter) *blockCache {
	if n < 1 {
		n = 1
	}
	per := capacity / int64(n)
	if per < 1 {
		per = 1
	}
	c := &blockCache{
		shards: make([]cacheShard, n),
		hits:   hits,
		misses: misses,
	}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			capacity: per,
			order:    list.New(),
			items:    make(map[cacheKey]*list.Element),
			passed:   make(map[cacheKey]int64),
		}
	}
	return c
}

// shard maps a block key onto its shard by a mixed hash of file number
// and block offset.
func (c *blockCache) shard(fileNum uint64, offset int64) *cacheShard {
	h := (fileNum+1)*0x9e3779b97f4a7c15 + uint64(offset)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return &c.shards[h%uint64(len(c.shards))]
}

func (c *blockCache) get(fileNum uint64, offset int64) (*block, bool) {
	s := c.shard(fileNum, offset)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[cacheKey{fileNum, offset}]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	s.order.MoveToFront(el)
	return el.Value.(*cacheEntry).block, true
}

func (c *blockCache) put(fileNum uint64, offset int64, b *block, size int64) {
	s := c.shard(fileNum, offset)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insert(cacheKey{fileNum, offset}, b, size)
}

// putIfReread is put for a block a point read would take as its own, a
// value of half the block or more (tableReader.get). Caching such a
// block pays only if it is read again before the cache would evict it,
// and a block of a checkpoint restore larger than the cache is read
// again only on the next restore, long after. So the block goes in only
// when a point read passed it by before, less than the shard's capacity
// of traffic ago: had it been cached then, it would most likely still be
// here. putIfReread reports whether it inserted the block; if not, it
// records the block as passed by, and the caller keeps it.
func (c *blockCache) putIfReread(fileNum uint64, offset int64, b *block, size int64) bool {
	s := c.shard(fileNum, offset)
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.passedOrder) > 0 && s.traffic-s.passedOrder[0].at >= s.capacity {
		if p := s.passedOrder[0]; s.passed[p.key] == p.at {
			delete(s.passed, p.key)
		}
		s.passedOrder = s.passedOrder[1:]
	}
	key := cacheKey{fileNum, offset}
	if _, ok := s.passed[key]; ok {
		delete(s.passed, key)
		s.insert(key, b, size)
		return true
	}
	s.traffic += max(size, minPassedCharge)
	s.passed[key] = s.traffic
	s.passedOrder = append(s.passedOrder, passedBlock{key, s.traffic})
	return false
}

// insert is put's body, under s.mu.
func (s *cacheShard) insert(key cacheKey, b *block, size int64) {
	if el, ok := s.items[key]; ok {
		s.order.MoveToFront(el)
		return
	}
	el := s.order.PushFront(&cacheEntry{key: key, block: b, size: size})
	s.items[key] = el
	s.used += size
	s.traffic += size
	for s.used > s.capacity && s.order.Len() > 1 {
		oldest := s.order.Back()
		ent := oldest.Value.(*cacheEntry)
		s.order.Remove(oldest)
		delete(s.items, ent.key)
		s.used -= ent.size
	}
}

// evictFile drops all cached blocks of a deleted table from every shard.
func (c *blockCache) evictFile(fileNum uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.order.Front(); el != nil; {
			next := el.Next()
			ent := el.Value.(*cacheEntry)
			if ent.key.fileNum == fileNum {
				s.order.Remove(el)
				delete(s.items, ent.key)
				s.used -= ent.size
			}
			el = next
		}
		s.mu.Unlock()
	}
}
