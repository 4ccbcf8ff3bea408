package svc

import (
	"fmt"
	"sort"
)

// ringVnodes is the number of virtual points each shard contributes to
// the hash ring. 64 points per shard keeps the key-ownership imbalance
// across shards within a few tens of percent while keeping ring
// construction and routing cheap.
const ringVnodes = 64

// Ring is a consistent-hash routing table over a contiguous set of
// shards [0, Shards). Each shard owns the arc between its predecessor
// point and each of its virtual points, so the ring for N+1 shards
// differs from the ring for N only in the keys that land on the new
// shard's points. A Ring is immutable after construction, and a
// Service routes over one Ring for its whole life.
type Ring struct {
	shards int
	points []ringPoint // sorted by (hash, shard)
}

type ringPoint struct {
	hash  uint64
	shard int
}

// fnv64a is the FNV-1a 64-bit hash, inlined so routing does not
// allocate a hash.Hash per key.
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// NewRing builds the routing table for the given shard count.
func NewRing(shards int) *Ring {
	if shards <= 0 {
		panic("svc: ring needs at least one shard")
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*ringVnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < ringVnodes; v++ {
			h := fnv64a(fmt.Sprintf("shard-%d/vnode-%d", s, v))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the number of shards the ring routes over.
func (r *Ring) Shards() int { return r.shards }

// Route returns the shard that owns key: the shard of the first ring
// point at or after the key's hash, wrapping at the top of the hash
// space.
func (r *Ring) Route(key string) int {
	h := fnv64a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}
