package svc

import (
	"fmt"
	"testing"
)

// TestRingConsistency is the consistent-hash invariant: growing the
// ring from n to n+1 shards may move a key only onto the new shard,
// and shrinking from n+1 to n may move only keys that lived on the
// removed shard. Any other movement would force needless migration.
func TestRingConsistency(t *testing.T) {
	keys := make([]string, 5000)
	for i := range keys {
		keys[i] = nsKey(fmt.Sprintf("tenant%d", i%7), fmt.Sprintf("step%03d/block%05d", i%13, i))
	}
	for n := 1; n <= 8; n++ {
		small, big := NewRing(n), NewRing(n+1)
		movedIn, movedOut := 0, 0
		for _, k := range keys {
			a, b := small.Route(k), big.Route(k)
			if a != b {
				// Grow: the only legal new destination is shard n.
				if b != n {
					t.Fatalf("grow %d->%d moved %q from shard %d to %d (not the new shard)", n, n+1, k, a, b)
				}
				movedIn++
			}
			// Shrink is the same comparison read backwards: a key whose
			// route differs must have lived on the removed shard.
			if a != b && b != n {
				movedOut++
			}
		}
		if n > 1 && movedIn == 0 {
			t.Errorf("grow %d->%d moved no keys; new shard would stay empty", n, n+1)
		}
		if movedOut != 0 {
			t.Errorf("shrink %d->%d would move %d keys between surviving shards", n+1, n, movedOut)
		}
	}
}

// TestRingBalance checks that 64 vnodes per shard spread ownership
// reasonably: no empty shards and no shard far above its fair share.
func TestRingBalance(t *testing.T) {
	const shards, n = 8, 20000
	r := NewRing(shards)
	counts := make([]int, shards)
	for i := 0; i < n; i++ {
		counts[r.Route(nsKey("app", fmt.Sprintf("key%06d", i)))]++
	}
	avg := n / shards
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d owns no keys", s)
		}
		if c > 3*avg {
			t.Errorf("shard %d owns %d keys, more than 3x the fair share %d", s, c, avg)
		}
	}
}

// TestRingRouteStable pins routing determinism: the same key always
// routes to the same shard across independently built rings.
func TestRingRouteStable(t *testing.T) {
	a, b := NewRing(5), NewRing(5)
	for i := 0; i < 1000; i++ {
		k := nsKey("t", fmt.Sprintf("k%d", i))
		if a.Route(k) != b.Route(k) {
			t.Fatalf("key %q routed differently by identical rings", k)
		}
	}
}

// TestRingSingleShard: with one shard every key routes to it — the
// degenerate ring must not wrap into garbage.
func TestRingSingleShard(t *testing.T) {
	r := NewRing(1)
	for i := 0; i < 500; i++ {
		if s := r.Route(nsKey("t", fmt.Sprintf("k%d", i))); s != 0 {
			t.Fatalf("single-shard ring routed key to shard %d", s)
		}
	}
}

// TestRingZeroShards: a ring cannot route over nothing — construction
// must panic rather than build a table that routes into thin air (New
// turns a shard count <= 0 into 1 before it builds one).
func TestRingZeroShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRing(0) did not panic")
		}
	}()
	NewRing(0)
}

// TestRingReAddDroppedShard: dropping a shard and re-adding it must
// restore the exact original routing (rings are pure functions of the
// shard count), and keys untouched by the shrink must never have moved
// at any point in the 3 -> 2 -> 3 cycle.
func TestRingReAddDroppedShard(t *testing.T) {
	r3a, r2, r3b := NewRing(3), NewRing(2), NewRing(3)
	for i := 0; i < 5000; i++ {
		k := nsKey(fmt.Sprintf("tenant%d", i%5), fmt.Sprintf("k%05d", i))
		before, during, after := r3a.Route(k), r2.Route(k), r3b.Route(k)
		if before != after {
			t.Fatalf("key %q moved (%d -> %d) across a drop/re-add cycle", k, before, after)
		}
		// Keys that did not live on the dropped shard stay put even
		// while it is gone.
		if before != 2 && during != before {
			t.Fatalf("key %q on shard %d moved to %d when an unrelated shard was dropped",
				k, before, during)
		}
	}
}
