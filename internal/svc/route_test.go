package svc

import (
	"fmt"
	"testing"
)

// routeShapes returns the namespaced keys of the workloads that run
// through the service, by shape: svc-readwrite's writer (20 steps of
// 256 blocks) and reader (1,024 blocks), ext-service's eight behaved
// tenants (3 steps of 16 blocks) and 100 keys of one short prefix.
// Checkpoint keys differ only in their tails, so they are what a weak
// routing hash piles onto few shards.
func routeShapes() map[string][]string {
	shapes := make(map[string][]string)
	for step := 1; step <= 20; step++ {
		for b := 0; b < 256; b++ {
			shapes["svc-readwrite writer"] = append(shapes["svc-readwrite writer"],
				nsKey("w", fmt.Sprintf("step%04d/blk.%04d", step, b)))
		}
	}
	for b := 0; b < 1024; b++ {
		shapes["svc-readwrite reader"] = append(shapes["svc-readwrite reader"],
			nsKey("r", fmt.Sprintf("blk.%04d", b)))
	}
	for tn := 0; tn < 8; tn++ {
		for step := 0; step < 3; step++ {
			for b := 0; b < 16; b++ {
				shapes["ext-service"] = append(shapes["ext-service"],
					nsKey(fmt.Sprintf("tenant%02d", tn), fmt.Sprintf("step%03d/block%03d", step, b)))
			}
		}
	}
	for i := 0; i < 100; i++ {
		shapes["a/k"] = append(shapes["a/k"], nsKey("a", fmt.Sprintf("k%03d", i)))
	}
	return shapes
}

// TestRouteBalance: on every workload key shape the fullest shard holds
// at most 1.25× its fair share at n = 2, 4 and 8, and with one shard
// every key routes to it. The fair share is what the fullest shard of
// an even split holds, ceil(keys/n): 100 keys over 8 shards cannot
// leave fewer than 13 on one.
func TestRouteBalance(t *testing.T) {
	for name, keys := range routeShapes() {
		for _, n := range []int{1, 2, 4, 8} {
			counts := make([]int, n)
			for _, k := range keys {
				s := route(k, n)
				if s < 0 || s >= n {
					t.Fatalf("%q routed to shard %d of %d", k, s, n)
				}
				counts[s]++
			}
			fair := (len(keys) + n - 1) / n
			for s, c := range counts {
				if 4*c > 5*fair {
					t.Errorf("%s, %d shards: shard %d holds %d keys, more than 1.25× the fair share %d (%v)",
						name, n, s, c, fair, counts)
				}
			}
		}
	}
}

// TestRoutePinned pins route's value for a few keys: a service
// directory's keys sit where route put them, so any change to it is a
// layout change and must come with a new manifestVersion.
func TestRoutePinned(t *testing.T) {
	shards := []int{2, 3, 8, 1000}
	for _, c := range []struct {
		key  string
		want []int // the shard among each of shards
	}{
		{nsKey("a", "k000"), []int{1, 0, 7, 447}},
		{nsKey("a", "k099"), []int{1, 1, 5, 877}},
		{nsKey("w", "step0001/blk.0000"), []int{1, 2, 3, 387}},
		{nsKey("r", "blk.0042"), []int{0, 1, 4, 284}},
		{nsKey("tenant07", "step002/block015"), []int{0, 0, 6, 102}},
	} {
		for i, n := range shards {
			if got := route(c.key, n); got != c.want[i] {
				t.Errorf("route(%q, %d) = %d, want %d", c.key, n, got, c.want[i])
			}
		}
	}
}

// TestRingBalance: over 20,000 keys of one tenant, route leaves no
// shard of 8 empty and none above 3× its fair share. It keeps the name
// and bound it had under the consistent-hash ring that route replaced;
// TestRouteBalance holds route to the tighter bound on the workloads'
// own key shapes.
func TestRingBalance(t *testing.T) {
	const shards, n = 8, 20000
	counts := make([]int, shards)
	for i := 0; i < n; i++ {
		counts[route(nsKey("app", fmt.Sprintf("key%06d", i)), shards)]++
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

// TestRingSingleShard: with one shard every key routes to it.
func TestRingSingleShard(t *testing.T) {
	for i := 0; i < 500; i++ {
		if s := route(nsKey("t", fmt.Sprintf("k%d", i)), 1); s != 0 {
			t.Fatalf("one shard, but key routed to shard %d", s)
		}
	}
}
