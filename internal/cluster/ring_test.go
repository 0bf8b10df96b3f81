package cluster_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
)

// TestRingOwnerAgreesAcrossAddOrder: ownership must be a pure function of
// the member set, never of the order members were learned in — that is what
// lets every node route without a coordination round.
func TestRingOwnerAgreesAcrossAddOrder(t *testing.T) {
	a := cluster.NewRing(0)
	b := cluster.NewRing(0)
	for _, id := range []string{"node0", "node1", "node2", "node3"} {
		a.Add(id)
	}
	for _, id := range []string{"node3", "node1", "node0", "node2"} {
		b.Add(id)
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("fp:%d", i)
		if got, want := b.Owner(key, nil), a.Owner(key, nil); got != want {
			t.Fatalf("owner(%q) differs by add order: %q vs %q", key, got, want)
		}
	}
}

// TestRingOwnerSkipsDead: a dead owner's keys fall to the next distinct live
// node, deterministically, and fall back when the node revives.
func TestRingOwnerSkipsDead(t *testing.T) {
	r := cluster.NewRing(0)
	r.Add("node0")
	r.Add("node1")
	r.Add("node2")
	alive := func(string) bool { return false }
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("fp:%d", i)
		owner := r.Owner(key, nil)
		if owner == "" {
			t.Fatalf("no owner for %q on a populated ring", key)
		}
		dead := func(n string) bool { return n == owner }
		next := r.Owner(key, dead)
		if next == owner || next == "" {
			t.Fatalf("key %q: dead owner %q not skipped (got %q)", key, owner, next)
		}
		// Two independent evaluations agree (the re-dispatch rule is stable).
		if again := r.Owner(key, dead); again != next {
			t.Fatalf("key %q: failover owner unstable: %q vs %q", key, next, again)
		}
		if back := r.Owner(key, alive); back != owner {
			t.Fatalf("key %q: revival did not restore ownership: %q vs %q", key, back, owner)
		}
	}
	// All members rejected -> no owner.
	if got := r.Owner("fp:0", func(string) bool { return true }); got != "" {
		t.Fatalf("all-dead ring returned owner %q", got)
	}
}

// TestRingEmpty: an empty ring owns nothing.
func TestRingEmpty(t *testing.T) {
	if got := cluster.NewRing(0).Owner("anything", nil); got != "" {
		t.Fatalf("empty ring returned owner %q", got)
	}
}

// TestRingDistribution: with 64 virtual points per member every node's
// share of the hash space is within ±20% of 1/n on 2-, 3- and 4-node rings.
// Bare FNV-64a point hashes failed this (a 53/18/29 split on three nodes);
// ringHash's finalizer is what passes it.
func TestRingDistribution(t *testing.T) {
	for n := 2; n <= 4; n++ {
		r := cluster.NewRing(0)
		for i := 0; i < n; i++ {
			r.Add(fmt.Sprintf("node%d", i))
		}
		shares := r.ArcShares()
		fair := 1 / float64(n)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("node%d", i)
			if s := shares[id]; s < 0.8*fair || s > 1.2*fair {
				t.Errorf("%d nodes: %s holds %.1f%% of the ring, want %.1f%% ± 20%%: %v", n, id, 100*s, 100*fair, shares)
			}
		}
	}
}

// TestRingAddIdempotent: re-adding a member must not double its points (and
// so must not shift ownership).
func TestRingAddIdempotent(t *testing.T) {
	r := cluster.NewRing(0)
	r.Add("node0")
	r.Add("node1")
	before := make(map[string]string)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("fp:%d", i)
		before[k] = r.Owner(k, nil)
	}
	r.Add("node0")
	r.Add("node1")
	for k, want := range before {
		if got := r.Owner(k, nil); got != want {
			t.Fatalf("re-adding members moved key %q: %q -> %q", k, want, got)
		}
	}
	if got := len(r.Nodes()); got != 2 {
		t.Fatalf("ring has %d members, want 2", got)
	}
}
