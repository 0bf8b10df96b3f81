// Weighted-ring determinism tests: identical member sets and weights must
// produce identical ownership on every node (golden table pinned against
// ringHash, FNV-64a plus a fixed finalizer, which is platform-stable), a join must move only the keys that
// change owner, and weights must actually skew the keyspace share.
package cluster_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
)

func weightedRing(order [][2]any) *cluster.Ring {
	r := cluster.NewRing(0)
	for _, e := range order {
		r.AddWeighted(e[0].(string), e[1].(int))
	}
	return r
}

// TestRingWeightedOwnershipGolden pins the weighted ownership function: any
// change to the hash, the point layout, or the weight expansion shows up as
// a diff against this table — the cross-node agreement contract, frozen.
func TestRingWeightedOwnershipGolden(t *testing.T) {
	r := weightedRing([][2]any{{"alpha", 1}, {"beta", 2}, {"gamma", 3}})
	golden := []struct{ key, owner string }{
		{"emcr/mcf/seed1", "gamma"},
		{"emcr/mcf/seed42", "beta"},
		{"emcr/sphinx3/seed1", "gamma"},
		{"emcr/sphinx3/seed42", "alpha"},
		{"emcr/soplex/seed1", "gamma"},
		{"emcr/soplex/seed42", "beta"},
		{"emcr/libquantum/seed1", "beta"},
		{"emcr/libquantum/seed42", "beta"},
		{"emcr/omnetpp/seed1", "gamma"},
		{"emcr/omnetpp/seed42", "alpha"},
		{"emcr/milc/seed1", "alpha"},
		{"emcr/milc/seed42", "beta"},
		{"emcr/gcc/seed1", "gamma"},
		{"emcr/gcc/seed42", "alpha"},
		{"emcr/lbm/seed1", "beta"},
		{"emcr/lbm/seed42", "alpha"},
	}
	for _, g := range golden {
		if got := r.Owner(g.key, nil); got != g.owner {
			t.Errorf("Owner(%q) = %q, want %q", g.key, got, g.owner)
		}
	}
}

// TestRingWeightedAddOrderIndependence: ownership is a pure function of the
// (id, weight) set — the order members were learned in (which differs per
// node under gossip) must not matter.
func TestRingWeightedAddOrderIndependence(t *testing.T) {
	orders := [][][2]any{
		{{"alpha", 1}, {"beta", 2}, {"gamma", 3}},
		{{"gamma", 3}, {"alpha", 1}, {"beta", 2}},
		{{"beta", 2}, {"gamma", 3}, {"alpha", 1}},
	}
	ref := weightedRing(orders[0])
	for oi, order := range orders[1:] {
		r := weightedRing(order)
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("wkey/%d/%d", i, i*7919)
			if got, want := r.Owner(key, nil), ref.Owner(key, nil); got != want {
				t.Fatalf("order %d: Owner(%q) = %q, want %q", oi+1, key, got, want)
			}
		}
	}
}

// TestRingWeightedFirstWeightWins: a re-announce with a different weight is
// ignored — silently resizing a live member's share would shift ownership
// mid-flight on some nodes before others.
func TestRingWeightedFirstWeightWins(t *testing.T) {
	a := weightedRing([][2]any{{"alpha", 1}, {"beta", 2}})
	b := weightedRing([][2]any{{"alpha", 1}, {"beta", 2}})
	b.AddWeighted("beta", 5)
	b.Add("alpha")
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("wkey/%d/%d", i, i*104729)
		if got, want := b.Owner(key, nil), a.Owner(key, nil); got != want {
			t.Fatalf("re-announce changed Owner(%q): %q != %q", key, got, want)
		}
	}
}

// TestRingWeightedDistribution: weight skews the keyspace share in the
// right direction (loose bounds — 64 points per weight unit is lumpy; the
// probe keys come from a seeded PRNG).
func TestRingWeightedDistribution(t *testing.T) {
	r := weightedRing([][2]any{{"alpha", 1}, {"beta", 2}, {"gamma", 3}})
	rng := rand.New(rand.NewSource(7))
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		counts[r.Owner(fmt.Sprintf("%016x", rng.Uint64()), nil)]++
	}
	if counts["gamma"] <= counts["alpha"] || counts["beta"] <= counts["alpha"] {
		t.Fatalf("weight did not skew ownership: %v", counts)
	}
}

// TestRingJoinMinimalChurn: adding a member moves a key only when the new
// member becomes its owner — consistent hashing's no-gratuitous-churn
// property: a join shifts only the joiner's keys, so routing between the
// survivors is undisturbed.
func TestRingJoinMinimalChurn(t *testing.T) {
	before := weightedRing([][2]any{{"node0", 1}, {"node1", 2}})
	after := weightedRing([][2]any{{"node0", 1}, {"node1", 2}, {"node2", 2}})
	moved := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("jkey/%d/%d", i, i*31337)
		ob, oa := before.Owner(key, nil), after.Owner(key, nil)
		if oa != ob {
			if oa != "node2" {
				t.Fatalf("key %q churned %q -> %q without involving the joiner", key, ob, oa)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("joiner took no keys — weighted insert is broken")
	}
}
