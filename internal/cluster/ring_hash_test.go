package cluster

import (
	"hash/fnv"
	"testing"
)

// TestRingHashPinned pins ringHash to FNV-64a followed by murmur3's fmix64:
// each fixed string's hash is checked against a literal and against the
// composition computed here from hash/fnv and the published finalizer
// constants. Every node must place points and keys with the same function,
// so a change to it is a change to the ownership contract.
func TestRingHashPinned(t *testing.T) {
	ref := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		x := h.Sum64()
		x = (x ^ x>>33) * 0xff51afd7ed558ccd
		x = (x ^ x>>33) * 0xc4ceb9fe1a85ec53
		return x ^ x>>33
	}
	for _, c := range []struct {
		s    string
		want uint64
	}{
		{"", 0xefd01f60ba992926},
		{"node0#0", 0x13f00dfdf397e5f4},
		{"node1#17", 0xcc6cf09ec099689c},
		{"alpha#63", 0xb7849d5f3d14ba23},
		{"emcr/mcf/seed1", 0x2298c354ab0de4b8},
	} {
		if got := ringHash(c.s); got != c.want || got != ref(c.s) {
			t.Errorf("ringHash(%q) = %#x, want %#x (reference %#x)", c.s, got, c.want, ref(c.s))
		}
	}
}
