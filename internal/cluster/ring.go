// Package cluster turns N emcserve processes (or N in-process services)
// into one sweep fabric: a consistent-hash ring assigns every cache key a
// single owning node, so duplicate submissions serialize behind their first
// run cluster-wide regardless of which node receives them; results move
// between nodes as the same CRC-framed EMCR records the durable cache
// writes to disk, fetched by the entry node of a forwarded job and
// backfilled by anti-entropy; idle nodes steal queued work from peers
// whose workers are all busy; and heartbeats promote the hung-job watchdog to node granularity,
// with deterministic re-dispatch of jobs owned by a dead node.
//
// Determinism is the load-bearing wall throughout (DESIGN.md §15): a key's
// result is a pure function of the key, so a split-brain double execution
// or a re-dispatch race produces bit-identical bytes and the
// content-addressed caches converge instead of conflicting.
package cluster

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Ring is the consistent-hash ring: each node contributes `replicas`
// virtual points per unit of weight (ringHash of "id#i"), a key belongs to
// the first point at or clockwise after its own hash. Ownership is a pure
// function of the member set (ids and weights) and the liveness predicate,
// so every node that agrees on those agrees on the owner — no coordination
// round needed.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	points   []ringPoint
	nodes    map[string]int // id -> weight
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds an empty ring with the given virtual-node count per member
// (<= 0 selects the default of 64).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = 64
	}
	return &Ring{replicas: replicas, nodes: map[string]int{}}
}

// Add inserts a node's virtual points at weight 1. Idempotent.
func (r *Ring) Add(node string) { r.AddWeighted(node, 1) }

// AddWeighted inserts a node with `weight × replicas` virtual points, so a
// weight-3 node owns ~3× the keyspace of a weight-1 node (heterogeneous
// fabrics: weight by core count). Weight <= 0 selects 1. Idempotent per id;
// the first weight a node is learned with wins — a re-announce with a
// different weight is ignored, because silently resizing a live member's
// share would shift ownership mid-flight on some nodes before others.
func (r *Ring) AddWeighted(node string, weight int) {
	if weight <= 0 {
		weight = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] != 0 {
		return
	}
	r.nodes[node] = weight
	// Point names "id#i" are built in one reused buffer: ring building is
	// most of a fabric's setup, and a string per point would dominate it.
	n := r.replicas * weight
	r.points = slices.Grow(r.points, n)
	buf := append(make([]byte, 0, len(node)+8), node...)
	buf = append(buf, '#')
	for i := 0; i < n; i++ {
		name := strconv.AppendInt(buf, int64(i), 10)
		r.points = append(r.points, ringPoint{hash: fmix64(fnv64a(name)), node: node})
	}
	slices.SortFunc(r.points, func(a, b ringPoint) int {
		if a.hash != b.hash {
			return cmp.Compare(a.hash, b.hash)
		}
		// Equal hashes (vanishingly rare): break the tie by id so the sort,
		// and therefore ownership, is deterministic across nodes.
		return strings.Compare(a.node, b.node)
	})
}

// Owner returns the node owning key: the first clockwise point whose node
// the dead predicate (nil = none) does not reject. A dead owner's keys thus
// fall to the next distinct live node — the deterministic re-dispatch rule.
// Returns "" only when every member is rejected or the ring is empty.
func (r *Ring) Owner(key string, dead func(node string) bool) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if dead == nil || !dead(p.node) {
			return p.node
		}
	}
	return ""
}

// Nodes lists the member ids, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ringHash places a point name or a key on the ring: FNV-64a, then the
// murmur3 64-bit finalizer. FNV alone leaves the top bits of names that
// differ only in a short suffix ("node1#17", "node1#18") close together, so
// a node's points clump into a few arcs; on three nodes the arc shares were
// 18%, 53% and 29%. The finalizer mixes every input bit into every output
// bit, and the shares become 34%, 34% and 32% (DESIGN.md §15.2).
func ringHash(s string) uint64 { return fmix64(fnv64a(s)) }

// fnv64a is FNV-1a, 64-bit, over a string or a byte slice without copying.
func fnv64a[T string | []byte](s T) uint64 {
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

// fmix64 is murmur3's 64-bit finalizer: a bijection with full avalanche.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
