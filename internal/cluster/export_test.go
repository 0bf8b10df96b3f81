package cluster

import (
	"context"

	"repro/internal/sim"
)

// FetchRecord exposes the peer-fetch receive path to the external tests.
func (n *Node) FetchRecord(peer, key string) (*sim.Result, error) {
	return n.fetchRecord(context.Background(), peer, key, false)
}

// ArcShares returns each member's share of the hash space: a point owns the
// arc from its predecessor (exclusive) up to itself, wrapping at 2^64.
func (r *Ring) ArcShares() map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	shares := map[string]float64{}
	for i, p := range r.points {
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		shares[p.node] += float64(p.hash-prev) / (1 << 64)
	}
	return shares
}
