package cluster

import (
	"context"

	"repro/internal/sim"
)

// FetchRecord exposes the peer-fetch receive path to the external tests.
func (n *Node) FetchRecord(peer, key string) (*sim.Result, error) {
	return n.fetchRecord(context.Background(), peer, key)
}
