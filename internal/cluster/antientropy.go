package cluster

import (
	"context"
	"time"

	"repro/internal/fault"
)

// Anti-entropy failpoints (see internal/fault): antientropy.keys fails a
// round's key-list RPC as unreachable (the node skips that peer this round);
// antientropy.fetch drops one missing record's backfill (a later round must
// cover it).
var (
	fpAEKeys  = fault.Register(fault.SiteClusterAntiEntropyKeys)
	fpAEFetch = fault.Register(fault.SiteClusterAntiEntropyFetch)
)

// antiEntropy is the convergence loop: every AntiEntropyInterval, read the
// key list of one live peer (round-robin over the sorted peer list) and
// backfill whatever records the peer has that this node lacks. Pull-based
// and pairwise, so a freshly restarted node with an empty or stale cache
// converges to the cluster's full record set in a few rounds without any
// node tracking who holds which record. It is the only path that copies a
// record to a node that neither computed nor fetched it.
func (n *Node) antiEntropy() {
	defer n.wg.Done()
	t := time.NewTicker(n.opts.AntiEntropyInterval)
	defer t.Stop()
	var rr int
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
			peers := n.members.rows(isLivePeer)
			if len(peers) == 0 {
				continue
			}
			n.antiEntropyRound(peers[rr%len(peers)].ID)
			rr++
		}
	}
}

// antiEntropyRound reconciles against one peer: read its full key list
// and backfill every record the peer holds that this node does not. The
// records are CRC-framed EMCR frames — the same bytes the durable store
// writes — so a backfilled record is byte-identical to one computed
// locally, and the syncing flag is up only while actual backfill work is in
// flight.
func (n *Node) antiEntropyRound(peer string) {
	if fpAEKeys.Fire() {
		return
	}
	var keys []string
	err := n.call(peer, func() error {
		var err error
		keys, err = n.tr.Keys(context.Background(), peer)
		return err
	})
	if err != nil {
		return
	}
	var missing []string
	for _, k := range keys {
		if _, ok := n.svc.PeekResult(k); !ok {
			missing = append(missing, k)
		}
	}
	if len(missing) == 0 {
		return
	}
	n.syncing.Store(true)
	defer n.syncing.Store(false)
	for _, k := range missing {
		if !fpAEFetch.Fire() {
			_, _ = n.fetchRecord(context.Background(), peer, k, true)
		}
	}
}
