package cluster

import (
	"context"
	"time"

	"repro/internal/fault"
)

// Anti-entropy failpoints (see internal/fault): antientropy.digest fails a
// round's digest RPC as unreachable (the node skips that peer this round);
// antientropy.fetch drops one missing record's backfill (a later round must
// cover it).
var (
	fpAEDigest = fault.Register(fault.SiteClusterAntiEntropyDigest)
	fpAEFetch  = fault.Register(fault.SiteClusterAntiEntropyFetch)
)

// bucketOf folds a cache key into its anti-entropy digest bucket. It reuses
// the ring hash, so a key's bucket is the same on every node — the property
// the digest comparison depends on.
func bucketOf(key string) int {
	return int(ringHash(key) % digestBuckets)
}

// localDigest summarizes this node's durable record set: per bucket, the
// record count and the XOR of the keys' ring hashes. Incremental disagreement
// localizes to the buckets that differ, so the follow-up Keys exchange is
// proportional to the delta.
func (n *Node) localDigest() Digest {
	d := Digest{Node: n.id}
	for _, k := range n.svc.ResultKeys() {
		b := bucketOf(k)
		d.Buckets[b].Count++
		d.Buckets[b].Sum ^= ringHash(k)
	}
	return d
}

// HandleKeys lists this node's durable record keys in one digest bucket
// (sorted — ResultKeys is sorted and the filter preserves order). The
// handler has range-checked bucket.
func (n *Node) HandleKeys(bucket int) []string {
	var out []string
	for _, k := range n.svc.ResultKeys() {
		if bucketOf(k) == bucket {
			out = append(out, k)
		}
	}
	return out
}

// antiEntropy is the convergence loop: every AntiEntropyInterval, exchange
// digests with one live peer (round-robin over the sorted peer list) and
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
			peers := n.members.alivePeers(n.id)
			if len(peers) == 0 {
				continue
			}
			n.antiEntropyRound(peers[rr%len(peers)].ID)
			rr++
		}
	}
}

// antiEntropyRound reconciles against one peer: fetch its digest, diff
// bucket sums, list keys for differing buckets, and backfill every record
// the peer holds that this node does not. The records are CRC-framed EMCR
// frames — the same bytes the durable store writes — so a backfilled record
// is byte-identical to one computed locally, and the syncing flag is up
// only while actual backfill work is in flight.
func (n *Node) antiEntropyRound(peer string) {
	if fpAEDigest.Fire() {
		return
	}
	var remote Digest
	err := n.viaBreaker(peer, func() error {
		var err error
		remote, err = n.tr.Digest(context.Background(), peer)
		return err
	})
	if err != nil {
		return
	}
	local := n.localDigest()
	var missing []string
	for b := range remote.Buckets {
		if remote.Buckets[b] == local.Buckets[b] || remote.Buckets[b].Count == 0 {
			continue
		}
		var keys []string
		kerr := n.viaBreaker(peer, func() error {
			var err error
			keys, err = n.tr.Keys(context.Background(), peer, b)
			return err
		})
		if kerr != nil {
			continue
		}
		for _, k := range keys {
			if _, ok := n.svc.PeekResult(k); !ok {
				missing = append(missing, k)
			}
		}
	}
	if len(missing) == 0 {
		return
	}
	n.syncing.Store(true)
	defer n.syncing.Store(false)
	for _, k := range missing {
		if fpAEFetch.Fire() {
			continue
		}
		if n.aeBackfill(peer, k) {
			n.backfilled.Add(1)
		}
	}
}

// aeBackfill fetches one missing durable record from peer and hands it to
// acceptRecord, which validates it end to end and seeds the local cache.
func (n *Node) aeBackfill(peer, key string) bool {
	var frame []byte
	err := n.viaBreaker(peer, func() error {
		var err error
		frame, err = n.tr.Fetch(context.Background(), peer, key)
		return err
	})
	if err != nil {
		return false
	}
	_, err = n.acceptRecord(key, frame)
	return err == nil
}
