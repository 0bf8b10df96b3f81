package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// Transport errors. Everything the fabric does is retry- or
// failover-driven, so errors classify into exactly three buckets: the node
// cannot be reached right now (failover), the node is up but refusing work
// (back off, then fall back), or the request itself is bad (permanent).
var (
	// ErrUnreachable means the node did not answer: connection failure, a
	// partition, a kill, or a draining service. The caller fails over.
	ErrUnreachable = errors.New("cluster: node unreachable")
	// ErrBusy means the node answered but its queue is full (the remote
	// service returned ErrQueueFull). The caller backs off and retries.
	ErrBusy = errors.New("cluster: node busy")
	// ErrNoRecord means a fetch found no cached record under the key.
	ErrNoRecord = errors.New("cluster: no such record")
	// ErrNodeClosed means the local node began shutting down while a routed
	// job was still in flight; the waiter is failed rather than left to
	// block Close forever.
	ErrNodeClosed = errors.New("cluster: node closed")
	// ErrPeerDegraded means the per-peer circuit breaker is open: recent
	// consecutive failures tripped it, and the cooldown has not elapsed. The
	// caller treats the peer as unreachable without touching the wire.
	ErrPeerDegraded = errors.New("cluster: peer degraded (breaker open)")
)

// RemoteError is a terminal failure reported by the owning node. The
// original error crossed the wire as text, so callers that classify
// failures (the chaos suite) match on Msg rather than errors.Is.
type RemoteError struct {
	Node string
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("cluster: job failed on node %s: %s", e.Node, e.Msg)
}

// SubmitRequest forwards one job to its ring owner. Key is the sender's
// computed cache key; the receiver recomputes it from Cfg and rejects a
// mismatch, so a lossy config encoding can never alias two configurations.
type SubmitRequest struct {
	Client string     `json:"client"`
	Key    string     `json:"key"`
	Cfg    sim.Config `json:"config"`
}

// Health is one node's heartbeat payload.
type Health struct {
	ID      string `json:"id"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	Hung    int    `json:"hung"`
	// Syncing reports an anti-entropy backfill in progress on the node.
	Syncing bool `json:"syncing,omitempty"`
}

// digestBuckets is the anti-entropy digest width: the content-addressed
// keyspace folds into this many buckets by ringHash(key). 64 keeps the
// digest a few hundred bytes while a single differing record still isolates
// to one bucket's key list, so backfill traffic is proportional to the
// delta, not the cache size.
const digestBuckets = 64

// BucketSum summarizes one digest bucket: the record count and the XOR of
// ringHash(key) over the bucket's keys. XOR is order-independent and
// incremental, and Count catches the pathological XOR collision of two
// differing sets with equal parity sums.
type BucketSum struct {
	Count uint32 `json:"count"`
	Sum   uint64 `json:"sum"`
}

// Digest is one node's anti-entropy summary of its durable record set.
// Two nodes with identical digests hold identical key sets with
// overwhelming probability; a differing bucket triggers a Keys exchange
// for just that bucket.
type Digest struct {
	Node    string                   `json:"node"`
	Buckets [digestBuckets]BucketSum `json:"buckets"`
}

// Transport is the inter-node RPC surface. Two implementations exist: the
// in-process LocalTransport (tests, chaos schedules, same-process fabrics)
// and the HTTPTransport speaking the /api/v1/cluster endpoints between
// emcserve processes. Node ids, not addresses, name the target — the
// transport resolves them through the membership table.
type Transport interface {
	// Submit hands a forwarded job to its owner and returns the owner's
	// job status (which may already be terminal on a cache hit).
	Submit(ctx context.Context, node string, req SubmitRequest) (service.Status, error)
	// Status returns a forwarded job's status on its owner once the job is
	// terminal or wait has elapsed, whichever comes first (a long-poll; zero
	// wait answers at once).
	Status(ctx context.Context, node, jobID string, wait time.Duration) (service.Status, error)
	// Cancel propagates a cancellation to the owner. Best effort.
	Cancel(ctx context.Context, node, jobID string) error
	// Fetch retrieves the durable EMCR frame for key from a peer's cache.
	Fetch(ctx context.Context, node, key string) ([]byte, error)
	// Ping probes a peer's liveness and load.
	Ping(ctx context.Context, node string) (Health, error)
	// Steal asks a peer to forward one of its queued jobs to the caller,
	// which the transport names to the peer. The reply carries no job: true
	// means the peer accepted and the job follows as an ordinary forwarded
	// Submit; false means it declined.
	Steal(ctx context.Context, node string) (bool, error)
	// Join announces mem to a peer and returns the peer's member list.
	Join(ctx context.Context, node string, mem Member) ([]Member, error)
	// Digest fetches a peer's anti-entropy summary of its durable records.
	Digest(ctx context.Context, node string) (Digest, error)
	// Keys lists a peer's durable record keys in one digest bucket.
	Keys(ctx context.Context, node string, bucket int) ([]string, error)
}
