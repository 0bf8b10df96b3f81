package cluster

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Transport errors. Everything the fabric does is failover-driven, so
// errors classify into exactly three buckets: the node cannot be reached
// right now (failover), the node is up but refusing work (run the job
// here), or the request itself is bad (permanent).
var (
	// ErrUnreachable means the node did not answer: connection failure, a
	// partition, a kill, or a draining service. The caller fails over.
	ErrUnreachable = errors.New("cluster: node unreachable")
	// ErrBusy means the node answered but its queue is full (the remote
	// service returned ErrQueueFull, HTTP 429). The caller runs the job
	// locally instead.
	ErrBusy = errors.New("cluster: node busy")
	// ErrNoRecord means a fetch found no cached record under the key.
	ErrNoRecord = errors.New("cluster: no such record")
	// ErrNodeClosed means the local node began shutting down while a routed
	// job was still in flight; the waiter is failed rather than left to
	// block Close forever.
	ErrNodeClosed = errors.New("cluster: node closed")
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
	// Stealable counts the queued jobs a steal could take (see
	// service.Stealable): the steal signal. Queued stays the queue depth.
	Stealable int `json:"stealable"`
	// Syncing reports an anti-entropy backfill in progress on the node.
	Syncing bool `json:"syncing,omitempty"`
}
