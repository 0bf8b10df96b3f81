package cluster

import (
	"sort"
	"sync"
	"time"
)

// Member is one fabric node's identity as exchanged through join: a stable
// id (the ring hashes it), for HTTP fabrics the advertised base URL, and
// the node's ring weight (virtual-point multiplier; 0 means the default 1).
// Weight travels with the member through join gossip so every node builds
// the same weighted ring.
type Member struct {
	ID     string `json:"id"`
	Addr   string `json:"addr,omitempty"`
	Weight int    `json:"weight,omitempty"`
}

// memberRow is one member's liveness row, and a row of a membership
// snapshot.
type memberRow struct {
	Member
	Alive    bool
	Self     bool
	LastBeat time.Time
	Health   Health // the last heartbeat payload (peers)
}

// membership is the peer-health table: every node this node has heard of,
// whether it is alive, when it last answered, and its last heartbeat
// payload. It holds all per-peer state under one lock. Members are never
// removed — a dead node is skipped by the ring's liveness predicate and
// revived by the next answered RPC (the heartbeat loop probes dead peers),
// so a healed partition converges without a membership epoch protocol.
type membership struct {
	mu sync.Mutex
	m  map[string]*memberRow
}

func newMembership() *membership { return &membership{m: map[string]*memberRow{}} }

// upsert adds a member if unknown (returning true), or refreshes its
// address if it re-announced with one.
func (ms *membership) upsert(mem Member, self bool, now time.Time) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if row, ok := ms.m[mem.ID]; ok {
		if mem.Addr != "" {
			row.Addr = mem.Addr
		}
		return false
	}
	ms.m[mem.ID] = &memberRow{Member: mem, Alive: true, Self: self, LastBeat: now}
	return true
}

// addr resolves a member id to its advertised address.
func (ms *membership) addr(id string) (string, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	row, ok := ms.m[id]
	if !ok {
		return "", false
	}
	return row.Addr, true
}

// markDead records a failed reach of id: an unreachable RPC does not wait
// for the suspect sweep.
func (ms *membership) markDead(id string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if row, ok := ms.m[id]; ok && !row.Self {
		row.Alive = false
	}
}

// markAlive records that id answered an RPC, or sent one.
func (ms *membership) markAlive(id string, now time.Time) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if row, ok := ms.m[id]; ok {
		row.Alive = true
		row.LastBeat = now
	}
}

// setHealth stores id's heartbeat payload.
func (ms *membership) setHealth(id string, h Health) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if row, ok := ms.m[id]; ok {
		row.Health = h
	}
}

// isDead is the ring's liveness predicate. Self is never dead.
func (ms *membership) isDead(id string) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	row, ok := ms.m[id]
	return ok && !row.Alive
}

// sweep marks every non-self member whose last heartbeat is older than
// timeout as dead.
func (ms *membership) sweep(now time.Time, timeout time.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for _, row := range ms.m {
		if !row.Self && row.Alive && now.Sub(row.LastBeat) > timeout {
			row.Alive = false
		}
	}
}

// rows snapshots the members keep accepts (every member when keep is nil),
// sorted by id.
func (ms *membership) rows(keep func(*memberRow) bool) []memberRow {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]memberRow, 0, len(ms.m))
	for _, row := range ms.m {
		if keep == nil || keep(row) {
			out = append(out, *row)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// isPeer keeps every other member, dead ones too: the heartbeat loop probes
// dead peers, which is how they revive. isLivePeer keeps the live ones.
func isPeer(r *memberRow) bool     { return !r.Self }
func isLivePeer(r *memberRow) bool { return !r.Self && r.Alive }
