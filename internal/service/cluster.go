package service

// This file is the service's cluster-facing surface: everything the
// internal/cluster fabric layer needs to route jobs across nodes without
// reaching into scheduler internals. The service stays oblivious to
// membership and transports — the cluster package composes these hooks into
// the consistent-hash dispatch, peer fetch, anti-entropy, and steal
// protocols (DESIGN.md §15).

import (
	"errors"

	"repro/internal/sim"
)

// PeekResult returns the cached result for key without touching hit/miss
// counters, LRU recency, or failpoints — the peer-fetch read path.
func (s *Service) PeekResult(key string) (*sim.Result, bool) {
	return s.cache.peek(key)
}

// SeedResult installs a result computed on a peer into the cache, writing
// through to the durable store when one is attached. Results are
// content-addressed and immutable, so overwriting an existing entry is
// benign (the bytes are identical by determinism).
func (s *Service) SeedResult(key string, res *sim.Result) {
	s.cache.put(key, res)
}

// Idle reports whether a worker is free and nothing is queued — the
// condition under which the steal protocol lets a node take a peer's work.
// Jobs run on the calling goroutine (ExecuteNow) count as running, and a
// stolen job arrives through Submit and so is queued or running, so a node
// busy with stolen work does not steal more.
func (s *Service) Idle() bool {
	queued, running, _ := s.Load()
	return queued == 0 && running < s.cfg.Workers
}

// Saturated reports whether every worker is running a job — the condition
// under which a steal victim hands out a queued job. A node with a free
// worker declines: the worker is about to take the job itself.
func (s *Service) Saturated() bool {
	return int(s.running.Load()) >= s.cfg.Workers
}

// Load reads the queue depth and the running and hung job counts from the
// service's counters: the load a heartbeat reports, without the per-node
// rows Stats builds.
func (s *Service) Load() (queued, running, hung int) {
	return int(s.queued.Load()), int(s.running.Load()), int(s.hung.Load())
}

// Stealable counts the queued jobs TakeQueued would hand out one by one:
// each client's leading run of jobs that may leave the node. A heartbeat
// reports it as the steal signal, so a peer whose queue holds only jobs
// that must stay is not asked for one.
func (s *Service) Stealable() int {
	return s.queue.count(movable)
}

// ResultKeys lists every cached result key, sorted — the enumeration the
// anti-entropy digest is computed over. The in-memory cache mirrors the
// durable store (boot loads seed it, puts write through), so this is the
// node's durable record set without touching disk.
func (s *Service) ResultKeys() []string {
	return s.cache.keys()
}

// SetClusterStats installs the per-node stats hook: Stats() calls fn with
// the locally computed snapshot and attaches its return as Stats.Nodes. The
// indirection keeps the service → cluster dependency one-way (the cluster
// package imports service, never the reverse).
func (s *Service) SetClusterStats(fn func(local *Stats) []NodeStat) {
	if fn == nil {
		s.clusterStats.Store(nil)
		return
	}
	s.clusterStats.Store(&fn)
}

// NewRoutedJob registers a job whose simulation will run on another node:
// it appears in this node's job table (listings, status polls, spans) but is
// never queued locally — the cluster layer drives it to a terminal state via
// StartRouted/FinishRouted. Submit's fast paths apply (a cache hit or an
// identical in-flight job returns with fresh=false); only a fresh=true
// return obligates the caller to finish the job.
func (s *Service) NewRoutedJob(client, key string, cfg sim.Config) (j *Job, fresh bool, err error) {
	return s.admit(client, key, cfg, false, true)
}

// StartRouted transitions a routed job to running (the remote dispatch is
// about to begin) in lane 0, since no local worker runs it. It returns false
// when cancellation already arrived; the caller must then finish the job via
// FinishRouted with sim.ErrCancelled.
func (s *Service) StartRouted(j *Job) bool {
	return j.beginRunning(0)
}

// FinishRouted drives a routed job to its terminal state with a result
// computed elsewhere. A nil err caches the result locally (write-through)
// before completing, so followers coalesced onto j and later resubmissions
// hit the local cache.
func (s *Service) FinishRouted(j *Job, res *sim.Result, err error) {
	switch {
	case err == nil:
		s.cache.put(j.key, res)
		s.finishJob(j, StateDone, res, nil)
	case errors.Is(err, sim.ErrCancelled):
		s.finishJob(j, StateCancelled, res, err)
	default:
		s.dumpFlight(j, "failed", err)
		s.finishJob(j, StateFailed, nil, err)
	}
}

// TakeQueued removes one queued job for a thief node; the caller forwards
// it and follows it as a routed job (StartRouted/FinishRouted), so from here
// on SubmitForwarded never coalesces onto it. A cancel-requested job must
// not leave the node: it stays queued for the local workers, which finish
// it as cancelled. ok=false means nothing stealable is queued.
func (s *Service) TakeQueued() (j *Job, ok bool) {
	j, ok = s.queue.tryPop(movable)
	if !ok {
		return nil, false
	}
	s.queued.Add(-1)
	s.mu.Lock()
	j.remote = true
	s.mu.Unlock()
	return j, true
}

// movable reports whether a queued job may leave the node: no cancel is
// requested.
func movable(j *Job) bool { return !j.cancelRequested() }

// ExecuteNow runs j to a terminal state on the calling goroutine, in the
// least busy worker lane — the fallback when a routed or stolen-out job's
// owner or thief is gone and the job lands back on this node. Safe to call
// on a job that StartRouted already marked running; from here on the job
// runs locally, so SubmitForwarded may coalesce onto it again.
func (s *Service) ExecuteNow(j *Job) {
	s.mu.Lock()
	j.remote = false
	s.mu.Unlock()
	s.execute(j, s.idleLane())
}

// NodeStat is one fabric node's row in Stats.Nodes (and the NODE table in
// emcctl top). The self row carries the full counter set; peer rows carry
// what the last heartbeat reported.
type NodeStat struct {
	Node  string `json:"node"`
	Addr  string `json:"addr,omitempty"`
	State string `json:"state"` // "self" | "alive" | "dead"

	Queued  int `json:"queued"`
	Running int `json:"running"`
	Hung    int `json:"hung"`

	// Syncing reports the node is mid anti-entropy backfill (self row from
	// the local flag, peer rows from the last heartbeat).
	Syncing bool `json:"syncing,omitempty"`

	// Cluster counters (self row only).
	Forwarded  uint64 `json:"forwarded,omitempty"`
	StolenIn   uint64 `json:"stolenIn,omitempty"`
	StolenOut  uint64 `json:"stolenOut,omitempty"`
	Torn       uint64 `json:"torn,omitempty"`
	Fetched    uint64 `json:"fetched,omitempty"`
	Backfilled uint64 `json:"backfilled,omitempty"`

	// HeartbeatAgeMS is how long ago the peer last answered or sent an RPC,
	// heartbeats included (peer rows; -1 when never heard from).
	HeartbeatAgeMS int64 `json:"heartbeatAgeMS,omitempty"`
}
