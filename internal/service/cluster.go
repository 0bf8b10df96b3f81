package service

// This file is the service's cluster-facing surface: everything the
// internal/cluster fabric layer needs to route jobs across nodes without
// reaching into scheduler internals. The service stays oblivious to
// membership and transports — the cluster package composes these hooks into
// the consistent-hash dispatch, peer fetch, anti-entropy, and steal
// protocols (DESIGN.md §15).

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// ErrRecordCorrupt is the exported alias of the durable-record validation
// error: DecodeRecord wraps every structural failure (bad magic, length
// mismatch, CRC, truncated JSON) in it, so a receiver of a peer's frame can
// treat "torn frame" as one condition.
var ErrRecordCorrupt = errDurableCorrupt

// CacheKey derives the content address of a config (fingerprint plus the
// observability variant). cacheable=false means the config holds function
// values and has no canonical identity: such jobs are never routed, cached,
// or coalesced — they run on the node that received them.
func CacheKey(cfg *sim.Config) (key string, cacheable bool) {
	return cacheKey(cfg)
}

// EncodeRecord frames a completed result as a durable EMCR record — the
// exact byte format the on-disk cache uses, reused verbatim as the
// peer-fetch and backfill wire format (a record is valid anywhere).
func EncodeRecord(key string, res *sim.Result) ([]byte, error) {
	return encodeDurableRecord(&durableRecord{Key: key, Result: res})
}

// DecodeRecord validates an EMCR frame end to end (magic, version, length,
// CRC, payload shape) and returns its key and Result. Every failure mode
// wraps ErrRecordCorrupt.
func DecodeRecord(frame []byte) (string, *sim.Result, error) {
	rec, err := decodeDurableRecord(frame)
	if err != nil {
		return "", nil, err
	}
	return rec.Key, rec.Result, nil
}

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
	return s.queued.Load() == 0 && s.running.Load() < int64(s.cfg.Workers)
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
// StartRouted/FinishRouted. The same terminal fast paths as Submit apply:
// a cached result returns an already-done job (fresh=false), an identical
// in-flight submission coalesces onto the existing job (fresh=false). Only
// a fresh=true return obligates the caller to finish the job.
func (s *Service) NewRoutedJob(client, key string, cfg sim.Config) (j *Job, fresh bool, err error) {
	if client == "" {
		client = "default"
	}
	if err := fpQueueAdmit.Err(); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false, ErrDraining
	}
	s.seq++
	id := fmt.Sprintf("j%d", s.seq)
	if res, ok := s.cache.get(key); ok {
		j := newJob(id, key, client, true, cfg, s.rec)
		j.cached = true
		s.jobs[id] = j
		s.order = append(s.order, j)
		s.submitted.Add(1)
		s.mu.Unlock()
		j.finalize(StateDone, res, nil)
		s.completed.Add(1)
		s.publish()
		return j, false, nil
	}
	if prev, ok := s.inflight[key]; ok {
		s.coalesced.Add(1)
		s.mu.Unlock()
		prev.recordCoalesce()
		s.publish()
		return prev, false, nil
	}
	j = newJob(id, key, client, true, cfg, s.rec)
	j.remote = true
	s.jobs[id] = j
	s.order = append(s.order, j)
	s.inflight[key] = j
	s.submitted.Add(1)
	s.mu.Unlock()
	s.publish()
	return j, true, nil
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
	s.publish()
}

// TakeQueued removes one queued job for a thief node; the caller forwards
// it and follows it as a routed job (StartRouted/FinishRouted), so from here
// on SubmitForwarded never coalesces onto it. Jobs that must not leave the
// node (uncacheable — no canonical identity to route under — or already
// cancel-requested) are not handed out; they are executed locally on a
// fresh goroutine instead, and the next job is tried. ok=false means
// nothing stealable is queued.
func (s *Service) TakeQueued() (j *Job, ok bool) {
	for {
		j, ok := s.queue.tryPop()
		if !ok {
			return nil, false
		}
		s.queued.Add(-1)
		if j.cacheable && !j.cancelRequested() {
			s.mu.Lock()
			j.remote = true
			s.mu.Unlock()
			return j, true
		}
		go s.ExecuteNow(j)
	}
}

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
	s.publish()
}

// NodeStat is one fabric node's row in Stats.Nodes (and the NODE table in
// emcctl top). The self row carries the full counter set; peer rows carry
// what the last heartbeat reported.
type NodeStat struct {
	Node  string `json:"node"`
	Addr  string `json:"addr,omitempty"`
	State string `json:"state"` // "self" | "alive" | "degraded" | "dead"

	Queued  int `json:"queued"`
	Running int `json:"running"`
	Hung    int `json:"hung"`

	// Syncing reports the node is mid anti-entropy backfill (self row from
	// the local flag, peer rows from the last heartbeat).
	Syncing bool `json:"syncing,omitempty"`

	// Cluster counters (self row only).
	Forwarded    uint64 `json:"forwarded,omitempty"`
	Redispatched uint64 `json:"redispatched,omitempty"`
	StolenIn     uint64 `json:"stolenIn,omitempty"`
	StolenOut    uint64 `json:"stolenOut,omitempty"`
	Torn         uint64 `json:"torn,omitempty"`
	Fetched      uint64 `json:"fetched,omitempty"`
	Backfilled   uint64 `json:"backfilled,omitempty"`
	BreakerTrips uint64 `json:"breakerTrips,omitempty"`

	// HeartbeatAgeMS is the age of the last successful heartbeat (peer rows;
	// -1 when never heard from).
	HeartbeatAgeMS int64 `json:"heartbeatAgeMS,omitempty"`
}
