// Package span is the service-layer observability pipeline: structured
// job-lifecycle spans with exact-sum wall-clock attribution, a bounded
// per-job flight recorder and CRC-framed post-mortem dumps. Its phase
// histograms and job timeline feed internal/obs's exporters, the same
// /metrics registry and Chrome trace writer the simulator uses.
//
// The package mirrors the discipline of the simulator-side tracing layer
// (internal/obs): records ride on pooled rings, the hot record path is
// annotated //simlint:noalloc and benchmarked at 0 allocs/op, and the whole
// pipeline is purely observational — it reads timestamps the scheduler
// already produces and never influences scheduling decisions.
//
// The attribution invariant matches the simulator's TestAttributionReconciles:
// for every finished job, the phase durations partition the job's wall clock
// exactly —
//
//	queued + running + cache_hit == finish - submit
//
// with no rounding, gaps, or overlaps, by construction (phases are derived
// from the same monotonic readings the events carry). Flight-recorder dumps
// carry the invariant too, checked end to end by `tracecheck -flight`.
package span

import "time"

// Kind identifies one job-lifecycle event. Events are stamped by the
// scheduler component that owns the transition (see DESIGN.md §14 for the
// ownership table) and accumulate in the job's flight-recorder ring.
type Kind uint8

// Job lifecycle events. A normal run sees submit → admit → attempt →
// progress... → done; the cache-hit and coalesced fast paths collapse the
// middle, and hung/retry events annotate runs that misbehave.
const (
	EvSubmit    Kind = iota // job accepted by Submit
	EvAdmit                 // a worker popped the job off the queue (arg = worker lane)
	EvAttempt               // one simulation attempt began (arg = attempt #)
	EvProgress              // RunHandle heartbeat (arg = cycles, arg2 = retired)
	EvRetry                 // an attempt panicked and will be retried (arg = attempt #)
	EvCoalesce              // a duplicate submission coalesced onto this job (arg = follower count)
	EvCacheHit              // submission served from the result cache
	EvHung                  // watchdog flagged the job as stalled
	EvHungClear             // watchdog verdict cleared (progress resumed)
	EvDone                  // terminal: completed
	EvFailed                // terminal: failed (arg = attempts)
	EvCancelled             // terminal: cancelled
	EvDump                  // flight-recorder dump taken (in-ring marker)
	numKinds
)

var kindNames = [numKinds]string{
	"submit", "admit", "attempt", "progress", "retry", "coalesce",
	"cache_hit", "hung", "hung_clear", "done", "failed", "cancelled", "dump",
}

// String returns the event kind's snake_case name (also the dump encoding).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString inverts String; ok is false for unknown names.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Event is one timestamped lifecycle event. At is nanoseconds since the
// recorder's base (a single monotonic clock shared by every job of a
// service), so cross-job ordering and exact-sum phase arithmetic both hold.
type Event struct {
	At   int64
	Kind Kind
	Arg  uint64
	Arg2 uint64
}

// Phase is one segment of a job's wall-clock decomposition.
type Phase uint8

// The phases partition [submit, finish]:
//
//	total == queued + running + cache_hit
//
// for every finished job, by construction (phasesAt). Queued is submit →
// admit; Running is admit → terminal (it spans retries — EvRetry/EvAttempt
// events subdivide it in the flight recorder); CacheHit is the whole (tiny)
// span of a submission served from the result cache without running.
const (
	PhaseQueued Phase = iota
	PhaseRunning
	PhaseCacheHit
	NumPhases
)

var phaseNames = [NumPhases]string{"queued", "running", "cache_hit"}

// String returns the phase's snake_case name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// NoAdmit is the AdmitAt sentinel for jobs that never reached a worker
// (cache hits, cancelled-while-queued).
const NoAdmit int64 = -1

// Span is the compact per-job summary the recorder retains after a job
// finishes: identity, outcome, and the phase-boundary timestamps. It is
// value-typed — retention is a bounded slice of these, not live Job
// pointers.
type Span struct {
	JobID  string
	Client string
	Shard  int // worker lane that ran the job, in [0, workers)

	// Outcome is the terminal state name ("done", "failed", "cancelled").
	Outcome string
	Cached  bool
	// Hung reports whether the watchdog ever flagged the job.
	Hung      bool
	Attempts  int
	Coalesced uint64

	// Phase boundaries, nanoseconds since the recorder base. AdmitAt is
	// NoAdmit for jobs that never reached a worker.
	SubmitAt int64
	AdmitAt  int64
	FinishAt int64
}

// Total returns the span's wall clock in nanoseconds.
func (s *Span) Total() int64 { return s.FinishAt - s.SubmitAt }

// Phases decomposes the span. The durations always sum to Total exactly;
// TestSpanPhasesReconcile pins this for every lifecycle shape.
func (s *Span) Phases() [NumPhases]int64 {
	return phasesAt(s.SubmitAt, s.AdmitAt, s.FinishAt, s.Cached)
}

// phasesAt is the single exact-sum decomposition: end is the finish time for
// terminal spans or the dump instant for live ones. Every branch partitions
// [submit, end] with no remainder.
func phasesAt(submit, admit, end int64, cached bool) [NumPhases]int64 {
	var ph [NumPhases]int64
	total := end - submit
	if total < 0 {
		total = 0
	}
	switch {
	case cached:
		ph[PhaseCacheHit] = total
	case admit == NoAdmit:
		ph[PhaseQueued] = total
	default:
		queued := admit - submit
		if queued < 0 {
			queued = 0
		}
		if queued > total {
			queued = total
		}
		ph[PhaseQueued] = queued
		ph[PhaseRunning] = total - queued
	}
	return ph
}

// Seconds converts a phase duration to float seconds (histogram unit).
func Seconds(ns int64) float64 { return float64(ns) / float64(time.Second) }
