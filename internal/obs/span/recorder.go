package span

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

const (
	// ringEvents is the per-job flight-recorder capacity.
	ringEvents = 256
	// retainSpans bounds the finished spans kept for the Chrome export and
	// the /api/v1/trace endpoint; the oldest are dropped beyond it.
	retainSpans = 4096
)

// phaseBuckets are the cumulative upper bounds (seconds) of the phase
// histograms — roughly log-spaced from "instant" to "minutes", matching the
// spread between cache hits (~µs) and long detailed sweeps. +Inf is
// implicit.
var phaseBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// phaseMetric names the phase histograms (exported as
// emcsim_service_phase_seconds{phase,shard}).
const phaseMetric = "service_phase_seconds"

// Recorder owns the service's span pipeline: the monotonic time base every
// event is stamped against, the pool of flight-recorder rings, the bounded
// retention of finished spans, and (once Registered) the phase histograms
// fed on every finish.
type Recorder struct {
	base time.Time

	mu      sync.Mutex
	pool    []*Ring
	done    []Span
	dropped uint64
	// hist[p][shard] is the phase-p histogram series of a worker lane;
	// empty until Register.
	hist [NumPhases][]*obs.HistogramSeries
}

// NewRecorder builds a recorder.
func NewRecorder() *Recorder { return &Recorder{base: time.Now()} }

// Register adds the phase histograms to reg — seconds per lifecycle phase,
// one series per phase and worker lane in [0, shards) — and feeds them from
// every FinishSpan. Call before any job finishes.
func (r *Recorder) Register(reg *obs.Registry, shards int) {
	h := reg.NewHistogram(phaseMetric, phaseBuckets)
	for p := Phase(0); p < NumPhases; p++ {
		for s := 0; s < shards; s++ {
			r.hist[p] = append(r.hist[p], h.With(map[string]string{"phase": p.String(), "shard": strconv.Itoa(s)}))
		}
	}
}

// Now returns nanoseconds since the recorder's base. time.Since reads the
// monotonic clock, so readings never go backwards and phase arithmetic on
// them is exact.
func (r *Recorder) Now() int64 { return int64(time.Since(r.base)) }

// AcquireRing hands out a pooled flight-recorder ring.
func (r *Recorder) AcquireRing() *Ring {
	r.mu.Lock()
	if n := len(r.pool); n > 0 {
		rg := r.pool[n-1]
		r.pool = r.pool[:n-1]
		r.mu.Unlock()
		return rg
	}
	r.mu.Unlock()
	return NewRing(ringEvents)
}

// FinishSpan retains a finished job's span, feeds the phase histograms, and
// recycles its ring. The span's phase boundaries must be final.
func (r *Recorder) FinishSpan(sp Span, ring *Ring) {
	phases := sp.Phases()
	for p, lanes := range r.hist {
		if sp.Shard >= 0 && sp.Shard < len(lanes) && (phases[p] > 0 || activePhase(sp, Phase(p))) {
			lanes[sp.Shard].Observe(Seconds(phases[p]))
		}
	}
	r.mu.Lock()
	if len(r.done) >= retainSpans {
		// Drop the oldest half in one move so retention is amortized O(1).
		half := len(r.done) / 2
		r.dropped += uint64(half)
		r.done = append(r.done[:0], r.done[half:]...)
	}
	r.done = append(r.done, sp)
	if ring != nil {
		ring.reset()
		r.pool = append(r.pool, ring)
	}
	r.mu.Unlock()
}

// activePhase reports whether p is a phase this span actually went through
// (so zero-duration traversals still count in the histograms: a cache hit
// is a meaningful 0-second sample, a phase the job skipped is not).
func activePhase(sp Span, p Phase) bool {
	switch p {
	case PhaseCacheHit:
		return sp.Cached
	case PhaseQueued:
		return !sp.Cached
	case PhaseRunning:
		return !sp.Cached && sp.AdmitAt != NoAdmit
	}
	return false
}

// Spans returns a copy of the retained finished spans, in finish order.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.done...)
}

// Dropped returns how many finished spans were evicted by the retention cap.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// AddTrace adds finished job spans to e as one process, labelled label: one
// thread per worker lane ("shard N") and one span per job — "b" at submit,
// an "admitted" step when a worker took it, "e" at finish. Timestamps are
// microseconds on the recorder's monotonic base. Pass finished spans only:
// an unterminated span would fail validation.
func AddTrace(e *obs.ChromeExport, label string, spans []Span) {
	e.AddProcess(label, func(p *obs.TraceProcess) {
		shards := make([]int, 0, len(spans))
		for _, sp := range spans {
			shards = append(shards, sp.Shard)
		}
		slices.Sort(shards)
		for _, s := range slices.Compact(shards) {
			p.Thread(s, fmt.Sprintf("shard %d", s))
		}
		us := func(ns int64) float64 { return float64(ns) / 1e3 }
		for _, sp := range spans {
			name := "job " + sp.Outcome
			if sp.Cached {
				name = "job cache-hit"
			}
			args := map[string]any{"client": sp.Client, "attempts": sp.Attempts}
			if sp.Hung {
				args["hung"] = true
			}
			if sp.Coalesced > 0 {
				args["coalesced"] = sp.Coalesced
			}
			p.Event("b", "job", name, sp.JobID, sp.Shard, us(sp.SubmitAt), args)
			if sp.AdmitAt != NoAdmit {
				p.Event("n", "job", "admitted", sp.JobID, sp.Shard, us(sp.AdmitAt), nil)
			}
			p.Event("e", "job", name, sp.JobID, sp.Shard, us(sp.FinishAt), nil)
		}
	})
}
