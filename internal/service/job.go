// Package service is the simulation-job subsystem: a bounded, per-client
// fair job queue shared by a pool of workers, a content-addressed result
// cache keyed by sim.Config.Fingerprint, and (in http.go) the HTTP API the
// emcserve command exposes.
//
// Jobs are content-addressed: two submissions of the same fingerprint
// coalesce while the first is in flight and hit the result cache after it
// completes, so sweep workloads (the figure suite, parameter matrices)
// never re-simulate a configuration. Determinism makes this sound — equal
// fingerprints imply bit-identical Results (see DESIGN.md §10).
package service

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs/span"
	"repro/internal/sim"
)

// State is a job's lifecycle state.
type State string

// The job lifecycle: queued -> running -> done | failed | cancelled.
// Cache hits and coalesced submissions skip straight to the terminal state
// of the run that did (or will do) the work.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one scheduled simulation. All mutable state is guarded by mu; the
// done channel closes exactly once when the job reaches a terminal state.
type Job struct {
	id     string
	key    string // cache key (fingerprint + observability variant)
	client string
	shard  int // lane of the worker that ran the job (0 until it runs)
	cfg    sim.Config
	// remote marks a job this node follows on a peer — a routed job, or a
	// queued one forwarded to a thief — until it falls back to run here.
	// Guarded by the Service's mu, not the job's: SubmitForwarded reads it
	// under that lock when it decides whether to coalesce.
	remote bool

	mu        sync.Mutex
	state     State
	cached    bool // result served from the cache, no simulation ran
	attempts  int  // simulation attempts (>1 only after panic retries)
	err       error
	res       *sim.Result
	progress  sim.Progress
	handle    *sim.RunHandle
	cancelReq bool
	hung      bool      // watchdog verdict: running but no recent progress
	lastBeat  time.Time // last progress callback (or attempt start)
	submitted time.Time
	started   time.Time
	finished  time.Time

	// Span pipeline (see internal/obs/span and DESIGN.md §14): every
	// lifecycle transition and progress heartbeat is recorded into the
	// pooled flight-recorder ring; the phase boundaries below feed the
	// exact-sum wall-clock attribution when the job finishes.
	rec       *span.Recorder
	ring      *span.Ring
	submitAt  int64 // ns on the recorder's monotonic base
	admitAt   int64 // span.NoAdmit until a worker pops the job
	finishAt  int64 // recorder ns at finalize (0 while live)
	hungEver  bool  // watchdog flagged the job at least once
	coalesced uint64

	done chan struct{}
}

// Status is a JSON-friendly snapshot of a job.
type Status struct {
	ID       string `json:"id"`
	Client   string `json:"client"`
	Key      string `json:"key"`
	Shard    int    `json:"shard"` // worker lane that ran the job
	State    State  `json:"state"`
	Cached   bool   `json:"cached"`
	Attempts int    `json:"attempts"`
	Hung     bool   `json:"hung,omitempty"`
	Error    string `json:"error,omitempty"`

	Cycles       uint64  `json:"cycles"`
	Retired      uint64  `json:"retiredInstructions"`
	TargetInstrs uint64  `json:"targetInstructions"`
	IPC          float64 `json:"ipc"`

	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`
}

func newJob(id, key, client string, cfg sim.Config, rec *span.Recorder) *Job {
	j := &Job{
		id: id, key: key, client: client,
		cfg: cfg, state: StateQueued, submitted: time.Now(),
		admitAt: span.NoAdmit,
		done:    make(chan struct{}),
	}
	if rec != nil {
		j.rec = rec
		j.ring = rec.AcquireRing()
		j.submitAt = rec.Now()
		j.ring.Record(j.submitAt, span.EvSubmit, 0, 0)
	}
	return j
}

// record stamps one lifecycle event into the job's flight ring. Callers hold
// j.mu; the ring is nil before the recorder attaches and after finalize
// recycled it, so late callbacks (a racing setProgress) are safe no-ops.
func (j *Job) record(k span.Kind, arg, arg2 uint64) {
	if j.ring != nil {
		j.ring.Record(j.rec.Now(), k, arg, arg2)
	}
}

// recordCoalesce notes a duplicate submission riding on this job.
func (j *Job) recordCoalesce() {
	j.mu.Lock()
	j.coalesced++
	j.record(span.EvCoalesce, j.coalesced, 0)
	j.mu.Unlock()
}

// recordRetry notes a panicked attempt that will be retried.
func (j *Job) recordRetry() {
	j.mu.Lock()
	j.record(span.EvRetry, uint64(j.attempts), 0)
	j.mu.Unlock()
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Key returns the job's cache key.
func (j *Job) Key() string { return j.key }

// Client returns the submitting client's name.
func (j *Job) Client() string { return j.client }

// Config returns the job's simulation configuration (a copy; the cluster
// layer forwards it to the owning node).
func (j *Job) Config() sim.Config { return j.cfg }

// ReportProgress records a progress snapshot observed remotely (the cluster
// layer polls the owning node and mirrors progress into the local job, which
// also feeds the hung watchdog's heartbeat).
func (j *Job) ReportProgress(p sim.Progress) { j.setProgress(p) }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.id, Client: j.client, Key: j.key, Shard: j.shard,
		State: j.state, Cached: j.cached, Attempts: j.attempts, Hung: j.hung,
		Cycles: j.progress.Cycles, Retired: j.progress.Retired,
		TargetInstrs: j.progress.TargetInstrs, IPC: j.progress.IPC,
		SubmittedAt: j.submitted,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// Wait blocks until the job is terminal or ctx is done, and returns the
// job's result. Cancelled jobs return the partial result (possibly nil)
// together with sim.ErrCancelled; failed jobs return their error.
func (j *Job) Wait(ctx context.Context) (*sim.Result, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-j.done:
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res, j.err
}

// Result returns the job's result if it is terminal (nil otherwise).
func (j *Job) Result() (*sim.Result, error, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, nil, false
	}
	return j.res, j.err, true
}

// setProgress records a progress snapshot (called from the simulation
// goroutine via the RunHandle callback).
func (j *Job) setProgress(p sim.Progress) {
	j.mu.Lock()
	j.progress = p
	j.lastBeat = time.Now()
	j.record(span.EvProgress, p.Cycles, p.Retired)
	j.mu.Unlock()
}

// hungCheck is the watchdog probe: for a running job it compares the time
// since the last heartbeat against timeout and updates the hung flag.
// Detection only — the run is left alone (see DESIGN.md §11). It returns the
// current verdict, whether it changed, and the job's lane.
func (j *Job) hungCheck(now time.Time, timeout time.Duration) (hung, changed bool, lane int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	was := j.hung
	if j.state != StateRunning {
		j.hung = false
	} else {
		j.hung = now.Sub(j.lastBeat) > timeout
	}
	if j.hung != was {
		if j.hung {
			j.hungEver = true
			j.record(span.EvHung, uint64(j.attempts), 0)
		} else {
			j.record(span.EvHungClear, 0, 0)
		}
	}
	return j.hung, j.hung != was, j.shard
}

// requestCancel marks the job for cancellation and, when a run is in
// flight, cancels its handle. Queued jobs are finalized by the worker that
// eventually pops them; terminal jobs ignore the request.
func (j *Job) requestCancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.cancelReq = true
	if j.handle != nil {
		j.handle.Cancel()
	}
}

// CancelRequested reports whether cancellation has been requested — the
// cluster layer polls it to propagate cancels to the owning node.
func (j *Job) CancelRequested() bool { return j.cancelRequested() }

// cancelRequested reports whether cancellation has been requested.
func (j *Job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelReq
}

// beginRunning transitions queued -> running in the given worker lane unless
// cancellation already arrived; it returns false in that case and the caller
// finalizes.
func (j *Job) beginRunning(lane int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelReq {
		return false
	}
	j.shard = lane
	j.state = StateRunning
	j.started = time.Now()
	if j.rec != nil {
		j.admitAt = j.rec.Now()
		if j.ring != nil {
			j.ring.Record(j.admitAt, span.EvAdmit, uint64(j.shard), 0)
		}
	}
	return true
}

// beginAttempt counts one simulation attempt (including ones that panic
// before a handle exists).
func (j *Job) beginAttempt() {
	j.mu.Lock()
	j.attempts++
	j.lastBeat = time.Now()
	j.record(span.EvAttempt, uint64(j.attempts), 0)
	j.mu.Unlock()
}

// attachHandle publishes the run's handle so Cancel can reach it. If a
// cancellation raced in between beginRunning and here, it returns false and
// the caller cancels the handle before running.
func (j *Job) attachHandle(h *sim.RunHandle) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.handle = h
	return !j.cancelReq
}

// finalize moves the job to a terminal state exactly once.
func (j *Job) finalize(state State, res *sim.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.res = res
	j.err = err
	j.handle = nil
	j.hung = false
	j.finished = time.Now()
	if res != nil {
		// Final progress reflects the completed (or partially completed) run.
		j.progress = sim.Progress{
			Cycles:       res.Cycles,
			TargetInstrs: j.cfg.InstrPerCore * uint64(len(j.cfg.Benchmarks)),
		}
		for _, c := range res.Cores {
			j.progress.Retired += c.Stats.Retired
		}
		if res.Cycles > 0 {
			j.progress.IPC = float64(j.progress.Retired) / float64(res.Cycles)
		}
	}
	if j.rec != nil {
		// Close out the span: stamp the terminal event, hand the span to the
		// recorder (retention + phase histograms), recycle the ring. The
		// finish timestamp taken here is the span's exact-sum upper bound.
		if j.cached {
			j.record(span.EvCacheHit, 0, 0)
		}
		j.finishAt = j.rec.Now()
		term := span.EvCancelled
		switch state {
		case StateDone:
			term = span.EvDone
		case StateFailed:
			term = span.EvFailed
		}
		if j.ring != nil {
			j.ring.Record(j.finishAt, term, uint64(j.attempts), 0)
		}
		ring := j.ring
		j.ring = nil
		j.rec.FinishSpan(span.Span{
			JobID: j.id, Client: j.client, Shard: j.shard,
			Outcome: string(state), Cached: j.cached, Hung: j.hungEver,
			Attempts: j.attempts, Coalesced: j.coalesced,
			SubmitAt: j.submitAt, AdmitAt: j.admitAt, FinishAt: j.finishAt,
		}, ring)
	}
	close(j.done)
}

// buildDump snapshots the job for a flight-recorder dump (reason is one of
// "hung", "panic", "failed"). The phase decomposition uses the dump instant
// as the end bound for live jobs, so the dump's PhasesNS exact-sums to its
// WallNS the same way a finished span's phases sum to its total.
func (j *Job) buildDump(reason string) *span.Dump {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rec == nil {
		return nil
	}
	now := j.rec.Now()
	end := now
	if j.state.Terminal() {
		end = j.finishAt
	}
	j.record(span.EvDump, 0, 0)
	sp := span.Span{SubmitAt: j.submitAt, AdmitAt: j.admitAt, FinishAt: end, Cached: j.cached}
	d := &span.Dump{
		JobID: j.id, Key: j.key, Client: j.client, Shard: j.shard,
		Reason: reason, State: string(j.state), Cached: j.cached,
		Attempts:   j.attempts,
		SubmitAtNS: j.submitAt, AdmitAtNS: j.admitAt, DumpAtNS: now,
		WallNS:   sp.Total(),
		PhasesNS: map[string]int64{},
		Cycles:   j.progress.Cycles, Retired: j.progress.Retired,
		TargetInstrs: j.progress.TargetInstrs, IPC: j.progress.IPC,
	}
	if j.state.Terminal() {
		d.FinishAtNS = end
	}
	phases := sp.Phases()
	for p := span.Phase(0); p < span.NumPhases; p++ {
		if phases[p] != 0 {
			d.PhasesNS[p.String()] = phases[p]
		}
	}
	if j.ring != nil {
		evs := j.ring.Events(nil)
		d.Events = make([]span.DumpEvent, len(evs))
		for i, ev := range evs {
			d.Events[i] = span.DumpEvent{AtNS: ev.At, Kind: ev.Kind.String(), Arg: ev.Arg, Arg2: ev.Arg2}
		}
		d.TruncatedEvents = j.ring.Truncated()
	}
	if j.err != nil {
		d.Error = j.err.Error()
	}
	return d
}
