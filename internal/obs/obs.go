// Package obs is the simulator's observability layer: request-lifecycle
// tracing, latency attribution, a live metric registry, and the exporters
// (Chrome trace_event JSON, Prometheus text) that the service's job
// spans (internal/obs/span) share.
//
// The layer is zero-overhead when disabled: the simulator holds a nil
// *Tracer and every instrumentation site is a single pointer test. When
// enabled, trace records ride on the simulator's pooled request objects and
// are themselves pooled, so the hot path stays allocation-free in steady
// state. Tracing is purely observational — it reads timestamps the
// simulator already produces and must never change simulation outcomes
// (internal/sim's TestCycleSkipDeterminism pins this).
package obs

// Stage identifies one point in a memory request's lifecycle. Stages are
// stamped in wall-clock (cycle) order by the component that owns the event;
// see DESIGN.md §9 for the ownership table.
type Stage uint8

// The lifecycle stages of a memory request. Core-issued demand misses see
// the full sequence; EMC-issued requests skip the stages their shortcut
// path bypasses (that bypass is exactly the latency the paper's Figure 19
// attributes), and prefetches terminate at the slice.
const (
	StageIssue      Stage = iota // core/EMC creates the request
	StageSliceReach              // request arrives at the owning LLC slice
	StageSliceDone               // LLC tag lookup completes (hit/miss known)
	StageMCReach                 // request admitted at the memory controller
	StageDRAMIssue               // first DRAM command for the line
	StageDRAMDone                // last data beat at the controller
	StageFill                    // data delivered to the requester
	numStages
)

var stageNames = [numStages]string{
	"issue", "slice_reach", "slice_done", "mc_reach",
	"dram_issue", "dram_done", "fill",
}

// String returns the stage's snake_case name (also used by exporters).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Source classifies who created a request.
type Source uint8

// Request sources.
const (
	SrcCore     Source = iota // core demand load
	SrcEMC                    // EMC-issued load (dependent-chain execution)
	SrcPrefetch               // LLC prefetcher / runahead prefetch
	numSources
)

var sourceNames = [numSources]string{"core", "emc", "prefetch"}

// String returns the source's name.
func (s Source) String() string {
	if int(s) < len(sourceNames) {
		return sourceNames[s]
	}
	return "unknown"
}

// Event is one timestamped lifecycle stage.
type Event struct {
	Stage Stage
	At    uint64 // cycle
}

// Record is the trace of one sampled memory request. Records are owned by
// the Tracer's pool: the simulator attaches one at request creation, stamps
// stages as they happen, and hands it back via Finish exactly once (when
// the request itself is recycled).
type Record struct {
	ID        uint64
	Line      uint64 // physical line address
	PC        uint64
	Core      int
	Source    Source
	Dependent bool

	Events []Event
}

// Stamp appends one stage event. Events arrive in stamp order; a stage can
// repeat when a request is delivered twice (the EMC LLC-path double fill).
func (r *Record) Stamp(s Stage, at uint64) {
	r.Events = append(r.Events, Event{Stage: s, At: at})
}

// At returns the first event with the given stage.
func (r *Record) At(s Stage) (uint64, bool) {
	for _, e := range r.Events {
		if e.Stage == s {
			return e.At, true
		}
	}
	return 0, false
}

// Config enables and scales the tracing layer.
type Config struct {
	// Enabled turns lifecycle tracing (and with it latency attribution) on.
	Enabled bool
	// SampleEvery traces one in every N requests per source-class counter
	// stream (0 and 1 both mean every request). Sampling is deterministic —
	// a modulo of the request-creation counter — so two runs of the same
	// configuration trace the same requests.
	SampleEvery uint64
	// Retain keeps finished records for export (Chrome trace). When false,
	// records are recycled after attribution and only aggregates survive.
	Retain bool
	// MaxRecords caps retention (default 1<<20); beyond it records are
	// recycled and counted as dropped.
	MaxRecords int
}

// Tracer samples request lifecycles for one System. It is not safe for
// concurrent use — each System owns its own (figure suites run Systems on
// separate goroutines, mirroring the simulator's pooling rules).
type Tracer struct {
	cfg    Config
	seq    uint64 // requests considered (sampling stream)
	nextID uint64

	started  uint64
	finished uint64
	dropped  uint64 // finished past MaxRecords (not retained)
	events   uint64 // total stage events stamped

	pool []*Record
	done []*Record

	attr Attribution
}

// NewTracer builds a tracer, or returns nil when cfg.Enabled is false so
// callers can keep the disabled path to a single nil test.
func NewTracer(cfg Config) *Tracer {
	if !cfg.Enabled {
		return nil
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 1
	}
	if cfg.MaxRecords <= 0 {
		cfg.MaxRecords = 1 << 20
	}
	return &Tracer{cfg: cfg}
}

// Start considers one request for tracing and returns its record, or nil
// when the sampling counter skips it. The Issue stage is stamped here.
func (t *Tracer) Start(src Source, core int, line, pc uint64, dependent bool, at uint64) *Record {
	t.seq++
	if (t.seq-1)%t.cfg.SampleEvery != 0 {
		return nil
	}
	r := t.alloc()
	t.nextID++
	t.started++
	r.ID = t.nextID
	r.Line, r.PC, r.Core = line, pc, core
	r.Source, r.Dependent = src, dependent
	t.StampEvent(r, StageIssue, at)
	return r
}

// StampEvent records one stage on a record (no-op on nil records is the
// caller's single-branch guard; r must be non-nil here).
func (t *Tracer) StampEvent(r *Record, s Stage, at uint64) {
	r.Stamp(s, at)
	t.events++
}

// Finish returns a record to the tracer after its request's last delivery.
// Retained records become part of the Chrome export; others are pooled.
func (t *Tracer) Finish(r *Record) {
	t.finished++
	if t.cfg.Retain && len(t.done) < t.cfg.MaxRecords {
		t.done = append(t.done, r)
		return
	}
	if t.cfg.Retain {
		t.dropped++
	}
	t.free(r)
}

func (t *Tracer) alloc() *Record {
	if n := len(t.pool); n > 0 {
		r := t.pool[n-1]
		t.pool = t.pool[:n-1]
		return r
	}
	return &Record{}
}

func (t *Tracer) free(r *Record) {
	ev := r.Events[:0]
	*r = Record{}
	r.Events = ev
	t.pool = append(t.pool, r)
}

// Attr exposes the running latency attribution.
func (t *Tracer) Attr() *Attribution { return &t.attr }

// Records returns the retained (finished) records, in finish order. Valid
// after the run; the slice is owned by the tracer.
func (t *Tracer) Records() []*Record { return t.done }

// EventCount returns the total number of stage events stamped. Two runs of
// the same configuration must agree on this regardless of cycle skipping.
func (t *Tracer) EventCount() uint64 { return t.events }

// Started returns the number of records started (sampled requests).
func (t *Tracer) Started() uint64 { return t.started }

// SampleEvery reports the effective sampling rate.
func (t *Tracer) SampleEvery() uint64 { return t.cfg.SampleEvery }

// Report snapshots the tracer's aggregates for a Result.
func (t *Tracer) Report() *Report {
	return &Report{
		SampleEvery: t.cfg.SampleEvery,
		Started:     t.started,
		Finished:    t.finished,
		Dropped:     t.dropped,
		Events:      t.events,
		Attr:        t.attr,
	}
}
