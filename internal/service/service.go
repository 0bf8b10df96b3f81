package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/sim"
)

// Submission errors.
var (
	// ErrQueueFull is backpressure: the bounded queue is at capacity.
	ErrQueueFull = errors.New("service: queue full")
	// ErrDraining rejects submissions after Drain/Close began.
	ErrDraining = errors.New("service: draining")
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("service: no such job")
	// ErrRetriesExhausted marks a job that kept panicking until its retry
	// budget ran out; it wraps the final attempt's panic error.
	ErrRetriesExhausted = errors.New("service: retry budget exhausted")
)

// Scheduler failpoints (see internal/fault): queue.admit fails a submission
// at admission; worker.prerun panics an attempt before the simulator is
// built (a crash that the retry budget absorbs); worker.postrun panics after
// the simulation completed but before its result is recorded (the retry
// recomputes — determinism makes the recompute bit-identical); drain injects
// a failure into the drain path.
var (
	fpQueueAdmit = fault.Register(fault.SiteQueueAdmit)
	fpWorkerPre  = fault.Register(fault.SiteWorkerPre)
	fpWorkerPost = fault.Register(fault.SiteWorkerPost)
	fpDrain      = fault.Register(fault.SiteDrain)
)

// panicError wraps a recovered worker panic so it can be distinguished from
// ordinary simulation errors (panics are retried, errors are not).
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("simulation panic: %v\n%s", e.val, e.stack)
}

// Unwrap exposes error-typed panic values (notably *fault.InjectedPanic) to
// errors.Is/As through the wrapper.
func (e *panicError) Unwrap() error {
	if err, ok := e.val.(error); ok {
		return err
	}
	return nil
}

// Config sizes a Service.
type Config struct {
	// Workers is the number of worker goroutines, all popping one shared
	// queue. Defaults to GOMAXPROCS.
	Workers int
	// QueueCap bounds the number of queued (not yet running) jobs; Submit
	// returns ErrQueueFull beyond it. Default 64.
	QueueCap int
	// CacheCap bounds the result cache entry count (LRU). Default 256.
	CacheCap int
	// MaxRetries is how many times a job is retried after a worker panic
	// before it is failed. Default 2.
	MaxRetries int
	// ProgressInterval is the per-job progress callback cadence in cycles
	// (0 = the simulator default).
	ProgressInterval uint64
	// CacheDir, when non-empty, backs the result cache with a durable
	// write-through store in that directory: completed results survive a
	// process restart and are reloaded on boot (corrupt records are
	// quarantined, not served). Empty = in-memory only.
	CacheDir string
	// HungTimeout, when non-zero, arms the watchdog: a running job
	// whose progress heartbeat is older than this is marked hung in its
	// Status and counted in Stats.Hung / emcsim_service_hung_jobs.
	// Detection only — the job is not killed.
	HungTimeout time.Duration
	// Metrics, when non-nil, receives the service gauge group (queue depth,
	// workers, cache hits, ...) and the per-phase latency histograms for
	// /metrics export.
	Metrics *obs.Registry
	// FlightDir, when non-empty, enables flight-recorder dumps: when the
	// watchdog flags a job, a worker attempt panics (including injected
	// failpoints), or a job fails terminally, the job's recent span events
	// and exact-sum phase attribution are written to
	// <FlightDir>/<job>-<reason>-<n>.emfr (see internal/obs/span.Dump).
	// Hung-job dumps additionally capture a goroutine profile alongside.
	FlightDir string
	// AttemptHook, when non-nil, is called with the job's config at the
	// start of every simulation attempt, inside the attempt's panic
	// boundary: a hook that panics fails the attempt like a simulator panic
	// (and is retried like one), and a hook that blocks parks its worker.
	// A test seam, nil outside tests; it is not part of any config, so it
	// never enters a cache key.
	AttemptHook func(cfg sim.Config)
}

// serviceGauges lists every service gauge, in the order gauges returns them.
// Exported Prometheus names are emcsim_<name>.
var serviceGauges = []string{
	"service_workers",
	"service_queue_depth",
	"service_running_jobs",
	"service_jobs_submitted",
	"service_jobs_done",
	"service_jobs_failed",
	"service_jobs_cancelled",
	"service_jobs_coalesced",
	"service_job_retries",
	"service_jobs_retry_exhausted",
	"service_hung_jobs",
	"service_cache_hits",
	"service_cache_misses",
	"service_cache_entries",
	"service_cache_evictions",
	"service_cache_loaded",
	"service_cache_quarantined",
	"service_cache_persisted",
	"service_cache_persist_errors",
	"service_flight_dumps",
	"service_flight_dump_errors",
	"service_spans_dropped",
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queueDepth"`
	Running    int    `json:"running"`
	Submitted  uint64 `json:"submitted"`
	Done       uint64 `json:"done"`
	Failed     uint64 `json:"failed"`
	Cancelled  uint64 `json:"cancelled"`
	Coalesced  uint64 `json:"coalesced"`
	// Executed counts simulations actually run to completion on this node —
	// cache hits, coalesced followers, and seeded results excluded. Summed
	// across a fabric it is the dedup ground truth: N identical submissions
	// must leave exactly one execution behind.
	Executed uint64 `json:"executed"`
	Retries  uint64 `json:"retries"`
	// RetryExhausted counts jobs failed because their panic-retry budget
	// ran out (see ErrRetriesExhausted).
	RetryExhausted uint64 `json:"retryExhausted"`
	// Hung is the number of running jobs the watchdog currently considers
	// stalled (no progress within Config.HungTimeout).
	Hung int `json:"hungJobs"`

	CacheHits      uint64 `json:"cacheHits"`
	CacheMisses    uint64 `json:"cacheMisses"`
	CacheEntries   int    `json:"cacheEntries"`
	CacheEvictions uint64 `json:"cacheEvictions"`

	// Durable-cache counters; all zero when Config.CacheDir is unset.
	CacheLoaded      uint64 `json:"cacheLoaded"`
	CacheQuarantined uint64 `json:"cacheQuarantined"`
	CachePersisted   uint64 `json:"cachePersisted"`
	CachePersistErrs uint64 `json:"cachePersistErrors"`

	// Flight-recorder counters; zero when Config.FlightDir is unset.
	FlightDumps    uint64 `json:"flightDumps"`
	FlightDumpErrs uint64 `json:"flightDumpErrors"`
	// SpansDropped counts finished spans evicted by the retention cap.
	SpansDropped uint64 `json:"spansDropped"`

	// Shards is the per-worker-lane breakdown (running, hung) behind the
	// aggregate numbers above — the emcctl top dashboard's row source.
	Shards []ShardStat `json:"shards,omitempty"`

	// Nodes is the fabric view when this service runs inside a cluster node
	// (see SetClusterStats and internal/cluster); empty in single-process
	// deployments.
	Nodes []NodeStat `json:"nodes,omitempty"`
}

// ShardStat is one worker lane's live state. Worker i runs its jobs in lane
// i; a job run off the pool (ExecuteNow) takes the least busy
// lane, so Running can exceed 1.
type ShardStat struct {
	Shard   int `json:"shard"`
	Running int `json:"running"`
	Hung    int `json:"hung"`
}

// Service is the simulation-job scheduler: a worker pool over one fair
// queue, fronted by the content-addressed result cache. Any idle worker
// takes the next queued job; duplicate submissions never race their first
// run, because they coalesce onto it before they would be queued.
type Service struct {
	cfg   Config
	queue *fairQueue
	cache *resultCache
	store *durableStore // nil without Config.CacheDir

	queued         atomic.Int64
	running        atomic.Int64
	submitted      atomic.Uint64
	completed      atomic.Uint64
	failed         atomic.Uint64
	cancelled      atomic.Uint64
	coalesced      atomic.Uint64
	executed       atomic.Uint64
	retries        atomic.Uint64
	retryExhausted atomic.Uint64
	hung           atomic.Int64

	// Span pipeline: always-on recorder; per-lane gauges sized at Open so
	// Stats never scans the job table; flight-dump counters.
	rec            *span.Recorder
	laneRunning    []atomic.Int64
	laneHung       []atomic.Int64
	dumpSeq        atomic.Uint64
	flightDumps    atomic.Uint64
	flightDumpErrs atomic.Uint64

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job // submission order, for listing
	inflight map[string]*Job
	seq      uint64
	draining bool

	wg        sync.WaitGroup
	watchStop chan struct{}
	stopOnce  sync.Once

	// Cluster stats hook (see cluster.go); nil outside a fabric node.
	clusterStats atomic.Pointer[func(local *Stats) []NodeStat]
}

// New builds a Service and starts its workers. It panics if Config.CacheDir
// is set and the durable store cannot be initialized; servers should use
// Open for the explicit error. Without CacheDir, New cannot fail.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds a Service, initializing (and reloading) the durable result
// cache when Config.CacheDir is set, and starts the workers and watchdog.
func Open(cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.CacheCap <= 0 {
		cfg.CacheCap = 256
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	} else if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	var store *durableStore
	if cfg.CacheDir != "" {
		var err error
		if store, err = openDurableStore(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	s := &Service{
		cfg:         cfg,
		queue:       newFairQueue(),
		cache:       newResultCache(cfg.CacheCap, store),
		store:       store,
		jobs:        map[string]*Job{},
		inflight:    map[string]*Job{},
		watchStop:   make(chan struct{}),
		rec:         span.NewRecorder(),
		laneRunning: make([]atomic.Int64, cfg.Workers),
		laneHung:    make([]atomic.Int64, cfg.Workers),
	}
	if store != nil {
		if err := store.load(s.cache.seed); err != nil {
			store.close()
			return nil, err
		}
	}
	if cfg.FlightDir != "" {
		if err := os.MkdirAll(cfg.FlightDir, 0o755); err != nil {
			if store != nil {
				store.close()
			}
			return nil, err
		}
	}
	if cfg.Metrics != nil {
		cfg.Metrics.NewGroupFunc(map[string]string{"component": "service"}, serviceGauges, s.gauges)
		s.rec.Register(cfg.Metrics, cfg.Workers)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(i)
	}
	if cfg.HungTimeout > 0 {
		go s.watchdog()
	}
	return s, nil
}

// CacheKey derives the content address of a config: the semantic
// fingerprint, extended by the observability settings that change what the
// Result carries (the Obs report, the counter log) without changing
// simulation outcomes.
func CacheKey(cfg *sim.Config) string {
	fp := cfg.Fingerprint()
	if cfg.Obs.Enabled {
		fp += fmt.Sprintf("+obs:%d,%t", cfg.Obs.SampleEvery, cfg.Obs.Retain)
	}
	if cfg.CounterInterval > 0 {
		fp += fmt.Sprintf("+ci:%d", cfg.CounterInterval)
	}
	return fp
}

// Submit schedules cfg for client. Terminal fast paths: a cached result
// returns an already-done job; an identical in-flight submission returns
// the existing job (coalescing — note a cancel then cancels it for every
// submitter). Otherwise the job is queued, subject to backpressure
// (ErrQueueFull) and drain state (ErrDraining).
func (s *Service) Submit(client string, cfg sim.Config) (*Job, error) {
	return s.submit(client, cfg, false)
}

// SubmitForwarded is Submit for a job a peer forwarded here. It never
// coalesces onto a job this node follows on a peer (a routed job, or a
// queued one forwarded to a thief): the peer forwarded the job to have it
// run here, and that peer may be the one the remote job waits on —
// coalescing would close a wait cycle. Such a submission runs locally.
func (s *Service) SubmitForwarded(client string, cfg sim.Config) (*Job, error) {
	return s.submit(client, cfg, true)
}

func (s *Service) submit(client string, cfg sim.Config, forwarded bool) (*Job, error) {
	j, fresh, err := s.admit(client, CacheKey(&cfg), cfg, forwarded, false)
	if !fresh {
		return j, err
	}
	if !s.queue.push(j) {
		// Raced with Close: undo the reservation and reject.
		s.queued.Add(-1)
		s.finishJob(j, StateCancelled, nil, ErrDraining)
		return nil, ErrDraining
	}
	return j, nil
}

// admit is the intake Submit and NewRoutedJob share. Terminal fast paths: a
// cached result returns an already-done job, and an identical in-flight job
// is returned as is (coalescing; forwarded skips a job followed on a peer),
// both with fresh=false. Otherwise it registers a new job: a routed one is
// never queued here, any other reserves a queue slot (ErrQueueFull beyond
// QueueCap) that the caller must push into.
func (s *Service) admit(client, key string, cfg sim.Config, forwarded, routed bool) (j *Job, fresh bool, err error) {
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
		j := newJob(id, key, client, cfg, s.rec)
		j.cached = true
		s.jobs[id] = j
		s.order = append(s.order, j)
		s.submitted.Add(1)
		s.mu.Unlock()
		j.finalize(StateDone, res, nil)
		s.completed.Add(1)
		return j, false, nil
	}
	if prev, ok := s.inflight[key]; ok && !(forwarded && prev.remote) {
		s.coalesced.Add(1)
		s.mu.Unlock()
		prev.recordCoalesce()
		return prev, false, nil
	}
	// Reserve a queue slot (backpressure).
	//simlint:leakok CAS retry loop; an iteration repeats only when another goroutine made progress
	for !routed {
		n := s.queued.Load()
		if n >= int64(s.cfg.QueueCap) {
			s.mu.Unlock()
			return nil, false, ErrQueueFull
		}
		if s.queued.CompareAndSwap(n, n+1) {
			break
		}
	}
	j = newJob(id, key, client, cfg, s.rec)
	j.remote = routed
	s.jobs[id] = j
	s.order = append(s.order, j)
	s.inflight[key] = j
	s.submitted.Add(1)
	s.mu.Unlock()
	return j, true, nil
}

// Run submits cfg and blocks until the job is terminal (a convenience for
// in-process callers like the figure suite's -jobs mode).
func (s *Service) Run(ctx context.Context, client string, cfg sim.Config) (*sim.Result, error) {
	j, err := s.Submit(client, cfg)
	if err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

// Job looks a job up by id.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists job statuses in submission order.
func (s *Service) Jobs() []Status {
	s.mu.Lock()
	jobs := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel requests cancellation of a job: queued jobs finalize as cancelled
// when a worker reaches them, running jobs stop at the next cycle boundary.
func (s *Service) Cancel(id string) error {
	j, ok := s.Job(id)
	if !ok {
		return ErrNotFound
	}
	j.requestCancel()
	return nil
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	h, m, ev, entries := s.cache.stats()
	st := Stats{
		Workers:    s.cfg.Workers,
		QueueDepth: int(s.queued.Load()),
		Running:    int(s.running.Load()),
		Submitted:  s.submitted.Load(),
		Done:       s.completed.Load(),
		Failed:     s.failed.Load(),
		Cancelled:  s.cancelled.Load(),
		Coalesced:  s.coalesced.Load(),
		Executed:   s.executed.Load(),
		Retries:    s.retries.Load(),

		RetryExhausted: s.retryExhausted.Load(),
		Hung:           int(s.hung.Load()),

		CacheHits:      h,
		CacheMisses:    m,
		CacheEntries:   entries,
		CacheEvictions: ev,
	}
	if s.store != nil {
		st.CacheLoaded = s.store.loaded.Load()
		st.CacheQuarantined = s.store.quarantined.Load()
		st.CachePersisted = s.store.persisted.Load()
		st.CachePersistErrs = s.store.persistErrs.Load()
	}
	st.FlightDumps = s.flightDumps.Load()
	st.FlightDumpErrs = s.flightDumpErrs.Load()
	st.SpansDropped = s.rec.Dropped()
	st.Shards = make([]ShardStat, s.cfg.Workers)
	for i := range st.Shards {
		st.Shards[i] = ShardStat{
			Shard:   i,
			Running: int(s.laneRunning[i].Load()),
			Hung:    int(s.laneHung[i].Load()),
		}
	}
	if fn := s.clusterStats.Load(); fn != nil {
		st.Nodes = (*fn)(&st)
	}
	return st
}

// Recorder exposes the span pipeline (the HTTP trace export reads it).
func (s *Service) Recorder() *span.Recorder { return s.rec }

// gauges reads the service gauges, in serviceGauges order, when /metrics
// is scraped.
func (s *Service) gauges() []float64 {
	st := s.Stats()
	return []float64{
		float64(st.Workers),
		float64(st.QueueDepth),
		float64(st.Running),
		float64(st.Submitted),
		float64(st.Done),
		float64(st.Failed),
		float64(st.Cancelled),
		float64(st.Coalesced),
		float64(st.Retries),
		float64(st.RetryExhausted),
		float64(st.Hung),
		float64(st.CacheHits),
		float64(st.CacheMisses),
		float64(st.CacheEntries),
		float64(st.CacheEvictions),
		float64(st.CacheLoaded),
		float64(st.CacheQuarantined),
		float64(st.CachePersisted),
		float64(st.CachePersistErrs),
		float64(st.FlightDumps),
		float64(st.FlightDumpErrs),
		float64(st.SpansDropped),
	}
}

// Drain stops intake (Submit returns ErrDraining) and waits for every
// queued and running job to finish, or for ctx.
func (s *Service) Drain(ctx context.Context) error {
	if err := fpDrain.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.queue.close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.shutdownAux()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels every non-terminal job and waits for the workers to exit.
func (s *Service) Close() error {
	s.mu.Lock()
	s.draining = true
	jobs := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	for _, j := range jobs {
		j.requestCancel()
	}
	s.queue.close()
	s.wg.Wait()
	s.shutdownAux()
	return nil
}

// shutdownAux stops the watchdog and flushes + closes the durable store.
// Runs after the workers exit, so no further cache writes can race it.
func (s *Service) shutdownAux() {
	s.stopOnce.Do(func() { close(s.watchStop) })
	if s.store != nil {
		s.store.close()
	}
}

// FlushDurable blocks until every completed result so far has been written
// through to the durable store (no-op without one). emcserve calls it on
// shutdown before reporting the cache flushed.
func (s *Service) FlushDurable() {
	if s.store != nil {
		s.store.flush()
	}
}

// watchdog periodically sweeps jobs for stalled progress (detection only).
func (s *Service) watchdog() {
	tick := s.cfg.HungTimeout / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.watchStop:
			return
		case now := <-t.C:
			s.scanHung(now)
		}
	}
}

// scanHung applies the hung verdict to every job.
func (s *Service) scanHung(now time.Time) {
	s.mu.Lock()
	jobs := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	var hung int64
	perLane := make([]int64, s.cfg.Workers)
	for _, j := range jobs {
		h, ch, lane := j.hungCheck(now, s.cfg.HungTimeout)
		if h {
			hung++
			perLane[lane]++
		}
		if h && ch {
			// Verdict just flipped to hung: dump the flight recorder with a
			// goroutine profile, so the stalled stack is captured the moment
			// the watchdog fires rather than when someone attaches later.
			s.dumpFlight(j, "hung", nil)
		}
	}
	s.hung.Store(hung)
	for i := range perLane {
		s.laneHung[i].Store(perLane[i])
	}
}

// dumpFlight writes one flight-recorder dump for j (best effort: failures
// are counted, never fatal, and nothing is written without Config.FlightDir).
// Hung dumps get a goroutine profile sibling file (<dump>.goroutines.txt).
func (s *Service) dumpFlight(j *Job, reason string, cause error) {
	if s.cfg.FlightDir == "" {
		return
	}
	d := j.buildDump(reason)
	if d == nil {
		return
	}
	if d.Error == "" && cause != nil {
		d.Error = cause.Error()
	}
	name := fmt.Sprintf("%s-%s-%d%s", j.id, reason, s.dumpSeq.Add(1), span.DumpExt)
	path := filepath.Join(s.cfg.FlightDir, name)
	if err := span.WriteDumpFile(path, d); err != nil {
		s.flightDumpErrs.Add(1)
		return
	}
	s.flightDumps.Add(1)
	if reason == "hung" {
		if f, err := os.Create(path + span.GoroutinesExt); err == nil {
			if p := pprof.Lookup("goroutine"); p != nil {
				_ = p.WriteTo(f, 2)
			}
			f.Close()
		}
	}
}

// worker i pops jobs off the shared queue, running them in lane i, until the
// queue closes and empties.
func (s *Service) worker(i int) {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.queued.Add(-1)
		s.execute(j, i)
	}
}

// idleLane picks the lane for a job run off the pool, on its caller's
// goroutine: the one with the fewest running jobs, so every executed job's
// lane stays in [0, Workers).
func (s *Service) idleLane() int {
	lane := 0
	for i := range s.laneRunning {
		if s.laneRunning[i].Load() < s.laneRunning[lane].Load() {
			lane = i
		}
	}
	return lane
}

// execute runs one job in lane to a terminal state, retrying bounded times
// after worker panics. The recover boundary is runOnce, so a panicking
// simulation never takes the worker goroutine down.
func (s *Service) execute(j *Job, lane int) {
	if !j.beginRunning(lane) {
		s.finishJob(j, StateCancelled, nil, sim.ErrCancelled)
		return
	}
	s.running.Add(1)
	s.laneRunning[lane].Add(1)
	defer func() {
		s.running.Add(-1)
		s.laneRunning[lane].Add(-1)
	}()
	//simlint:leakok every arm returns; the only continue is bounded by MaxRetries
	for attempt := 1; ; attempt++ {
		res, err := s.runOnce(j)
		switch {
		case err == nil:
			s.executed.Add(1)
			s.cache.put(j.key, res)
			s.finishJob(j, StateDone, res, nil)
			return
		case errors.Is(err, sim.ErrCancelled):
			s.finishJob(j, StateCancelled, res, err)
			return
		default:
			var pe *panicError
			if errors.As(err, &pe) {
				// Snapshot the flight recorder before the retry decision: the
				// ring still holds the attempt's final heartbeats either way.
				s.dumpFlight(j, "panic", err)
				if attempt <= s.cfg.MaxRetries && !j.cancelRequested() {
					s.retries.Add(1)
					j.recordRetry()
					continue
				}
				// Budget spent: fail with a structured error that keeps the
				// final panic's text reachable via errors.Is/As and %v.
				s.retryExhausted.Add(1)
				err = fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, attempt, err)
			}
			if pe == nil {
				// Ordinary failures get a dump too (panics were dumped above);
				// must happen before finalize recycles the ring.
				s.dumpFlight(j, "failed", err)
			}
			s.finishJob(j, StateFailed, nil, err)
			return
		}
	}
}

// runOnce performs one simulation attempt, converting panics into errors.
func (s *Service) runOnce(j *Job) (res *sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &panicError{val: v, stack: debug.Stack()}
		}
	}()
	j.beginAttempt()
	fpWorkerPre.MustPanic()
	if s.cfg.AttemptHook != nil {
		s.cfg.AttemptHook(j.cfg)
	}
	sys, err := sim.New(j.cfg)
	if err != nil {
		return nil, err
	}
	h := sys.NewRunHandle(s.cfg.ProgressInterval, j.setProgress)
	if !j.attachHandle(h) {
		h.Cancel() // cancellation raced in between beginRunning and here
	}
	res, err = h.Run()
	if err == nil {
		// Chaos hook: crash after the run finished but before its result is
		// recorded anywhere — the retry recomputes, and determinism makes
		// the recomputed Result bit-identical.
		fpWorkerPost.MustPanic()
	}
	return res, err
}

// finishJob maintains the in-flight index, bumps the terminal counters and
// finalizes the job. The counters move first: finalize wakes the job's
// waiters, and Stats read right after Wait must already count the job.
func (s *Service) finishJob(j *Job, state State, res *sim.Result, err error) {
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
	switch state {
	case StateDone:
		s.completed.Add(1)
	case StateFailed:
		s.failed.Add(1)
	case StateCancelled:
		s.cancelled.Add(1)
	}
	j.finalize(state, res, err)
}
