package sim

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/emc"
	"repro/internal/fault"
	"repro/internal/interconnect"
	"repro/internal/mem/cache"
	"repro/internal/mem/dram"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// memReq tracks one line request end to end, with the timestamps the
// latency-breakdown figures need.
type memReq struct {
	line      uint64 // physical line address
	core      int
	pc        uint64
	vaddr     uint64
	dependent bool
	prefetch  bool
	fromEMC   bool
	emcMC     int // MC hosting the requesting EMC

	issuedAt    uint64
	sliceArrive uint64
	sliceDone   uint64
	mcArrive    uint64
	dramIssued  uint64
	dramDone    uint64
	fillCore    uint64

	llcMiss bool
	ideal   bool // served by the ideal-dependent-hit mode
	// mcOut marks a slice launcher whose mReqToMC is on the ring or pending
	// at its MC: set when the slice sends it, cleared when the DRAM read
	// completes. While it is set the slice entry stays open (see sliceFill).
	mcOut bool

	// trace is the sampled lifecycle record (nil when tracing is off or the
	// request was not sampled); it is finished when the request returns to
	// the pool. See internal/obs and DESIGN.md §9.
	trace *obs.Record

	// refs counts terminal deliveries this request still expects before it
	// can return to the pool. Almost always 1; an LLC-path EMC request that
	// launches a fill sits in both the slice's outstanding map and the MC's
	// pending entry and receives two fills (see sliceLookup).
	refs int8
}

type msgKind uint8

const (
	mReqToSlice    msgKind = iota // core -> slice: demand load (ctrl)
	mHitData                      // slice -> core: LLC hit data (data)
	mReqToMC                      // slice -> MC: read request (ctrl)
	mFillToSlice                  // MC -> slice: DRAM fill (data)
	mFillToCore                   // slice -> core: fill after LLC insert (data)
	mStore                        // core -> slice: write-through store (data)
	mWriteback                    // slice -> MC: dirty eviction (data)
	mL1Inval                      // slice -> core: inclusive eviction (ctrl)
	mEMCInval                     // slice -> MC: EMC cache invalidation (ctrl)
	mChainFlit                    // core -> MC: chain packet flit (data)
	mChainDone                    // MC -> core: live-out flit (data)
	mChainAbort                   // MC -> core: abort notice (ctrl)
	mMemExec                      // MC -> core: EMC executed a mem op (ctrl)
	mConflictAbort                // core -> MC: LSQ conflict detected (ctrl)
	mPTEInstall                   // core -> MC: PTE after TLB-miss abort (ctrl)
	mEMCLLCReq                    // MC -> slice: EMC load via LLC (ctrl)
	mEMCLLCData                   // slice -> MC: data for EMC (data)
	mCrossReq                     // MC -> MC: EMC request for remote channel (ctrl)
	mCrossData                    // MC -> MC: data back to requesting EMC (data)
)

type msg struct {
	kind   msgKind
	req    *memReq
	chain  *cpu.Chain
	values []uint64
	reason emc.AbortReason
	uopIdx int
	vaddr  uint64
	core   int
	mc     int // origin/target MC index where relevant
	line   uint64
}

type sliceEvent struct {
	at  uint64
	req *memReq
}

type llcSlice struct {
	id, stop int
	c        *cache.Cache
	// lookupQ/fillQ are time-sorted (constant per-kind latency, monotone
	// enqueue times); lkHead/flHead index the consumed prefix so draining
	// never reallocates. System.sliceDue holds the earliest head over all
	// slices.
	lookupQ []sliceEvent
	fillQ   []sliceEvent
	lkHead  int
	flHead  int
	// outstanding merges requests per line while a fill is in flight.
	outstanding map[uint64]*lineWaiters
}

type lineWaiters struct {
	reqs []*memReq // includes the request that launched the fill
}

type mcPending struct {
	line    uint64
	reqs    []*memReq // slice-path requests (fill via slice)
	emcReqs []*memReq // local-EMC direct requests
	cross   []*memReq // remote-EMC requests (fill via mCrossData)
}

type mcNode struct {
	id, stop  int
	ctrl      *dram.Controller
	emc       *emc.EMC
	pending   map[uint64]*mcPending
	retryQ    []*dram.Request
	retryHead int          // consumed prefix of retryQ
	magicQ    []*cpu.Chain // MagicChains diagnostic mode
}

// RunStats aggregates system-level counters (see results.go for derived
// metrics).
type RunStats struct {
	Cycles uint64

	LLCHits      uint64
	LLCMisses    uint64
	LLCDemand    uint64
	DepMisses    uint64 // dependent misses observed at the LLC
	DepCovered   uint64 // dependent accesses that hit a prefetched line
	TotalCovered uint64 // all demand hits on prefetched lines
	IdealDepHits uint64

	DRAMDemandReads uint64
	DRAMPrefetch    uint64
	DRAMEMCReads    uint64
	DRAMWrites      uint64

	// Core-generated DRAM-read latency segments (Fig. 1, 18, 19).
	CoreMissCount    uint64
	CoreMissSegCount uint64 // misses with complete segment timelines
	CoreMissTotal    uint64 // issue -> fill at core
	CoreMissDRAM     uint64 // DRAM service (issue at bank -> data)
	CoreMissQueue    uint64 // MC queue delay
	CoreMissRingReq  uint64 // core -> slice -> MC transit
	CoreMissRingRsp  uint64 // MC -> slice -> core transit (fill path)
	CoreMissLLCLat   uint64 // slice lookup time

	// EMC-generated request latency (Fig. 18).
	EMCMissCount uint64
	EMCMissTotal uint64
	EMCMissQueue uint64

	EMCLLCHits   uint64 // EMC LLC-path requests that hit on chip
	EMCPredWrong uint64 // direct-DRAM requests the directory redirected

	EMCCoveredByPF uint64 // EMC requests served by a prefetched line

	// Latency distributions (log2-bucketed) for miss requests.
	CoreMissHist stats.Histogram
	EMCMissHist  stats.Histogram

	EMCRowHits      uint64
	DemandRowHits   uint64
	CrossMCRequests uint64
	ChainFlits      uint64
	ChainRejects    uint64
	PTEInstalls     uint64
	L1Invals        uint64
	EMCInvals       uint64
}

// System is one assembled chip + workload.
type System struct {
	cfg   Config
	cores []*cpu.Core
	// live holds the cores whose Finished has not latched, in core order.
	// Step 4 drops a core the Tick it finishes (only a Tick can retire its
	// last uop or drain its store buffer), so the stepper and horizon never
	// poll Finished and unfinished is a length check.
	live   []*cpu.Core
	feeds  []*trace.Feed   // one uop feed per core (DESIGN.md §8.5)
	profs  []trace.Profile // each core's benchmark profile
	pts    []*vm.PageTable
	frames *vm.FrameAllocator

	ctrl *interconnect.Ring
	data *interconnect.Ring

	slices []*llcSlice
	mcs    []*mcNode
	pfs    []*prefetch.FDP

	coreStop []int
	mcStop   []int

	now     uint64
	skipped uint64 // cycles fast-forwarded by the event-horizon scheduler
	gated   uint64 // core and EMC ticks skipped on a cached wake (diagnostic)
	// sliceDue is the earliest at over every slice's lookupQ and fillQ
	// heads, noEvent when all are empty: handle lowers it when it enqueues,
	// and the slice pass recomputes it, so step and horizon need not scan
	// idle slices.
	sliceDue uint64
	// stalled is set by step when the horizon is empty while a core is
	// unfinished: nothing can ever happen again, so runLoop reports the
	// deadlock instead of skipping to MaxCycles.
	stalled bool
	st      RunStats

	activeChains map[*cpu.Chain]int // chain -> MC hosting it
	onChain      func(*cpu.Chain)   // chain observer (ObserveChains); nil by default

	// Free lists for the hot-path objects (per System: figure suites run
	// Systems concurrently, so no shared pools).
	msgPool  []*msg
	reqPool  []*memReq
	pendPool []*mcPending
	waitPool []*lineWaiters

	// Observability (nil / false when disabled; see internal/sim/obs.go).
	tr          *obs.Tracer
	mGroup      *obs.Group
	clog        *obs.CounterLog
	gaugeBuf    []float64
	obsOn       bool
	nextPublish uint64
}

const noEvent = ^uint64(0)

// fpCycle is the simulator's cycle-boundary failpoint: armed, it crashes a
// run between two scheduler steps (the service's panic-retry and the chaos
// suite drive it). Disarmed it costs one atomic load per runLoop iteration.
var fpCycle = fault.Register(fault.SiteSimCycle)

// ---- Object pools -------------------------------------------------------------

func (s *System) allocMsg() *msg {
	if n := len(s.msgPool); n > 0 {
		m := s.msgPool[n-1]
		s.msgPool = s.msgPool[:n-1]
		return m
	}
	return &msg{}
}

// freeMsg recycles a delivered message. Pooling invariant: handle() must
// never retain a *msg past its return — only the payload pointers it carries.
//
//simlint:noalloc
func (s *System) freeMsg(m *msg) {
	*m = msg{}
	s.msgPool = append(s.msgPool, m) //simlint:allocok pool capacity stabilizes at the in-flight high-water mark
}

// sendCtrl/sendData copy proto into a pooled msg and inject it.
func (s *System) sendCtrl(src, dst int, proto msg) {
	m := s.allocMsg()
	*m = proto
	s.ctrl.Send(src, dst, m, s.now)
}

func (s *System) sendData(src, dst int, proto msg) {
	m := s.allocMsg()
	*m = proto
	s.data.Send(src, dst, m, s.now)
}

func (s *System) allocReq() *memReq {
	if n := len(s.reqPool); n > 0 {
		r := s.reqPool[n-1]
		s.reqPool = s.reqPool[:n-1]
		r.refs = 1
		return r
	}
	return &memReq{refs: 1}
}

// freeReq drops one reference; the request returns to the pool when the last
// expected delivery has consumed it. A sampled trace record is finished
// here — the one point every request funnels through exactly once.
func (s *System) freeReq(r *memReq) {
	if r.refs > 1 {
		r.refs--
		return
	}
	if r.trace != nil {
		s.tr.Finish(r.trace)
		r.trace = nil
	}
	*r = memReq{}
	s.reqPool = append(s.reqPool, r)
}

func (s *System) allocWaiters(r *memReq) *lineWaiters {
	if n := len(s.waitPool); n > 0 {
		w := s.waitPool[n-1]
		s.waitPool = s.waitPool[:n-1]
		w.reqs = append(w.reqs, r)
		return w
	}
	return &lineWaiters{reqs: []*memReq{r}}
}

func (s *System) freeWaiters(w *lineWaiters) {
	w.reqs = w.reqs[:0]
	s.waitPool = append(s.waitPool, w)
}

func (s *System) allocPending(line uint64) *mcPending {
	if n := len(s.pendPool); n > 0 {
		p := s.pendPool[n-1]
		s.pendPool = s.pendPool[:n-1]
		p.line = line
		return p
	}
	return &mcPending{line: line}
}

func (s *System) freePending(p *mcPending) {
	p.reqs = p.reqs[:0]
	p.emcReqs = p.emcReqs[:0]
	p.cross = p.cross[:0]
	s.pendPool = append(s.pendPool, p)
}

// coreShim adapts a core id to the cpu.Uncore interface.
type coreShim struct {
	s  *System
	id int
}

// LoadMiss implements cpu.Uncore.
func (cs coreShim) LoadMiss(m *cpu.MissInfo) { cs.s.coreLoadMiss(m) }

// StoreWrite implements cpu.Uncore.
func (cs coreShim) StoreWrite(coreID int, lineAddr, vaddr uint64) {
	cs.s.coreStore(coreID, lineAddr, vaddr)
}

// New builds a System from cfg.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, frames: vm.NewFrameAllocator(), activeChains: map[*cpu.Chain]int{},
		sliceDue: noEvent}
	n := len(cfg.Benchmarks)

	// Topology: one ring stop per core (shared with its LLC slice), then the
	// MC stop(s). With two MCs they sit at opposite sides of the ring
	// (Fig. 11b): cores 0..n/2-1, MC0, cores n/2..n-1, MC1.
	stops := n + cfg.MCs
	s.coreStop = make([]int, n)
	if cfg.MCs == 1 {
		for i := 0; i < n; i++ {
			s.coreStop[i] = i
		}
		s.mcStop = []int{n}
	} else {
		half := n / 2
		for i := 0; i < half; i++ {
			s.coreStop[i] = i
		}
		for i := half; i < n; i++ {
			s.coreStop[i] = i + 1
		}
		s.mcStop = []int{half, n + 1}
	}
	s.ctrl = interconnect.NewRing("ctrl", stops)
	s.data = interconnect.NewRing("data", stops)

	// Cores, page tables, traces.
	for i, bench := range cfg.Benchmarks {
		prof, err := trace.ByName(bench)
		if err != nil {
			return nil, err
		}
		g := trace.NewGenerator(prof, cfg.Seed+uint64(i)*0x9E3779B9)
		feed := trace.NewFeed(g, cfg.InstrPerCore)
		s.feeds = append(s.feeds, feed)
		s.profs = append(s.profs, prof)
		pt := vm.NewPageTableShift(s.frames, cfg.PageShift)
		s.pts = append(s.pts, pt)
		cc := cpu.DefaultConfig(i)
		cc.EMCEnabled = cfg.EMCEnabled
		cc.Runahead.Enabled = cfg.RunaheadEnabled
		cc.UseBranchPredictor = cfg.UseBranchPredictor
		s.cores = append(s.cores, cpu.New(cc, feed, pt, coreShim{s: s, id: i}))
	}

	s.live = append([]*cpu.Core(nil), s.cores...)

	// LLC slices co-located with cores.
	for i := 0; i < n; i++ {
		s.slices = append(s.slices, &llcSlice{
			id: i, stop: s.coreStop[i],
			c: cache.New(cache.Config{Name: fmt.Sprintf("llc%d", i),
				SizeBytes: cfg.LLCSliceBytes, Ways: 8, Latency: cfg.LLCLatency}),
			outstanding: map[uint64]*lineWaiters{},
		})
	}

	// Memory controllers (+EMC).
	chPerMC := cfg.Geometry.Channels / cfg.MCs
	for m := 0; m < cfg.MCs; m++ {
		geo := cfg.Geometry
		geo.Channels = chPerMC
		geo.QueueSize = cfg.Geometry.QueueSize / cfg.MCs
		node := &mcNode{id: m, stop: s.mcStop[m],
			ctrl:    dram.NewController(geo, cfg.Timing, cfg.Sched, n),
			pending: map[uint64]*mcPending{},
		}
		if cfg.EMCEnabled {
			ecfg := cfg.EMCCfg
			if cfg.MCs == 2 {
				ecfg.Contexts = cfg.EMCCfg.Contexts / 2
				if ecfg.Contexts < 1 {
					ecfg.Contexts = 1
				}
			}
			node.emc = emc.New(ecfg, m, n)
		}
		s.mcs = append(s.mcs, node)
	}

	// Per-core prefetchers (trained at the LLC, per Table 1, with FDP).
	for i := 0; i < n; i++ {
		var inner prefetch.Prefetcher
		switch cfg.Prefetcher {
		case PFNone:
			inner = prefetch.Null{}
		case PFGHB:
			inner = prefetch.NewGHB(prefetch.DefaultGHBConfig())
		case PFStream:
			inner = prefetch.NewStream(prefetch.DefaultStreamConfig())
		case PFMarkovStream:
			inner = prefetch.NewCombined("markov+stream",
				prefetch.NewMarkov(prefetch.DefaultMarkovConfig()),
				prefetch.NewStream(prefetch.DefaultStreamConfig()))
		}
		s.pfs = append(s.pfs, prefetch.NewFDP(prefetch.DefaultFDPConfig(), inner))
	}
	s.initObs()
	return s, nil
}

// sliceOf maps a physical line address to its LLC slice.
func (s *System) sliceOf(line uint64) *llcSlice {
	return s.slices[int(line)%len(s.slices)]
}

// mcOf maps a physical line address to the memory controller owning its
// channel (lines interleave across MCs).
func (s *System) mcOf(line uint64) *mcNode {
	return s.mcs[int(line)%len(s.mcs)]
}

// mcLine converts a global line address to the controller-local address used
// by the per-MC DRAM decoder.
func (s *System) mcLine(line uint64) uint64 { return line / uint64(len(s.mcs)) }

// ---- Core-side callbacks -----------------------------------------------------

func (s *System) coreLoadMiss(m *cpu.MissInfo) {
	r := s.allocReq()
	r.line, r.core, r.pc, r.vaddr = m.LineAddr, m.CoreID, m.PC, m.VAddr
	r.dependent, r.prefetch, r.issuedAt = m.Dependent, m.Prefetch, m.IssuedAt
	if s.tr != nil {
		src := obs.SrcCore
		if r.prefetch {
			src = obs.SrcPrefetch
		}
		r.trace = s.tr.Start(src, r.core, r.line, r.pc, r.dependent, r.issuedAt)
	}
	sl := s.sliceOf(r.line)
	s.sendCtrl(s.coreStop[m.CoreID], sl.stop, msg{kind: mReqToSlice, req: r})
}

func (s *System) coreStore(coreID int, lineAddr, vaddr uint64) {
	r := s.allocReq()
	r.line, r.core, r.vaddr, r.issuedAt = lineAddr, coreID, vaddr, s.now
	sl := s.sliceOf(lineAddr)
	s.sendData(s.coreStop[coreID], sl.stop, msg{kind: mStore, req: r})
}

// ---- Main loop -----------------------------------------------------------------

// Run simulates until every core finishes (or MaxCycles) and returns the
// collected Result.
func (s *System) Run() (*Result, error) { return s.runLoop(nil) }

// runLoop is the main loop shared by Run and RunHandle.Run. The handle, when
// present, only reads simulator state (cancellation flag, progress
// snapshots), so a handled run that is never cancelled stays bit-identical
// to a plain Run.
func (s *System) runLoop(h *RunHandle) (*Result, error) {
	s.startFeeds()
	defer s.stopFeeds()
	for s.unfinished() {
		if s.now >= s.cfg.MaxCycles {
			return nil, fmt.Errorf("sim: exceeded MaxCycles=%d (deadlock?)", s.cfg.MaxCycles)
		}
		if h != nil {
			if h.canceled.Load() {
				return s.collect(), ErrCancelled
			}
			if h.fn != nil && s.now >= h.next {
				h.emit(s)
			}
		}
		// Chaos hook: a mid-run crash at a cycle boundary (disarmed: one
		// atomic load; see internal/fault and DESIGN.md §11.1).
		fpCycle.MustPanic()
		s.step()
		if s.stalled {
			return nil, s.deadlockError()
		}
	}
	return s.collect(), nil
}

// unfinished reports whether some core still has work.
//
//simlint:noalloc
func (s *System) unfinished() bool { return len(s.live) > 0 }

// startFeeds hands each core's uop generator to a producer goroutine that
// fills the core's feed ahead of the simulation (DESIGN.md §8.5). Only
// runLoop calls it, and its deferred stopFeeds joins every producer on
// every exit, so no producer outlives a run and Step outside a run fills
// the feeds inline.
func (s *System) startFeeds() {
	for _, f := range s.feeds {
		f.Start()
	}
}

// stopFeeds stops and joins the producers startFeeds started, returning
// each generator to the simulation goroutine. Chunks still queued keep
// their uops, so a later Step or Run continues the same streams.
func (s *System) stopFeeds() {
	for _, f := range s.feeds {
		f.Stop()
	}
}

// deadlockError describes a run whose event horizon is empty with a core
// unfinished: the first stuck core, its ROB head, and where the line that
// head waits on is outstanding (if anywhere).
func (s *System) deadlockError() error {
	for i, c := range s.cores {
		if c.Finished() {
			continue
		}
		head, ok := c.ROBHead()
		if !ok {
			return fmt.Errorf("sim: deadlock at cycle %d: core %d unfinished with an empty ROB", s.now, i)
		}
		if !head.Mem {
			return fmt.Errorf("sim: deadlock at cycle %d: core %d ROB head is a %s in state %s",
				s.now, i, head.Op, head.State)
		}
		where := "no slice outstanding entry"
		if w, ok := s.sliceOf(head.Line).outstanding[head.Line]; ok {
			where = fmt.Sprintf("slice %d outstanding (%d waiters)", s.sliceOf(head.Line).id, len(w.reqs))
		}
		if _, ok := s.mcOf(head.Line).pending[head.Line]; ok {
			where += fmt.Sprintf(", MC %d pending", s.mcOf(head.Line).id)
		} else {
			where += ", no MC pending entry"
		}
		return fmt.Errorf("sim: deadlock at cycle %d: core %d ROB head is a %s in state %s waiting on line %#x (%s)",
			s.now, i, head.Op, head.State, head.Line, where)
	}
	return fmt.Errorf("sim: deadlock at cycle %d with every core finished", s.now)
}

// Step advances one cycle (exported for tests).
func (s *System) Step() { s.step() }

// Shootdown performs a TLB shootdown for one page of one core's address
// space: the core's TLB entry is invalidated, and — per the paper's §4.1.4
// residence-bit scheme — the EMC TLB entry is invalidated only if the PTE
// says a copy lives there, saving broadcast traffic otherwise.
func (s *System) Shootdown(core int, vaddr uint64) {
	s.cores[core].ShootdownTLB(vaddr, s.now+1)
	pte := s.pts[core].Lookup(vaddr)
	if !pte.EMCResident {
		return
	}
	for _, mc := range s.mcs {
		if mc.emc != nil {
			mc.emc.ShootdownTLB(core, vaddr)
			s.st.EMCInvals++
		}
	}
}

// Now returns the current cycle.
func (s *System) Now() uint64 { return s.now }

// SkippedCycles reports how many cycles the event-horizon scheduler has
// fast-forwarded so far (diagnostic; not part of Result).
func (s *System) SkippedCycles() uint64 { return s.skipped }

// horizon returns the earliest future cycle at which any component can do
// work: the minimum over the rings' and DRAM controllers' NextEvent, the
// slices' stored due cycle and the unfinished cores' and EMCs' cached
// wakes. Every term is a lower bound, whatever cycle a component reports.
// Short-circuits on now+1 (nothing to skip), the common case under load.
//
//simlint:noalloc
func (s *System) horizon() uint64 {
	now := s.now
	h := s.ctrl.NextEvent(now)
	if d := s.data.NextEvent(now); d < h {
		h = d
	}
	if h <= now+1 {
		return h
	}
	if d := s.sliceDue; d < h {
		if d <= now+1 {
			return now + 1
		}
		h = d
	}
	for _, mc := range s.mcs {
		if mc.retryHead < len(mc.retryQ) {
			// A pending retry re-attempts Enqueue every Tick; even a failed
			// attempt mutates controller state (request IDs, QueueFull).
			return now + 1
		}
		if d := mc.ctrl.NextEvent(now); d < h {
			h = d
		}
		if mc.emc != nil {
			if d := mc.emc.Wake(); d < h {
				h = d
			}
		}
		if h <= now+1 {
			return now + 1
		}
	}
	for _, c := range s.live {
		if d := c.Wake(); d < h {
			h = d
			if h <= now+1 {
				return now + 1
			}
		}
	}
	return h
}

// step advances one cycle. It is the per-cycle hot path: BenchmarkStepIdle,
// BenchmarkStepSaturated and BenchmarkStepStream pin it at 0 allocs/op, and
// the hotalloc analyzer enforces the same property at build time.
//
// Two schedulers cut the work, both off under DisableCycleSkip (the
// every-tick reference): the event horizon skips whole idle cycles, and in
// the cycles that are stepped, only the components with something due do
// work. Ring delivery stops at the last queued message, the slice pass
// runs only when sliceDue is reached, cores, EMCs and DRAM controllers
// tick only when their own next event is due, and a core with no unshipped
// chain answers TakeReadyChain at once. A core whose Tick is skipped
// credits its per-cycle stall counters later, in one catch-up (DESIGN.md
// §8.1).
//
//simlint:noalloc bench=BenchmarkStep(Idle|Saturated|Stream)
func (s *System) step() {
	gate := !s.cfg.DisableCycleSkip
	// Event-horizon fast-forward: when every component agrees the next
	// state change is at cycle h > now+1, the Ticks in between are pure
	// no-ops — jump to h-1. The cores credit the skipped cycles' stall
	// counters when they next tick or take input.
	if gate {
		if h := s.horizon(); h > s.now+1 {
			if h == noEvent && s.unfinished() {
				s.stalled = true
				return
			}
			target := h - 1
			if target > s.cfg.MaxCycles {
				target = s.cfg.MaxCycles
			}
			if target > s.now {
				s.skipped += target - s.now
				s.now = target
			}
		}
	}

	s.now++
	s.st.Cycles = s.now

	// 1. Interconnect: advance and deliver, stopping once every inbox is
	// empty (a same-stop Send from handle raises Queued and keeps the loop
	// going). Delivered ring Messages and their *msg payloads are recycled
	// here; handle() must not retain them.
	s.ctrl.Tick(s.now)
	s.data.Tick(s.now)
	for stop := 0; stop < s.ctrl.Stops() && s.ctrl.Queued()+s.data.Queued() > 0; stop++ {
		for _, dm := range s.ctrl.Deliver(stop) {
			m := dm.Payload.(*msg)
			s.ctrl.Recycle(dm)
			s.handle(stop, m) //simlint:allocok dispatch appends into steady-state queues; per-message paths that allocate (chain install) are per-chain, not per-cycle
			s.freeMsg(m)
		}
		for _, dm := range s.data.Deliver(stop) {
			m := dm.Payload.(*msg)
			s.data.Recycle(dm)
			s.handle(stop, m) //simlint:allocok dispatch appends into steady-state queues; per-message paths that allocate (chain install) are per-chain, not per-cycle
			s.freeMsg(m)
		}
	}

	// 2. LLC slices: complete due lookups and fills.
	if !gate || s.sliceDue <= s.now {
		due := uint64(noEvent)
		for _, sl := range s.slices {
			if d := s.sliceTick(sl); d < due {
				due = d
			}
		}
		s.sliceDue = due
	}

	// 3. Memory controllers: DRAM, retries, EMC execution.
	for _, mc := range s.mcs {
		s.mcTick(mc, gate)
	}

	// 4. Cores. A core whose cached wake lies ahead would only advance its
	// per-cycle counters, which it credits when it next ticks or takes
	// input. A core that finishes leaves live for good.
	for i := 0; i < len(s.live); i++ {
		c := s.live[i]
		if gate && c.Wake() > s.now {
			s.gated++
			continue
		}
		c.Tick(s.now)
		if c.Finished() {
			n := copy(s.live[i:], s.live[i+1:])
			s.live = s.live[:i+n]
			i--
		}
	}

	// 5. Chain shipping and late-disambiguation conflicts. Not gated on the
	// wake: a chain with ReadyAt == now ships this cycle, while NextEvent
	// reports it at now+1. Both come after the cores' step for now, so an
	// abort here is an input arriving at now+1.
	if s.cfg.EMCEnabled {
		for i, c := range s.cores {
			if ch := c.TakeReadyChain(s.now); ch != nil {
				s.shipChain(i, ch)
			}
			for _, ch := range c.TakeConflictedChains() {
				if mcID, ok := s.activeChains[ch]; ok {
					s.sendCtrl(s.coreStop[i], s.mcs[mcID].stop,
						msg{kind: mConflictAbort, chain: ch, mc: mcID})
				} else {
					c.AbortRemoteChain(ch, s.now+1)
				}
			}
		}
	}

	// 6. Observability: publish live counters / interval samples (read-only;
	// a single branch when disabled).
	if s.obsOn {
		s.obsTick()
	}
}

// ObserveChains installs f to see every chain as it is shipped to the EMC
// (inspection and debugging; cmd/emcsim -chains). Call it before the run
// starts. f must not mutate the chain or retain its slices: the EMC writes
// LiveOuts at completion. Observing never changes the run's Result.
func (s *System) ObserveChains(f func(*cpu.Chain)) { s.onChain = f }

// shipChain sends a generated chain to the MC owning the source line's
// channel, as multiple data-ring flits. The ring delivers each (src, dst)
// flow in order, so only the last flit carries the chain: its arrival
// means the whole packet has been received (mChainDone does the same).
//
//simlint:noalloc
func (s *System) shipChain(core int, ch *cpu.Chain) {
	if s.onChain != nil {
		s.onChain(ch)
	}
	mc := s.mcOf(ch.SourceLine)
	flits := (ch.Bytes() + 63) / 64
	if flits < 1 {
		flits = 1
	}
	s.st.ChainFlits += uint64(flits)
	for f := 0; f < flits-1; f++ {
		s.sendData(s.coreStop[core], mc.stop, msg{kind: mChainFlit, mc: mc.id})
	}
	s.sendData(s.coreStop[core], mc.stop, msg{kind: mChainFlit, chain: ch, mc: mc.id})
}

// handle dispatches a delivered ring message.
func (s *System) handle(stop int, m *msg) {
	switch m.kind {
	case mReqToSlice:
		m.req.sliceArrive = s.now
		if m.req.trace != nil {
			s.tr.StampEvent(m.req.trace, obs.StageSliceReach, s.now)
		}
		s.sliceEnqueue(&s.sliceOf(m.req.line).lookupQ, s.now+uint64(s.cfg.LLCLatency), m.req)
	case mHitData, mFillToCore:
		s.deliverFill(m.req)
		s.freeReq(m.req)
	case mReqToMC:
		s.mcAdmit(s.mcOf(m.req.line), m.req)
	case mFillToSlice:
		s.sliceEnqueue(&s.sliceOf(m.req.line).fillQ, s.now+uint64(s.cfg.LLCFillLatency), m.req)
	case mStore:
		s.sliceStore(m.req)
	case mWriteback:
		s.mcWrite(s.mcOf(m.req.line), m.req)
		s.freeReq(m.req)
	case mL1Inval:
		s.st.L1Invals++
		s.cores[m.core].InvalidateL1D(m.line, s.now)
	case mEMCInval:
		s.st.EMCInvals++
		if e := s.mcs[m.mc].emc; e != nil {
			e.InvalidateLine(m.line)
		}
	case mChainFlit:
		if m.chain == nil {
			return // leading flit of a multi-flit chain packet
		}
		s.installChain(s.mcs[m.mc], m.chain)
	case mChainDone:
		if m.values == nil {
			return // leading flit of a multi-flit live-out transfer
		}
		s.cores[m.core].CompleteRemoteChain(m.chain, m.values, s.now)
		delete(s.activeChains, m.chain)
	case mChainAbort:
		s.cores[m.core].AbortRemoteChain(m.chain, s.now)
		delete(s.activeChains, m.chain)
		if m.reason == emc.AbortTLBMiss {
			// The core responds with the missing translation so the next
			// chain touching this page succeeds.
			pte := s.pts[m.core].Lookup(m.vaddr)
			s.sendCtrl(s.coreStop[m.core], s.mcs[m.mc].stop,
				msg{kind: mPTEInstall, core: m.core, mc: m.mc, vaddr: m.vaddr})
			_ = pte
		}
	case mMemExec:
		robIdx := m.chain.Uops[m.uopIdx].RobIdx
		conflict := s.cores[m.core].RemoteMemExecuted(robIdx, m.vaddr, s.now)
		if conflict {
			s.sendCtrl(s.coreStop[m.core], s.mcs[m.mc].stop,
				msg{kind: mConflictAbort, chain: m.chain, mc: m.mc})
		}
	case mConflictAbort:
		mc := s.mcs[m.mc]
		if mc.emc != nil {
			s.emcActions(mc, mc.emc.AbortContext(m.chain, emc.AbortConflict, s.now))
		}
	case mPTEInstall:
		s.st.PTEInstalls++
		mc := s.mcs[m.mc]
		if mc.emc != nil {
			mc.emc.InsertPTE(m.core, m.vaddr, s.pts[m.core].Lookup(m.vaddr))
		}
	case mEMCLLCReq:
		m.req.sliceArrive = s.now
		if m.req.trace != nil {
			s.tr.StampEvent(m.req.trace, obs.StageSliceReach, s.now)
		}
		s.sliceEnqueue(&s.sliceOf(m.req.line).lookupQ, s.now+uint64(s.cfg.LLCLatency), m.req)
	case mEMCLLCData:
		s.emcFill(s.mcs[m.req.emcMC], m.req)
		s.freeReq(m.req)
	case mCrossReq:
		s.st.CrossMCRequests++
		s.mcAdmit(s.mcs[m.mc], m.req)
	case mCrossData:
		s.emcFill(s.mcs[m.req.emcMC], m.req)
		s.freeReq(m.req)
	}
}

// deliverFill hands a line to the requesting core's L1 and bookkeeps
// latency segments.
func (s *System) deliverFill(r *memReq) {
	r.fillCore = s.now
	core := s.cores[r.core]
	victim, had := core.Fill(r.line, s.now)
	sl := s.sliceOf(r.line)
	sl.c.SetPresence(r.line<<cache.LineShift, r.core, true)
	if had {
		s.sliceOf(victim).c.SetPresence(victim<<cache.LineShift, r.core, false)
	}
	if r.trace != nil {
		s.tr.StampEvent(r.trace, obs.StageFill, s.now)
		if r.llcMiss && !r.ideal {
			// Attribution covers exactly the requests CoreMissTotal counts,
			// so sampled component sums reconcile against it.
			s.tr.Attr().AddStamps(obs.SrcCore, obs.Stamps{
				Issued: r.issuedAt, SliceReach: r.sliceArrive, SliceDone: r.sliceDone,
				MCReach: r.mcArrive, DRAMIssued: r.dramIssued, DRAMDone: r.dramDone,
				Fill: r.fillCore,
			})
		}
	}
	if r.llcMiss && !r.ideal {
		s.st.CoreMissCount++
		s.st.CoreMissHist.Add(r.fillCore - r.issuedAt)
		s.st.CoreMissTotal += r.fillCore - r.issuedAt
		// Segment accounting only for requests with a complete, monotone
		// timeline (merged waiters picked up mid-flight lack early stamps).
		if r.issuedAt <= r.mcArrive && r.mcArrive <= r.dramIssued &&
			r.dramIssued <= r.dramDone && r.dramDone <= r.fillCore &&
			r.sliceArrive <= r.sliceDone && r.mcArrive > 0 {
			s.st.CoreMissSegCount++
			s.st.CoreMissDRAM += r.dramDone - r.dramIssued
			s.st.CoreMissQueue += r.dramIssued - r.mcArrive
			s.st.CoreMissRingReq += r.mcArrive - r.issuedAt
			s.st.CoreMissRingRsp += r.fillCore - r.dramDone
			s.st.CoreMissLLCLat += r.sliceDone - r.sliceArrive
		}
	}
}

// ---- LLC slice behaviour --------------------------------------------------------

// sliceEnqueue appends a lookup or fill due at cycle at to a slice queue and
// lowers sliceDue to it.
func (s *System) sliceEnqueue(q *[]sliceEvent, at uint64, r *memReq) {
	*q = append(*q, sliceEvent{at: at, req: r})
	if at < s.sliceDue {
		s.sliceDue = at
	}
}

// sliceTick completes a slice's due lookups and fills and returns the cycle
// its earliest remaining event is due, noEvent when none is queued.
func (s *System) sliceTick(sl *llcSlice) uint64 {
	for sl.lkHead < len(sl.lookupQ) && sl.lookupQ[sl.lkHead].at <= s.now {
		req := sl.lookupQ[sl.lkHead].req
		sl.lookupQ[sl.lkHead] = sliceEvent{}
		sl.lkHead++
		s.sliceLookup(sl, req)
	}
	if sl.lkHead == len(sl.lookupQ) && sl.lkHead > 0 {
		sl.lookupQ = sl.lookupQ[:0]
		sl.lkHead = 0
	}
	for sl.flHead < len(sl.fillQ) && sl.fillQ[sl.flHead].at <= s.now {
		req := sl.fillQ[sl.flHead].req
		sl.fillQ[sl.flHead] = sliceEvent{}
		sl.flHead++
		s.sliceFill(sl, req)
	}
	if sl.flHead == len(sl.fillQ) && sl.flHead > 0 {
		sl.fillQ = sl.fillQ[:0]
		sl.flHead = 0
	}
	due := uint64(noEvent)
	if sl.lkHead < len(sl.lookupQ) {
		due = sl.lookupQ[sl.lkHead].at
	}
	if sl.flHead < len(sl.fillQ) && sl.fillQ[sl.flHead].at < due {
		due = sl.fillQ[sl.flHead].at
	}
	return due
}

func (s *System) sliceLookup(sl *llcSlice, r *memReq) {
	r.sliceDone = s.now
	if r.trace != nil {
		s.tr.StampEvent(r.trace, obs.StageSliceDone, s.now)
	}
	addr := r.line << cache.LineShift
	hit := sl.c.Access(addr, false)
	if !r.fromEMC {
		s.st.LLCDemand++
	}

	// Train the miss predictor at every EMC from core demand outcomes.
	if !r.fromEMC && s.cfg.EMCEnabled {
		for _, mc := range s.mcs {
			if mc.emc != nil {
				mc.emc.TrainMissPredictor(r.core, r.pc, !hit)
			}
		}
	}

	if hit {
		s.st.LLCHits++
		if r.prefetch {
			s.freeReq(r) // runahead prefetch found the line already on chip
			return
		}
		if sl.c.TakePrefetched(addr) {
			s.pfs[r.core].RecordUseful()
			s.st.TotalCovered++
			if r.dependent {
				s.st.DepCovered++
			}
			if r.fromEMC {
				s.st.EMCCoveredByPF++
			}
		}
		if r.fromEMC {
			s.st.EMCLLCHits++
			s.sendData(sl.stop, s.mcs[r.emcMC].stop, msg{kind: mEMCLLCData, req: r})
		} else {
			s.sendData(sl.stop, s.coreStop[r.core], msg{kind: mHitData, req: r})
		}
		return
	}

	// Miss.
	s.st.LLCMisses++
	r.llcMiss = true
	if r.prefetch {
		// Runahead prefetch: merge/launch a fill, nothing returns to the core.
		if w, ok := sl.outstanding[r.line]; ok {
			w.reqs = append(w.reqs, r)
			return
		}
		s.launchFill(sl, r)
		return
	}
	if !r.fromEMC {
		s.cores[r.core].NoteLLCMiss(r.line, s.now)
		if r.dependent {
			s.st.DepMisses++
		}
		// Fig. 2 idealization: dependent misses served at hit latency.
		if s.cfg.IdealDependentHits && r.dependent {
			s.st.IdealDepHits++
			r.ideal = true
			s.sendData(sl.stop, s.coreStop[r.core], msg{kind: mHitData, req: r})
			return
		}
		// Train the prefetcher on the miss and issue its proposals.
		s.trainPrefetch(r, true)
	}

	if w, ok := sl.outstanding[r.line]; ok {
		w.reqs = append(w.reqs, r)
		return
	}
	if r.fromEMC {
		// The launcher lands in both this slice's outstanding set and the
		// MC's pending entry, and is filled through both: once directly at
		// the EMC, once via the slice's mEMCLLCData forward.
		r.refs++
	}
	s.launchFill(sl, r)
}

// launchFill opens the slice's outstanding entry for r's line with r as its
// launcher and sends r to the line's MC.
func (s *System) launchFill(sl *llcSlice, r *memReq) {
	sl.outstanding[r.line] = s.allocWaiters(r)
	r.mcOut = true
	s.sendCtrl(sl.stop, s.mcOf(r.line).stop, msg{kind: mReqToMC, req: r})
}

// trainPrefetch feeds the per-core prefetcher and launches its proposals
// into the owning slices.
func (s *System) trainPrefetch(r *memReq, miss bool) {
	if s.cfg.Prefetcher == PFNone {
		return
	}
	props := s.pfs[r.core].Train(prefetch.Event{LineAddr: r.line, PC: r.pc, Core: r.core, Miss: miss})
	for _, line := range props {
		s.issuePrefetch(r.core, line)
	}
}

func (s *System) issuePrefetch(core int, line uint64) {
	sl := s.sliceOf(line)
	addr := line << cache.LineShift
	if sl.c.Probe(addr) {
		return
	}
	if _, ok := sl.outstanding[line]; ok {
		return
	}
	r := s.allocReq()
	r.line, r.core, r.prefetch, r.issuedAt = line, core, true, s.now
	if s.tr != nil {
		r.trace = s.tr.Start(obs.SrcPrefetch, core, line, 0, false, s.now)
	}
	s.launchFill(sl, r)
}

// sliceFill inserts a filled line, maintains the inclusive directory, and
// forwards data to waiting cores/EMCs.
func (s *System) sliceFill(sl *llcSlice, r *memReq) {
	addr := r.line << cache.LineShift
	v := sl.c.Insert(addr, false)
	if r.prefetch {
		sl.c.SetPrefetched(addr, true)
	}
	if v.Valid {
		s.evictVictim(sl, v)
	}
	if r.fromEMC {
		// The EMC holds this line in its data cache (§4.1.3).
		sl.c.SetEMCBit(addr, true)
	}
	w := sl.outstanding[r.line]
	if w == nil {
		s.freeReq(r) // EMC-only fill with no slice waiters
		return
	}
	if lead := w.reqs[0]; lead != r && lead.mcOut {
		// An EMC-only fill from another DRAM read of this line overtook the
		// launcher's own request, still on the ring or pending at the MC.
		// Closing the entry here would free the launcher while that request
		// still references it; its own fill closes the entry instead.
		s.freeReq(r)
		return
	}
	delete(sl.outstanding, r.line)
	fwdSelf := false
	for _, wr := range w.reqs {
		if wr.prefetch {
			if wr != r {
				s.freeReq(wr) // prefetch waiters terminate here
			}
			continue
		}
		// Copy fill timing onto merged waiters.
		if wr.dramDone == 0 {
			wr.dramDone, wr.dramIssued, wr.mcArrive = r.dramDone, r.dramIssued, r.mcArrive
			wr.llcMiss = true
		}
		if wr == r {
			fwdSelf = true
		}
		if wr.fromEMC {
			s.sendData(sl.stop, s.mcs[wr.emcMC].stop, msg{kind: mEMCLLCData, req: wr})
		} else {
			s.sendData(sl.stop, s.coreStop[wr.core], msg{kind: mFillToCore, req: wr})
		}
	}
	s.freeWaiters(w)
	if !fwdSelf {
		s.freeReq(r) // fresh or prefetch lead: not forwarded anywhere
	}
}

// evictVictim handles an LLC eviction: inclusive invalidations to L1s, EMC
// cache invalidation, and the dirty writeback.
func (s *System) evictVictim(sl *llcSlice, v cache.Victim) {
	for core := 0; core < len(s.cores); core++ {
		if v.Presence&(1<<uint(core)) != 0 {
			s.sendCtrl(sl.stop, s.coreStop[core], msg{kind: mL1Inval, core: core, line: v.LineAddr})
		}
	}
	if v.EMC {
		for _, mc := range s.mcs {
			if mc.emc != nil {
				s.sendCtrl(sl.stop, mc.stop, msg{kind: mEMCInval, mc: mc.id, line: v.LineAddr})
			}
		}
	}
	if v.Dirty {
		wb := s.allocReq()
		wb.line, wb.core, wb.issuedAt = v.LineAddr, -1, s.now
		s.sendData(sl.stop, s.mcOf(v.LineAddr).stop, msg{kind: mWriteback, req: wb})
	}
}

// sliceStore applies a write-through store at the LLC (write-no-allocate).
func (s *System) sliceStore(r *memReq) {
	sl := s.sliceOf(r.line)
	addr := r.line << cache.LineShift
	if sl.c.Probe(addr) {
		sl.c.Access(addr, true) // marks dirty (write-back LLC)
		if sl.c.EMCBit(addr) {
			sl.c.SetEMCBit(addr, false)
			for _, mc := range s.mcs {
				if mc.emc != nil {
					s.sendCtrl(sl.stop, mc.stop, msg{kind: mEMCInval, mc: mc.id, line: r.line})
				}
			}
		}
		s.freeReq(r)
		return
	}
	// Miss: no allocate; the write goes to DRAM.
	s.sendCtrl(sl.stop, s.mcOf(r.line).stop, msg{kind: mWriteback, req: r})
}
