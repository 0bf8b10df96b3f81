// Package cpu implements the cycle-level out-of-order core model of Table 1:
// 4-wide fetch/rename/issue/retire, a 256-entry reorder buffer with ROB-slot
// renaming, a 92-entry reservation station with a common data bus, a
// load/store queue with store-to-load forwarding, write-through L1 caches,
// and the dependence-chain generation unit of §4.2 of the paper.
//
// The core is trace driven: it pulls value-consistent uops from a
// trace.Feed and executes them functionally, so register values (and thus
// the live-ins shipped to the Enhanced Memory Controller) are real.
package cpu

import (
	"fmt"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem/cache"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Config sizes one core (defaults mirror Table 1).
type Config struct {
	ID          int
	FetchWidth  int
	IssueWidth  int
	RetireWidth int
	ROBSize     int
	RSSize      int
	LQSize      int
	SQSize      int
	MemPorts    int // loads+stores issued per cycle

	L1ISize, L1IWays int
	L1DSize, L1DWays int
	L1Latency        int
	MSHRs            int

	TLBEntries  int
	TLBWalkLat  int
	StoreBuffer int

	MispredictPenalty int
	ICacheMissPenalty int

	// Chain generation (§4.2).
	ChainMaxUops    int // 16
	ChainMaxRegs    int // EMC PRF size, 16
	ChainMaxLiveIns int // live-in vector, 16
	DepCounterBits  int // 3-bit saturating counter
	// MaxActiveChains bounds chains buffered/in flight per core (the core
	// buffers generated chains before transmission, §4.2).
	MaxActiveChains int

	// EMCEnabled gates chain generation entirely (baseline configs).
	EMCEnabled bool

	// Runahead configures the runahead-execution engine (the comparison
	// baseline; see runahead.go).
	Runahead RunaheadConfig

	// UseBranchPredictor replaces the trace-carried mispredict flags with
	// the hybrid predictor of Table 1 (bimodal + gshare + chooser) running
	// on the trace's actual branch outcomes.
	UseBranchPredictor bool
	BranchPredictor    bpred.Config
}

// DefaultConfig returns the Table-1 core.
func DefaultConfig(id int) Config {
	return Config{
		ID: id, FetchWidth: 4, IssueWidth: 4, RetireWidth: 4,
		ROBSize: 256, RSSize: 92, LQSize: 64, SQSize: 48, MemPorts: 2,
		L1ISize: 32 * 1024, L1IWays: 8, L1DSize: 32 * 1024, L1DWays: 8,
		L1Latency: 3, MSHRs: 16,
		TLBEntries: 64, TLBWalkLat: 30, StoreBuffer: 32,
		MispredictPenalty: 14, ICacheMissPenalty: 30,
		ChainMaxUops: 16, ChainMaxRegs: 16, ChainMaxLiveIns: 16,
		DepCounterBits: 3, MaxActiveChains: 2,
		Runahead:        DefaultRunaheadConfig(),
		BranchPredictor: bpred.DefaultConfig(),
	}
}

// MissInfo describes a demand load miss leaving the core for the uncore.
type MissInfo struct {
	CoreID   int
	LineAddr uint64 // physical line address
	VAddr    uint64
	PC       uint64
	IssuedAt uint64
	// Dependent marks a load whose address derives from a prior LLC miss
	// (the paper's dependent cache miss).
	Dependent bool

	// Prefetch marks a runahead-issued request: fill the LLC, no core
	// waiter.
	Prefetch bool
}

// Uncore is the core's window onto the rest of the chip; the system
// simulator implements it. Fills come back via Core.Fill.
type Uncore interface {
	// LoadMiss requests a cache-line fill. m points into the core's own
	// scratch and is valid only for the duration of the call.
	LoadMiss(m *MissInfo)
	// StoreWrite propagates a retired write-through store toward the LLC.
	StoreWrite(coreID int, lineAddr uint64, vaddr uint64)
}

type entryState uint8

const (
	stEmpty entryState = iota
	stWaiting
	stReady  // in ready queue
	stIssued // executing
	stDone
)

var entryStateNames = [...]string{"empty", "waiting", "ready", "issued", "done"}

func (s entryState) String() string { return entryStateNames[s] }

type srcKind uint8

const (
	srcNone srcKind = iota
	srcValue
	srcTag
)

// robEntry holds the cold per-slot state. The fields the per-cycle scan
// loops touch (issue, retry sweeps, wakeups, chain walks) live in dense
// parallel arrays on Core — see the "hot per-slot state" block there
// (struct-of-arrays, DESIGN.md §13.1) — so those loops walk a few cache
// lines instead of striding over ~250-byte entries.
type robEntry struct {
	u isa.Uop

	srcKind  [2]srcKind
	srcVal   [2]uint64
	srcTag   [2]int32
	srcTaint [2]bool
	// srcTaintSrc tracks which ROB slot's LLC miss the taint came from
	// (with its dispatch seq to detect slot reuse), so dependent misses can
	// credit their producer for counter training.
	srcTaintSrc [2]int32
	srcTaintSeq [2]uint64

	val          uint64
	taint        bool // value derived from an LLC miss
	wasDependent bool // this load's address derived from a prior LLC miss
	taintSrc     int32
	taintSeq     uint64

	consumers []int32 // rob slots waiting on this entry's result

	// Memory state.
	vaddr uint64
	paddr uint64
	// parkGen is the core's fillGen when this load last failed to get an
	// MSHR (0: never); while the two are equal a retry can only fail the
	// same way (DESIGN.md §8.1). tlbSlot is the TLB slot its page sat in at
	// its last translation, a hint the TLB checks.
	parkGen   uint64
	tlbSlot   int32
	isLLCMiss bool
	forwarded bool
	l1Counted bool // this load already counted as an L1D miss (retries)

	// EMC state.
	inChain         bool
	producedDepMiss bool
	chainRef        *Chain // the chain this uop was shipped in (remote uops)

	issuedAt uint64
}

const eventHorizon = 256

// NoEvent is the NextEvent sentinel: the core has no self-generated future
// work and will only act again on external input (a fill, a chain completion,
// an abort).
const NoEvent = ^uint64(0)

// Stats aggregates core-side counters.
type Stats struct {
	Cycles           uint64
	Retired          uint64
	Loads            uint64
	Stores           uint64
	Branches         uint64
	Mispredicts      uint64
	FetchStallCycles uint64
	ROBFullCycles    uint64
	FullWindowStalls uint64 // cycles stalled with a miss blocking retirement

	L1DMisses          uint64
	L1MissRequests     uint64 // line requests sent to the uncore
	LLCMissLoads       uint64 // loads the LLC reported as misses
	DependentMissLoads uint64
	StoreForwards      uint64
	ICacheMisses       uint64
	TLBWalks           uint64

	// Load-miss latency observed at the core (issue -> usable data).
	MissLatencySum uint64
	MissCount      uint64

	// Chain generation.
	ChainsGenerated    uint64
	ChainUops          uint64
	ChainLiveIns       uint64
	ChainLiveOuts      uint64
	ChainGenCycles     uint64
	ChainAborts        uint64
	ChainNoCandidate   uint64
	RemoteCompleted    uint64 // uops completed by EMC live-outs
	DepCounterInc      uint64
	DepCounterDec      uint64
	ChainDeliverySum   uint64 // live-out delivery time after source fill
	ChainDeliveryCount uint64
	ChainLoadsRemote   uint64 // loads completed at the EMC
	RemoteHeadStall    uint64 // retire blocked by a not-yet-completed remote uop
	ChainCancels       uint64 // chains stale before transmission
	ChainLeadSum       int64  // source-fill time minus generation start
	ChainLeadCount     uint64
}

// Core is one simulated out-of-order core.
type Core struct {
	cfg      Config
	feed     *trace.Feed
	done     bool // trace exhausted
	finished bool // Finished() latched true (monotone once done+drained)
	uncore   Uncore

	pt  *vm.PageTable
	tlb *vm.TLB
	l1i *cache.Cache
	l1d *cache.Cache
	msh *cache.MSHRFile

	rob      []robEntry
	robHead  int
	robCount int
	nextSeq  uint64

	// Hot per-slot state, struct-of-arrays (indexed by ROB slot, DESIGN.md
	// §13.1). The per-cycle scan loops read only these dense arrays; the
	// cold remainder of each entry stays in rob[].
	st         []entryState
	seq        []uint64
	ops        []isa.Op // mirror of rob[i].u.Op, set at dispatch
	remote     []bool   // shipped to the EMC; do not issue locally
	memBlocked []bool   // parked in blockedLd (or riding a run token)
	addrValid  []bool

	renameMap [isa.NumArchRegs]int32
	archVal   [isa.NumArchRegs]uint64
	archTaint [isa.NumArchRegs]bool

	// Run tokens. readyQ and blockedLd hold ROB slots, and also negative
	// items ^h: a run token standing for a maximal sequence of consecutive
	// store-blocked parked loads, h being the first. Members are linked in
	// order through runNext (-1 ends the run); runTail and runMin (the
	// members' least dispatch seq) are kept for heads only. Every member is
	// a local stReady load with no other copy in either list; memBlocked
	// stays set while it rides a token. While the first unresolved store
	// (blockerSeq) is older than every member, the run is valid: each
	// member is store-blocked, issues nothing and touches no counter, so
	// issue, retryBlockedLoads and NextEvent move or skip the whole run in
	// O(1) where the per-entry loops would handle each member in turn.
	// runValid is one comparison; issue() splits an invalid run back into
	// its members in place when it reaches it, and a chain ship splits out
	// the loads it ships (DESIGN.md §8.3).
	runNext []int32
	runTail []int32
	runMin  []uint64
	// copies counts each slot's items in readyQ and blockedLd (a run counts
	// once for each member). Stale entries of a reused slot and chain aborts
	// create duplicates; a load joins a run only when its copy is the sole
	// one.
	copies []int32
	runs   int // run tokens present in readyQ and blockedLd
	runBuf []int32

	rsCount int
	readyQ  []int32

	events    [eventHorizon][]int32
	pendingEv int // scheduled-but-not-yet-drained completion events
	// evMask mirrors events occupancy: bit b of evMask[b/64] is set iff
	// events[b] is non-empty, so NextEvent finds the earliest completion
	// with a handful of TrailingZeros64 probes instead of a 255-bucket scan.
	evMask    [eventHorizon / 64]uint64
	lq, sq    []int32 // rob slots of in-flight loads/stores, program order
	blockedLd []int32 // loads waiting on LSQ conditions or MSHR space
	// sqRes is the store queue's resolved prefix: sq[:sqRes] are all
	// resolved stores. blockerSeq moves it forward; retire lowers it when
	// the oldest store leaves (DESIGN.md §8.3).
	sqRes int

	storeBuf  []storeWrite
	storeHead int // consumed prefix of storeBuf (head-index pop)

	fetchHold        int32 // rob slot of unresolved mispredicted branch, -1
	fetchBlockedTill uint64

	miss MissInfo // the request Uncore.LoadMiss is handed (no per-miss heap copy)

	pendingFetch *isa.Uop // uop fetched but not yet dispatched (stall)
	fetchBuf     isa.Uop  // backing store for fetched uops (no per-uop heap copy)

	depCounter int
	depMax     int

	chains           []*Chain // active: generated, shipped, not yet resolved
	lastChainAttempt uint64
	conflicted       []*Chain // chains caught by late memory disambiguation

	// Chain-walk scratch (generateChain). walkMark[slot] == walkEpoch marks
	// a member of the current walk, and walkEPR[slot] is its EMC register
	// (the RRT); bumping walkEpoch empties both. walkUops and walkLiveIns
	// are the walk's vectors, reused across walks. Only cores with the EMC
	// enabled walk, so only they allocate the per-slot arrays.
	walkMark    []uint32
	walkEPR     []uint8
	walkEpoch   uint32
	walkUops    []ChainUop
	walkLiveIns []uint64

	ra           RunaheadConfig
	lastRunahead uint64
	bp           *bpred.Predictor

	now           uint64
	Stats         Stats
	RunaheadStats RunaheadStats

	// Debug counters (not part of Stats).
	DbgChainBusy  uint64
	DbgCounterLow uint64
	DbgStallHeads uint64
	lastStallHead uint64

	// icFillAt is the cycle a pending I-cache fill completes; fetch stalls
	// until then.
	icFillAt uint64

	// wake caches NextEvent as of the last Tick: before that cycle a Tick
	// would be a no-op apart from the counters skipIdle credits. Every input
	// method resets it to 0 (due), so the system may skip this core's Tick
	// while Wake() > now (DESIGN.md §8.1).
	wake uint64
	// acct is the last cycle whose per-cycle counters are credited. The
	// cycles after it in which the system skipped this core's Tick are
	// credited in one skipIdle by the next Tick, input method or Settle.
	acct uint64
	// unshipped counts the chains in chains not yet shipped or cancelled,
	// so TakeReadyChain returns at once when there is none.
	unshipped int
	// fillGen counts the fills that completed an MSHR, from 1; only such a
	// fill frees an MSHR or adds a line to the L1D. retryPure says every TLB
	// access of the last Tick was the retry of a load parked under the
	// current fillGen that hit (DESIGN.md §8.1).
	fillGen   uint64
	retryPure bool
}

type storeWrite struct {
	lineAddr uint64
	vaddr    uint64
}

// New builds a core over a uop feed, a page table, and an uncore.
func New(cfg Config, feed *trace.Feed, pt *vm.PageTable, uncore Uncore) *Core {
	c := &Core{
		cfg:    cfg,
		feed:   feed,
		uncore: uncore,
		pt:     pt,
		tlb:    vm.NewTLB(cfg.TLBEntries, cfg.TLBWalkLat),
		l1i: cache.New(cache.Config{Name: fmt.Sprintf("l1i%d", cfg.ID),
			SizeBytes: cfg.L1ISize, Ways: cfg.L1IWays, Latency: cfg.L1Latency, WriteThrough: true}),
		l1d: cache.New(cache.Config{Name: fmt.Sprintf("l1d%d", cfg.ID),
			SizeBytes: cfg.L1DSize, Ways: cfg.L1DWays, Latency: cfg.L1Latency, WriteThrough: true}),
		msh:        cache.NewMSHRFile(cfg.MSHRs),
		rob:        make([]robEntry, cfg.ROBSize),
		st:         make([]entryState, cfg.ROBSize),
		seq:        make([]uint64, cfg.ROBSize),
		ops:        make([]isa.Op, cfg.ROBSize),
		remote:     make([]bool, cfg.ROBSize),
		memBlocked: make([]bool, cfg.ROBSize),
		addrValid:  make([]bool, cfg.ROBSize),
		runNext:    make([]int32, cfg.ROBSize),
		runTail:    make([]int32, cfg.ROBSize),
		runMin:     make([]uint64, cfg.ROBSize),
		copies:     make([]int32, cfg.ROBSize),
		fetchHold:  -1,
		fillGen:    1,
	}
	for i := range c.renameMap {
		c.renameMap[i] = -1
	}
	if cfg.EMCEnabled {
		c.walkMark = make([]uint32, cfg.ROBSize)
		c.walkEPR = make([]uint8, cfg.ROBSize)
	}
	c.depMax = 1<<uint(cfg.DepCounterBits) - 1
	c.ra = cfg.Runahead
	if cfg.UseBranchPredictor {
		c.bp = bpred.New(cfg.BranchPredictor)
	}
	return c
}

// ID returns the core's id.
func (c *Core) ID() int { return c.cfg.ID }

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// InvalidateL1D drops a line from the data cache (the inclusive LLC evicted
// it).
func (c *Core) InvalidateL1D(lineAddr, now uint64) {
	c.input(now)
	c.l1d.Invalidate(lineAddr << cache.LineShift)
}

// Wake returns the first cycle at which the core must tick again: NextEvent
// as of its last Tick, or 0 when an input has arrived since. While Wake() >
// now, Tick(now) would only advance the per-cycle counters, and the system
// may skip it: the next Tick, input method or Settle credits them.
func (c *Core) Wake() uint64 { return c.wake }

// input starts every input method. An input method takes the cycle now
// whose Tick first sees the input; input credits the skipped cycles before
// now from the state they saw, and makes the core due.
//
//simlint:noalloc
func (c *Core) input(now uint64) {
	c.catchUp(now)
	c.wake = 0
}

// catchUp credits the per-cycle counters of the cycles after acct and before
// now. The system skipped the core's Tick in each of them, and no input
// arrived in between, so each would have been an idle Tick seeing the
// current state. A finished core never ticks again and is not credited.
//
//simlint:noalloc
func (c *Core) catchUp(now uint64) {
	if now <= c.acct+1 || c.Finished() {
		return
	}
	c.skipIdle(c.acct, now-1-c.acct)
	c.acct = now - 1
}

// Settle credits the per-cycle counters through cycle now, whose step the
// system has finished. Call it before reading Stats or the debug counters
// between steps; the result is the same as if every skipped Tick had run.
func (c *Core) Settle(now uint64) { c.catchUp(now + 1) }

// ROBOccupancy returns the number of in-flight ROB entries (a live gauge
// for the observability layer).
func (c *Core) ROBOccupancy() int { return c.robCount }

// MSHROccupancy returns the number of outstanding L1 miss entries.
func (c *Core) MSHROccupancy() int { return c.msh.Len() }

// HeadInfo describes the oldest in-flight instruction: its op, pipeline
// state, and for a memory op (Mem) the physical line it addresses.
type HeadInfo struct {
	Op    isa.Op
	State string
	Mem   bool
	Line  uint64
}

// ROBHead reports the ROB head (deadlock diagnostics); ok=false when the ROB
// is empty.
func (c *Core) ROBHead() (h HeadInfo, ok bool) {
	if c.robCount == 0 {
		return HeadInfo{}, false
	}
	h = HeadInfo{Op: c.ops[c.robHead], State: c.st[c.robHead].String()}
	if h.Op == isa.OpLoad || h.Op == isa.OpStore {
		h.Mem = true
		h.Line = cache.LineAddr(c.slot(int32(c.robHead)).paddr)
	}
	return h, true
}

// Finished reports whether the trace is exhausted and the pipeline drained.
// The condition is monotone — once the trace is done and the window, store
// buffer, and fetch stage are empty, no new work can arrive — so the result
// latches and repeat callers (the per-step scheduler loop) take the fast path.
func (c *Core) Finished() bool {
	if c.finished {
		return true
	}
	if c.done && c.robCount == 0 && len(c.storeBuf) == c.storeHead && c.pendingFetch == nil {
		c.finished = true
	}
	return c.finished
}

func (c *Core) slot(i int32) *robEntry { return &c.rob[i] }

func (c *Core) robIndexAt(offset int) int32 {
	return int32((c.robHead + offset) % c.cfg.ROBSize)
}

// Tick advances the core one cycle. Order: retire, complete, issue,
// dispatch/fetch — standard reverse-pipeline order so results are visible
// to younger stages one cycle later.
func (c *Core) Tick(now uint64) {
	c.catchUp(now)
	c.now = now
	c.acct = now
	c.Stats.Cycles++
	c.retryPure = true
	c.retire()
	c.complete()
	c.drainStoreBuffer()
	c.retryBlockedLoads()
	c.issue()
	c.dispatch()
	c.maybeStartChain()
	c.maybeRunahead()
	c.wake = c.NextEvent(now)
}

// ---- Retire ----------------------------------------------------------------

func (c *Core) retire() {
	for n := 0; n < c.cfg.RetireWidth && c.robCount > 0; n++ {
		idx := int32(c.robHead)
		e := c.slot(idx)
		if c.st[idx] != stDone {
			if c.remote[idx] {
				c.Stats.RemoteHeadStall++
			}
			if c.ops[idx] == isa.OpLoad && e.isLLCMiss {
				if c.robCount == c.cfg.ROBSize {
					c.Stats.FullWindowStalls++
				}
			}
			if c.robCount == c.cfg.ROBSize {
				c.Stats.ROBFullCycles++
			}
			return
		}
		// Stores drain through the post-retirement store buffer; stall
		// retirement if it is full.
		if e.u.Op == isa.OpStore {
			if len(c.storeBuf)-c.storeHead >= c.cfg.StoreBuffer {
				return
			}
			c.storeBuf = append(c.storeBuf, storeWrite{lineAddr: cache.LineAddr(e.paddr), vaddr: e.vaddr})
		}
		// Commit the architectural register value.
		if e.u.HasDst() {
			if c.renameMap[e.u.Dst] == idx {
				c.renameMap[e.u.Dst] = -1
			}
			c.archVal[e.u.Dst] = e.val
			c.archTaint[e.u.Dst] = e.taint
		}
		// Remove from LSQ program-order lists.
		switch e.u.Op {
		case isa.OpLoad:
			c.lq = removeSlot(c.lq, idx)
		case isa.OpStore:
			// Retirement is in order: the store is sq[0].
			if c.sqRes > 0 {
				c.sqRes--
			}
			c.sq = removeSlot(c.sq, idx)
		}
		c.st[idx] = stEmpty
		e.consumers = e.consumers[:0]
		c.robHead = (c.robHead + 1) % c.cfg.ROBSize
		c.robCount--
		c.Stats.Retired++
	}
}

func removeSlot(list []int32, idx int32) []int32 {
	for i, v := range list {
		if v == idx {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

func (c *Core) bumpDepCounter(d int) {
	if d > 0 {
		c.Stats.DepCounterInc++
	} else {
		c.Stats.DepCounterDec++
	}
	c.depCounter += d
	if c.depCounter < 0 {
		c.depCounter = 0
	}
	if c.depCounter > c.depMax {
		c.depCounter = c.depMax
	}
}

// DepCounterHigh reports whether either of the top two bits of the
// saturating counter is set (the paper's trigger condition).
func (c *Core) DepCounterHigh() bool {
	return c.depCounter >= 1<<uint(c.cfg.DepCounterBits-2)
}

// ---- Complete / common data bus ---------------------------------------------

func (c *Core) schedule(idx int32, at uint64) {
	if at <= c.now {
		at = c.now + 1
	}
	if at-c.now >= eventHorizon {
		panic("cpu: completion scheduled beyond event horizon")
	}
	b := at % eventHorizon
	c.events[b] = append(c.events[b], idx)
	c.evMask[b>>6] |= 1 << (b & 63)
	c.pendingEv++
}

func (c *Core) complete() {
	bucket := c.now % eventHorizon
	list := c.events[bucket]
	if len(list) == 0 {
		return
	}
	// schedule() never targets the current cycle's bucket (at >= now+1 and
	// at-now < eventHorizon), so reusing the backing array here is safe.
	c.events[bucket] = list[:0]
	c.evMask[bucket>>6] &^= 1 << (bucket & 63)
	c.pendingEv -= len(list)
	for _, idx := range list {
		if c.st[idx] != stIssued {
			continue
		}
		c.finish(idx, c.slot(idx).val)
	}
}

// finish marks an entry done with its result value and wakes consumers.
func (c *Core) finish(idx int32, val uint64) {
	e := c.slot(idx)
	e.val = val
	c.st[idx] = stDone
	for _, cons := range e.consumers {
		ce := c.slot(cons)
		if c.st[cons] == stEmpty {
			continue
		}
		for s := 0; s < 2; s++ {
			if ce.srcKind[s] == srcTag && ce.srcTag[s] == idx {
				ce.srcKind[s] = srcValue
				ce.srcVal[s] = val
				ce.srcTaint[s] = e.taint
				ce.srcTaintSrc[s] = e.taintSrc
				ce.srcTaintSeq[s] = e.taintSeq
			}
		}
		c.maybeWake(cons)
	}
	e.consumers = e.consumers[:0]
}

func (c *Core) maybeWake(idx int32) {
	if c.st[idx] != stWaiting {
		return
	}
	e := c.slot(idx)
	for s := 0; s < 2; s++ {
		if e.srcKind[s] == srcTag {
			return
		}
	}
	c.st[idx] = stReady
	c.copies[idx]++
	c.readyQ = append(c.readyQ, idx)
}

// ---- Issue -------------------------------------------------------------------

func (c *Core) issue() {
	// Single compaction pass: entries that stay (mem-port-limited) are kept
	// in order at the write cursor; issued, parked, and stale entries drop
	// out. Scan order and the surviving queue order match the remove-in-place
	// formulation exactly, without its O(n^2) element moves.
	issued, memIssued := 0, 0
	i, w := 0, 0
	for i < len(c.readyQ) && issued < c.cfg.IssueWidth {
		idx := c.readyQ[i]
		i++
		if idx < 0 {
			// A run of store-blocked loads: each member would be kept, or
			// re-parked with no state change, so the run moves as one item.
			if memIssued >= c.cfg.MemPorts {
				c.readyQ[w] = idx
				w++
				continue
			}
			if !c.runValid(^idx) {
				// A store resolved since the run formed (earlier in this
				// scan, or before this Tick) and unblocked a member, which
				// may issue this very cycle: handle the members one by one
				// from here.
				i--
				c.readyQ = c.splitRun(c.readyQ, i, false)
				continue
			}
			c.blockedLd = c.appendRun(c.blockedLd, ^idx)
			continue
		}
		if c.st[idx] != stReady || c.remote[idx] {
			// Stale, or shipped to the EMC (completion arrives as a live-out).
			c.copies[idx]--
			continue
		}
		op := c.ops[idx]
		isMem := op == isa.OpLoad || op == isa.OpStore
		if isMem && memIssued >= c.cfg.MemPorts {
			c.readyQ[w] = idx
			w++
			continue
		}
		if op == isa.OpLoad && c.blockerSeq() < c.seq[idx] {
			// An older store is unresolved (conservative disambiguation):
			// an issueOne attempt would park the load with no net state
			// change (issuedAt, vaddr and the taint fields are unobservable
			// until a successful issue), so park it directly.
			c.park(idx)
			continue
		}
		if c.issueOne(idx) {
			c.copies[idx]--
			issued++
			if isMem {
				memIssued++
			}
		}
	}
	for i < len(c.readyQ) {
		c.readyQ[w] = c.readyQ[i]
		w++
		i++
	}
	c.readyQ = c.readyQ[:w]
}

// issueOne executes an entry. Returns false if it could not issue (parked).
func (c *Core) issueOne(idx int32) bool {
	e := c.slot(idx)
	c.st[idx] = stIssued
	e.issuedAt = c.now
	c.rsCount--
	e.taint = e.srcTaint[0] || e.srcTaint[1]
	e.taintSrc = -1
	for s := 0; s < 2; s++ {
		if e.srcTaint[s] {
			e.taintSrc = e.srcTaintSrc[s]
			e.taintSeq = e.srcTaintSeq[s]
			break
		}
	}
	switch e.u.Op.Class() {
	case isa.ClassLoad:
		return c.issueLoad(idx)
	case isa.ClassStore:
		// Address+data resolution; visibility happens post-retirement.
		e.vaddr = isa.AddrOf(&e.u, e.srcVal[0])
		c.retryPure = false
		paddr, tlbLat := c.translate(e)
		e.paddr = paddr
		c.addrValid[idx] = true
		e.val = e.srcVal[1]
		c.schedule(idx, c.now+1+uint64(tlbLat))
		c.checkLateDisambiguation(idx)
		return true
	case isa.ClassBranch:
		c.schedule(idx, c.now+1)
		if e.u.Mispredicted {
			// Redirect: the front end restarts after resolution + penalty.
			c.fetchBlockedTill = c.now + 1 + uint64(c.cfg.MispredictPenalty)
			if c.fetchHold == idx {
				c.fetchHold = -1
			}
		}
		return true
	default:
		e.val = isa.EvalUop(&e.u, e.srcVal[0], e.srcVal[1])
		c.schedule(idx, c.now+uint64(e.u.Op.Latency()))
		return true
	}
}

// translate runs e's address through the TLB, starting at the slot its
// page sat in at e's last translation.
func (c *Core) translate(e *robEntry) (paddr uint64, lat int) {
	paddr, lat, slot := c.tlb.AccessAt(c.pt, e.vaddr, int(e.tlbSlot))
	e.tlbSlot = int32(slot)
	if lat > 0 {
		c.Stats.TLBWalks++
	}
	return paddr, lat
}

// Fill delivers a cache-line fill from the uncore. It completes all loads
// waiting on the line, installs it in the L1D, and returns the evicted
// victim line (if any) so the caller can maintain the LLC directory.
func (c *Core) Fill(lineAddr uint64, now uint64) (victim uint64, hadVictim bool) {
	c.input(now)
	c.now = now
	m := c.msh.Complete(lineAddr)
	if m == nil {
		return 0, false
	}
	c.fillGen++
	for _, ch := range c.chains {
		if ch.SourceFilledAt == 0 && ch.SourceLine == lineAddr {
			ch.SourceFilledAt = now
		}
	}
	for _, w := range m.Waiters {
		idx := int32(w)
		e := c.slot(idx)
		if c.st[idx] != stIssued || c.ops[idx] != isa.OpLoad || cache.LineAddr(e.paddr) != lineAddr {
			continue
		}
		e.val = e.u.Value
		c.schedule(idx, now+1)
		if e.isLLCMiss {
			c.Stats.MissLatencySum += now - e.issuedAt
			c.Stats.MissCount++
		}
	}
	v := c.l1d.Insert(lineAddr<<cache.LineShift, false)
	if v.Valid {
		return v.LineAddr, true
	}
	return 0, false
}

// ---- Dispatch / fetch --------------------------------------------------------

func (c *Core) dispatch() {
	if c.now < c.fetchBlockedTill || c.now < c.icFillAt {
		c.Stats.FetchStallCycles++
		return
	}
	if c.fetchHold >= 0 {
		// Waiting for a mispredicted branch to resolve.
		c.Stats.FetchStallCycles++
		return
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.robCount >= c.cfg.ROBSize || c.rsCount >= c.cfg.RSSize {
			return
		}
		u := c.pendingFetch
		if u == nil {
			if c.done {
				return
			}
			if !c.feed.Next(&c.fetchBuf) {
				c.done = true
				return
			}
			u = &c.fetchBuf
		}
		// LSQ capacity.
		switch u.Op {
		case isa.OpLoad:
			if len(c.lq) >= c.cfg.LQSize {
				c.pendingFetch = u
				return
			}
		case isa.OpStore:
			if len(c.sq) >= c.cfg.SQSize {
				c.pendingFetch = u
				return
			}
		}
		// Instruction cache.
		if !c.l1i.Access(u.PC, false) {
			c.l1i.Insert(u.PC, false)
			c.Stats.ICacheMisses++
			c.icFillAt = c.now + uint64(c.cfg.ICacheMissPenalty)
			c.pendingFetch = u
			return
		}
		c.pendingFetch = nil
		if u.Op == isa.OpBranch && c.bp != nil {
			// The hybrid predictor overrides the trace's mispredict flag
			// with its own organic behaviour on the actual outcome.
			u.Mispredicted = c.bp.Update(u.PC, u.Taken)
		}
		c.dispatchUop(u)
		if u.Op == isa.OpBranch && u.Mispredicted {
			// Stop fetching past an unresolved mispredicted branch.
			c.fetchHold = c.robIndexAt(c.robCount - 1)
			return
		}
	}
}

func (c *Core) dispatchUop(u *isa.Uop) {
	idx := c.robIndexAt(c.robCount)
	c.robCount++
	e := c.slot(idx)
	cons := e.consumers[:0]
	*e = robEntry{u: *u}
	e.consumers = cons
	c.st[idx] = stWaiting
	c.seq[idx] = c.nextSeq
	c.ops[idx] = u.Op
	c.remote[idx] = false
	c.memBlocked[idx] = false
	c.addrValid[idx] = false
	c.nextSeq++
	c.rsCount++

	srcs := [2]isa.Reg{u.Src1, u.Src2}
	for s, r := range srcs {
		if !r.Valid() {
			e.srcKind[s] = srcNone
			continue
		}
		if prod := c.renameMap[r]; prod >= 0 {
			pe := c.slot(prod)
			if c.st[prod] == stDone {
				e.srcKind[s] = srcValue
				e.srcVal[s] = pe.val
				e.srcTaint[s] = pe.taint
				e.srcTaintSrc[s] = pe.taintSrc
				e.srcTaintSeq[s] = pe.taintSeq
			} else {
				e.srcKind[s] = srcTag
				e.srcTag[s] = prod
				pe.consumers = append(pe.consumers, idx)
			}
		} else {
			e.srcKind[s] = srcValue
			e.srcVal[s] = c.archVal[r]
			e.srcTaint[s] = c.archTaint[r]
			// Architectural taint is stale past retirement; no producer
			// crediting across the commit boundary.
			e.srcTaintSrc[s] = -1
		}
	}
	if u.HasDst() {
		c.renameMap[u.Dst] = idx
	}
	switch u.Op {
	case isa.OpLoad:
		c.lq = append(c.lq, idx)
		c.Stats.Loads++
	case isa.OpStore:
		c.sq = append(c.sq, idx)
		c.Stats.Stores++
	case isa.OpBranch:
		c.Stats.Branches++
		if u.Mispredicted {
			c.Stats.Mispredicts++
		}
	}
	c.maybeWake(idx)
}

// ---- Store buffer -------------------------------------------------------------

func (c *Core) drainStoreBuffer() {
	if len(c.storeBuf) == c.storeHead {
		return
	}
	w := c.storeBuf[c.storeHead]
	c.storeHead++
	if c.storeHead == len(c.storeBuf) {
		c.storeBuf = c.storeBuf[:0]
		c.storeHead = 0
	}
	// Write-through: update L1 if present (no allocate on miss).
	if c.l1d.Probe(w.lineAddr << cache.LineShift) {
		c.l1d.Access(w.lineAddr<<cache.LineShift, true)
	}
	c.uncore.StoreWrite(c.cfg.ID, w.lineAddr, w.vaddr)
}

// checkLateDisambiguation catches the ordering violation the EMC cannot see:
// an older store resolving to the same address as a younger load the EMC
// already executed. The affected chain must be cancelled (§4.3).
func (c *Core) checkLateDisambiguation(sIdx int32) {
	if !c.cfg.EMCEnabled {
		return
	}
	st := c.slot(sIdx)
	for _, lIdx := range c.lq {
		le := c.slot(lIdx)
		if c.seq[lIdx] <= c.seq[sIdx] || !le.inChain || !c.addrValid[lIdx] || le.chainRef == nil {
			continue
		}
		if le.vaddr == st.vaddr {
			c.conflicted = append(c.conflicted, le.chainRef)
			le.chainRef = nil
		}
	}
}

// TakeConflictedChains drains chains caught by late disambiguation; the
// system aborts them at the EMC.
func (c *Core) TakeConflictedChains() []*Chain {
	if len(c.conflicted) == 0 {
		return nil
	}
	out := c.conflicted
	c.conflicted = nil
	return out
}

// BranchPredictor exposes the hybrid predictor (nil when the core uses
// trace-carried mispredict flags).
func (c *Core) BranchPredictor() *bpred.Predictor { return c.bp }

// ShootdownTLB removes a translation from the core's TLB (the OS-initiated
// TLB-shootdown path; the system propagates it to the EMC TLBs via the
// PTE's residence bit, §4.1.4).
func (c *Core) ShootdownTLB(vaddr, now uint64) {
	c.input(now)
	c.tlb.Invalidate(vaddr, c.pt.Shift())
}

// NextEvent reports the earliest future cycle at which Tick can change
// architectural or statistical state (beyond the bulk counters skipIdle
// credits). It is a lower bound: waking earlier is harmless because an idle
// Tick is a pure no-op, waking later would be a bug.
func (c *Core) NextEvent(now uint64) uint64 {
	if c.Finished() {
		return NoEvent
	}
	// Queues the per-cycle stages drain unconditionally.
	if len(c.storeBuf) > c.storeHead || len(c.readyQ) > 0 || len(c.conflicted) > 0 {
		return now + 1
	}
	// Parked loads churn through the retry sweep every cycle, but the sweep
	// can be a fixed point, whose cycles are skippable (DESIGN.md §8.1,
	// §13.4). A load blocked on an unresolved older store re-parks with no
	// change at all; the first unresolved store (blockerSeq) changes only
	// when a store resolves, through issue from a non-empty readyQ or
	// CompleteRemoteChain, an input method that resets the wake cache. A run
	// token is skipped whole while runValid holds. A load parked on MSHR
	// pressure under the current fillGen fails every retry until Fill, an
	// input method, completes an MSHR; its retry still touches the TLB, but
	// once a Tick's retries were its only TLB accesses and all hit
	// (retryPure), the next Tick re-stamps the same pages in the same order,
	// which leaves the LRU order as it is. Stale entries of an issued or
	// reused slot keep forcing per-cycle ticking.
	for _, idx := range c.blockedLd {
		if idx < 0 {
			if !c.runValid(^idx) {
				return now + 1
			}
			continue
		}
		if c.st[idx] != stReady || !c.memBlocked[idx] || c.ops[idx] != isa.OpLoad {
			return now + 1
		}
		if c.blockerSeq() >= c.seq[idx] && (!c.retryPure || c.slot(idx).parkGen != c.fillGen) {
			return now + 1
		}
	}
	if c.robCount > 0 && c.st[c.robHead] == stDone {
		return now + 1 // retirement progresses
	}
	// Chain generation or a runahead episode would fire on the next Tick.
	headSeq := c.seq[c.robHead]
	if c.cfg.EMCEnabled && len(c.chains) < c.cfg.MaxActiveChains &&
		c.FullWindowStalled() && c.DepCounterHigh() && headSeq != c.lastChainAttempt {
		return now + 1
	}
	if c.ra.Enabled && c.FullWindowStalled() && headSeq != c.lastRunahead {
		return now + 1
	}
	h := c.earliestEvent(now)
	// Generated chains become transmittable (or cancellable) at ReadyAt.
	for _, ch := range c.chains {
		if ch.GeneratedAt != 0 {
			continue
		}
		at := ch.ReadyAt
		if at <= now {
			at = now + 1
		}
		if at < h {
			h = at
		}
	}
	if d := c.dispatchHorizon(now); d < h {
		h = d
	}
	return h
}

// earliestEvent returns the earliest cycle > now holding a scheduled
// completion, or NoEvent. It walks the evMask occupancy bitmap starting at
// the bucket for now+1, wrapping around the wheel; because schedule()
// guarantees at-now < eventHorizon and complete() drains the current
// bucket, every set bit it can encounter is a genuine future completion.
func (c *Core) earliestEvent(now uint64) uint64 {
	if c.pendingEv == 0 {
		return NoEvent
	}
	start := (now + 1) % eventHorizon
	for off := uint64(0); off < eventHorizon; {
		b := (start + off) % eventHorizon
		if w := c.evMask[b>>6] >> (b & 63); w != 0 {
			return now + 1 + off + uint64(bits.TrailingZeros64(w))
		}
		off += 64 - (b & 63) // jump to the next word boundary
	}
	return NoEvent
}

// dispatchHorizon is the front end's contribution to NextEvent: the cycle
// fetch/dispatch next makes progress, or NoEvent when it is blocked on
// something that is itself an event (branch resolution, retirement freeing
// ROB/RS/LSQ space).
func (c *Core) dispatchHorizon(now uint64) uint64 {
	blockTill := c.fetchBlockedTill
	if c.icFillAt > blockTill {
		blockTill = c.icFillAt
	}
	if now < blockTill {
		return blockTill // skipIdle credits FetchStallCycles over the gap
	}
	if c.fetchHold >= 0 {
		return NoEvent // waits for the mispredicted branch to issue
	}
	if c.robCount >= c.cfg.ROBSize || c.rsCount >= c.cfg.RSSize {
		return NoEvent // unblocked by retire/issue
	}
	if u := c.pendingFetch; u != nil {
		switch u.Op {
		case isa.OpLoad:
			if len(c.lq) >= c.cfg.LQSize {
				return NoEvent
			}
		case isa.OpStore:
			if len(c.sq) >= c.cfg.SQSize {
				return NoEvent
			}
		}
		return now + 1
	}
	if c.done {
		return NoEvent
	}
	return now + 1
}

// skipIdle credits delta skipped cycles' worth of the per-cycle counters an
// idle Tick would have accumulated, for the cycles now+1 through now+delta.
// It must only be called when NextEvent(now) > now+delta and no input
// arrives in between (catchUp's gap): the skipped Ticks are then pure
// no-ops apart from these counters.
//
//simlint:noalloc
func (c *Core) skipIdle(now, delta uint64) {
	c.Stats.Cycles += delta
	if c.robCount > 0 {
		e := c.slot(int32(c.robHead))
		if c.st[c.robHead] != stDone {
			if c.remote[c.robHead] {
				c.Stats.RemoteHeadStall += delta
			}
			if c.ops[c.robHead] == isa.OpLoad && e.isLLCMiss && c.robCount == c.cfg.ROBSize {
				c.Stats.FullWindowStalls += delta
			}
			if c.robCount == c.cfg.ROBSize {
				c.Stats.ROBFullCycles += delta
			}
		}
	}
	blockTill := c.fetchBlockedTill
	if c.icFillAt > blockTill {
		blockTill = c.icFillAt
	}
	if now < blockTill || c.fetchHold >= 0 {
		c.Stats.FetchStallCycles += delta
	}
	// Debug counters (not part of Stats) follow the same per-cycle paths.
	if c.cfg.EMCEnabled {
		if len(c.chains) >= c.cfg.MaxActiveChains {
			c.DbgChainBusy += delta
		} else if c.FullWindowStalled() && !c.DepCounterHigh() {
			c.DbgCounterLow += delta
		}
	}
}

// FullWindowStalled reports whether the core is stalled with a full window
// and a load with an outstanding LLC miss blocking retirement — the paper's
// chain-generation trigger state. "Full window" means dispatch is blocked:
// either the ROB is full or the reservation station is exhausted (on a
// dependence-heavy window the 92-entry RS fills well before the 256-entry
// ROB; both block the front end identically).
func (c *Core) FullWindowStalled() bool {
	if c.robCount == 0 {
		return false
	}
	if c.robCount < c.cfg.ROBSize && c.rsCount < c.cfg.RSSize {
		return false
	}
	return c.ops[c.robHead] == isa.OpLoad && c.st[c.robHead] == stIssued &&
		c.slot(int32(c.robHead)).isLLCMiss
}
