// Package dram models the DDR3 main-memory system of Table 1: channels,
// ranks, and banks with open-row state machines and realistic command
// timings, a shared memory-controller queue, and a batch scheduler in the
// style of parallelism-aware batch scheduling (PAR-BS), with FR-FCFS and
// FCFS available for ablation.
//
// All timings are expressed in core cycles at 3.2 GHz. DDR3-1600 with
// CAS = 13.75 ns (Table 1) gives tCAS = tRCD = tRP = 44 core cycles and an
// 8-beat burst on the 800 MHz bus of 16 core cycles.
package dram

import "fmt"

// Timing holds DRAM command timings in core cycles.
type Timing struct {
	TRCD   int // row activate to column command
	TCAS   int // column command to first data
	TRP    int // precharge
	TRAS   int // activate to precharge minimum
	TBurst int // data-bus occupancy of one 64-byte transfer
	TWR    int // write recovery
	// Refresh: every TREFI cycles each rank performs a refresh taking TRFC
	// cycles, during which its banks accept no commands and open rows are
	// closed. TREFI = 0 disables refresh.
	TREFI int
	TRFC  int
	// Activation constraints: TRRD separates activates to the same rank;
	// TFAW bounds any four activates to a rank within a sliding window.
	// Zero disables either constraint.
	TRRD int
	TFAW int
}

// DDR3 returns the Table-1 DDR3 timing set at a 3.2 GHz core clock
// (tREFI = 7.8 us, tRFC = 160 ns for a 2 Gb device).
func DDR3() Timing {
	return Timing{TRCD: 44, TCAS: 44, TRP: 44, TRAS: 112, TBurst: 16, TWR: 48,
		TREFI: 24960, TRFC: 512, TRRD: 20, TFAW: 96}
}

// Geometry describes the memory organization reachable from one controller.
type Geometry struct {
	Channels   int
	Ranks      int // per channel
	Banks      int // per rank
	RowBytes   int // row-buffer size (Table 1: 8 KB)
	LineSize   int
	QueueSize  int // memory-controller read-queue capacity
	WriteQCap  int // write-queue capacity
	WriteDrain int // start draining writes above this occupancy
}

// QuadCoreGeometry is the paper's 4-core configuration: 2 channels, 1 rank
// of 8 banks each, 8 KB rows, a 128-entry memory queue.
func QuadCoreGeometry() Geometry {
	return Geometry{Channels: 2, Ranks: 1, Banks: 8, RowBytes: 8192,
		LineSize: 64, QueueSize: 128, WriteQCap: 64, WriteDrain: 32}
}

// EightCoreGeometry is the 8-core configuration: 4 channels, 256-entry queue.
func EightCoreGeometry() Geometry {
	return Geometry{Channels: 4, Ranks: 1, Banks: 8, RowBytes: 8192,
		LineSize: 64, QueueSize: 256, WriteQCap: 128, WriteDrain: 64}
}

// SchedPolicy selects the memory scheduler.
type SchedPolicy uint8

const (
	// SchedBatch is parallelism-aware batch scheduling (Table 1 baseline).
	SchedBatch SchedPolicy = iota
	// SchedFRFCFS is first-ready, first-come-first-served.
	SchedFRFCFS
	// SchedFCFS is strict arrival order (ablation).
	SchedFCFS
)

func (s SchedPolicy) String() string {
	switch s {
	case SchedBatch:
		return "batch"
	case SchedFRFCFS:
		return "frfcfs"
	case SchedFCFS:
		return "fcfs"
	}
	return "?"
}

// Request is one memory transaction (a 64-byte line read or write).
type Request struct {
	ID       uint64
	LineAddr uint64 // physical line address
	Write    bool
	CoreID   int  // requesting core (fairness/batching); -1 for writebacks
	FromEMC  bool // issued by the enhanced memory controller
	Prefetch bool
	Payload  any

	EnqueuedAt uint64
	IssuedAt   uint64 // first DRAM command
	DoneAt     uint64 // last data beat on the bus

	// RowHit/RowConflict record how the request found its bank.
	RowHit      bool
	RowConflict bool

	marked bool // member of the current scheduling batch

	channel, rank, bank int
	bankIdx             int32 // rank*Banks+bank, the handle into the bank arrays
	row                 uint64
}

// Channel returns the decoded channel index (valid after enqueue).
func (r *Request) Channel() int { return r.channel }

// Per-bank state is kept struct-of-arrays (DESIGN.md §13): the scheduler's
// inner loops (issueOn, NextEvent) touch only readyAt for every queued
// request or occupied bank, so giving each field its own dense slice keeps
// those scans inside one or two cache lines instead of striding over
// 24-byte structs.
type channel struct {
	// Bank arrays, ranks*banks flattened; Request.bankIdx indexes them.
	openRow    []int64
	readyAt    []uint64
	activateAt []uint64
	// nRead/nWrite count the queued reads/writes per bank, so NextEvent
	// reads one readyAt per occupied bank instead of one per request.
	nRead  []int32
	nWrite []int32

	busFreeAt uint64
	readQ     []*Request
	writeQ    []*Request
	draining  bool
	// issueHintAt/issueHintGen memoize a failed issueOn scan: no request on
	// this channel can issue before issueHintAt unless the controller state
	// generation has moved (enqueue, issue, refresh, drain flip).
	issueHintAt  uint64
	issueHintGen uint64
	// nextRefresh holds the per-rank next refresh deadline.
	nextRefresh []uint64
	// Activation-rate state per rank: the last activate (tRRD), a ring of
	// the last four activate times (tFAW), and the total count (validity).
	lastAct  []uint64
	actRing  [][4]uint64
	actPos   []int
	actCount []uint64
}

// Stats aggregates DRAM activity.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowConflicts uint64
	RowEmpty     uint64
	Activations  uint64
	Precharges   uint64
	Refreshes    uint64
	BusBusy      uint64 // cycles of data-bus occupancy (all channels)
	QueueFull    uint64 // rejected enqueues

	// Latency accounting for reads.
	TotalReadLatency uint64 // enqueue -> data done
	TotalQueueDelay  uint64 // enqueue -> first command
}

// Controller is one memory controller: the request queues, the scheduler,
// and the DRAM devices behind it.
type Controller struct {
	geo    Geometry
	timing Timing
	policy SchedPolicy

	channels []channel
	nextID   uint64
	inFlight []*Request // issued, waiting for DoneAt

	// Batch-scheduler state.
	batchLive int   // marked requests not yet issued
	coreRank  []int // lower = higher priority within batch
	// formBatch scratch, reused across batches: marked requests per
	// (core, channel, bank), marked requests per ranked core, and the
	// rank order.
	batchQuota map[batchKey]int
	batchCount []int
	batchOrder []coreCount

	// gen counts observable state changes (enqueues, issues, refreshes,
	// completions, drain flips). It versions the NextEvent memo and the
	// per-channel issue hints: while gen stands still, a recomputed scan
	// would reproduce the cached answer.
	gen       uint64
	nextEvGen uint64
	nextEvAt  uint64
	// minDoneAt lower-bounds the earliest DoneAt in inFlight, so Tick can
	// skip the completion scan on cycles where nothing can finish.
	minDoneAt uint64
	// minReadDone is the earliest DoneAt of an in-flight read (NoEvent if
	// none): start lowers it, Tick's compaction recomputes it.
	minReadDone uint64

	// Free list for pooled Requests and the reused completion buffer the
	// Tick return value aliases (consumed before the next Tick).
	reqPool []*Request
	doneBuf []*Request

	Stats Stats
}

// NoEvent is the NextEvent sentinel: no future work without new requests.
const NoEvent = ^uint64(0)

// NewRequest returns a zeroed Request from the controller's free list. The
// caller fills it in and Enqueues it; reads come back from Tick and must be
// handed back with Release, writes are recycled internally on completion.
func (c *Controller) NewRequest() *Request {
	if n := len(c.reqPool); n > 0 {
		r := c.reqPool[n-1]
		c.reqPool = c.reqPool[:n-1]
		return r
	}
	return &Request{}
}

// Release returns a completed read Request to the free list.
//
//simlint:noalloc
func (c *Controller) Release(r *Request) {
	*r = Request{}
	c.reqPool = append(c.reqPool, r) //simlint:allocok pool capacity stabilizes at the in-flight high-water mark
}

// busy reports whether any request is queued or in flight. An empty
// controller has no observable work at all: refresh epochs are deferred
// (nobody can see bank state until the next enqueue) and every scan below
// would come up empty, so NextEvent short-circuits to NoEvent and Tick to a
// no-op on the same predicate.
func (c *Controller) busy() bool {
	if len(c.inFlight) > 0 {
		return true
	}
	for i := range c.channels {
		if len(c.channels[i].readQ) > 0 || len(c.channels[i].writeQ) > 0 {
			return true
		}
	}
	return false
}

// NextEvent returns a lower bound on the next cycle at which the controller
// can change state: the next refresh deadline, the earliest bank-ready time
// of a schedulable queued request, or the earliest read completion. It
// returns now+1 whenever work is possible immediately, and NoEvent for a
// fully drained controller — refresh epochs on an empty controller are
// deferred, not ticked through (refresh-aware horizons, DESIGN.md §13.3),
// and caught up lazily when the next request arrives. Skipping to (but not
// past) the returned cycle is exact: every skipped Tick would have been a
// pure no-op.
//
//simlint:noalloc
func (c *Controller) NextEvent(now uint64) uint64 {
	if !c.busy() {
		return NoEvent
	}
	// Memo: event times are absolute, so a horizon computed at an earlier
	// cycle under the same state generation is still the answer as long as
	// it lies in the future.
	if c.nextEvGen == c.gen && c.nextEvAt > now {
		return c.nextEvAt
	}
	h := uint64(NoEvent)
	// A fresh batch forms on the first Tick after the previous one drains;
	// its membership depends on queue contents at that moment, so the tick
	// must not be deferred.
	if c.policy == SchedBatch && c.batchLive == 0 {
		for i := range c.channels {
			if len(c.channels[i].readQ) > 0 {
				return now + 1
			}
		}
	}
	for i := range c.channels {
		ch := &c.channels[i]
		if c.timing.TREFI > 0 {
			for _, d := range ch.nextRefresh {
				if d <= now {
					return now + 1
				}
				if d < h {
					h = d
				}
			}
		}
		// Mirror issueOn's read/write selection: the non-selected queue
		// cannot issue regardless of bank state, and the selection itself
		// only changes on enqueues/issues (which are ticked events)...
		useWrites := len(ch.writeQ) > 0 &&
			(len(ch.readQ) == 0 || len(ch.writeQ) >= c.geo.WriteDrain || ch.draining)
		// ...with one exception: whenever write mode is selected, issueOn
		// refreshes the drain-hysteresis flag even if no write can issue. If
		// that evaluation would flip the flag (and thereby re-enable reads),
		// the next Tick is a state change and must not be skipped.
		if useWrites && ch.draining != (len(ch.writeQ) > c.geo.WriteDrain/2) {
			return now + 1
		}
		queued := ch.nRead
		if useWrites {
			queued = ch.nWrite
		}
		for b, n := range queued {
			if n == 0 {
				continue
			}
			t := ch.readyAt[b]
			if t <= now {
				return now + 1
			}
			if t < h {
				h = t
			}
		}
	}
	// Read completions wake the owner; write completions only compact the
	// in-flight list, which is order-preserving whenever it happens.
	if c.minReadDone < h {
		h = c.minReadDone
	}
	if h <= now {
		return now + 1
	}
	c.nextEvGen, c.nextEvAt = c.gen, h
	return h
}

// NewController builds a controller with the given geometry, timings,
// scheduling policy, and the number of cores (for batch ranking).
func NewController(geo Geometry, t Timing, policy SchedPolicy, cores int) *Controller {
	if geo.Channels <= 0 || geo.Banks <= 0 || geo.Ranks <= 0 {
		panic("dram: bad geometry")
	}
	c := &Controller{geo: geo, timing: t, policy: policy, coreRank: make([]int, cores+1),
		batchQuota: map[batchKey]int{}, batchCount: make([]int, cores+1),
		minDoneAt: NoEvent, minReadDone: NoEvent}
	c.channels = make([]channel, geo.Channels)
	for i := range c.channels {
		nb := geo.Ranks * geo.Banks
		c.channels[i].openRow = make([]int64, nb)
		c.channels[i].readyAt = make([]uint64, nb)
		c.channels[i].activateAt = make([]uint64, nb)
		c.channels[i].nRead = make([]int32, nb)
		c.channels[i].nWrite = make([]int32, nb)
		for b := 0; b < nb; b++ {
			c.channels[i].openRow[b] = -1
		}
		c.channels[i].lastAct = make([]uint64, geo.Ranks)
		c.channels[i].actRing = make([][4]uint64, geo.Ranks)
		c.channels[i].actPos = make([]int, geo.Ranks)
		c.channels[i].actCount = make([]uint64, geo.Ranks)
		c.channels[i].nextRefresh = make([]uint64, geo.Ranks)
		for r := range c.channels[i].nextRefresh {
			// Stagger ranks so they do not refresh simultaneously.
			c.channels[i].nextRefresh[r] = uint64(t.TREFI) * uint64(r+1) / uint64(geo.Ranks+1)
			if t.TREFI == 0 {
				c.channels[i].nextRefresh[r] = ^uint64(0)
			}
		}
	}
	return c
}

// Geometry returns the controller's geometry.
func (c *Controller) Geometry() Geometry { return c.geo }

// decode maps a physical line address onto (channel, rank, bank, row).
// Channels interleave at line granularity; within a channel, consecutive
// lines fill a row before moving to the next bank, so streams enjoy
// row-buffer locality while banks still spread across the address space.
func (c *Controller) decode(r *Request) {
	la := r.LineAddr
	r.channel = int(la % uint64(c.geo.Channels))
	la /= uint64(c.geo.Channels)
	linesPerRow := uint64(c.geo.RowBytes / c.geo.LineSize)
	la /= linesPerRow // column bits
	r.bank = int(la % uint64(c.geo.Banks))
	la /= uint64(c.geo.Banks)
	r.rank = int(la % uint64(c.geo.Ranks))
	la /= uint64(c.geo.Ranks)
	r.row = la
	r.bankIdx = int32(r.rank*c.geo.Banks + r.bank)
}

// QueueOccupancy returns the total queued (not yet issued) read requests.
func (c *Controller) QueueOccupancy() int {
	n := 0
	for i := range c.channels {
		n += len(c.channels[i].readQ)
	}
	return n
}

// WriteQueueOccupancy returns the total queued (not yet issued) writes.
func (c *Controller) WriteQueueOccupancy() int {
	n := 0
	for i := range c.channels {
		n += len(c.channels[i].writeQ)
	}
	return n
}

// InFlightReads returns issued reads still waiting for their last data beat
// (a live gauge for the observability layer).
func (c *Controller) InFlightReads() int { return len(c.inFlight) }

// Enqueue admits a request to its channel queue. It returns false when the
// queue is full; the caller must retry (this is the back-pressure that makes
// MC queueing part of on-chip latency).
func (c *Controller) Enqueue(r *Request, now uint64) bool {
	c.nextID++
	r.ID = c.nextID
	r.EnqueuedAt = now
	c.decode(r)
	ch := &c.channels[r.channel]
	if r.Write {
		if len(ch.writeQ) >= c.geo.WriteQCap {
			c.Stats.QueueFull++
			return false
		}
		ch.writeQ = append(ch.writeQ, r)
		ch.nWrite[r.bankIdx]++
		c.gen++
		return true
	}
	if c.QueueOccupancy() >= c.geo.QueueSize {
		c.Stats.QueueFull++
		return false
	}
	ch.readQ = append(ch.readQ, r)
	ch.nRead[r.bankIdx]++
	c.gen++
	return true
}

// Tick advances the controller one cycle; completed reads are returned so
// the owner can route fills. BenchmarkControllerReadStream and
// BenchmarkControllerMixed pin this path at 0 allocs/op.
//
//simlint:noalloc bench=BenchmarkController(ReadStream|Mixed)
func (c *Controller) Tick(now uint64) []*Request {
	// An empty controller is a guaranteed no-op: nothing can issue or
	// complete, and due refresh epochs stay deferred (the busy/empty
	// predicate is the same one NextEvent uses, so skip-enabled and
	// every-cycle runs defer identically).
	if !c.busy() {
		return nil
	}
	// Batch formation: when the current batch is exhausted, mark a new one.
	if c.policy == SchedBatch && c.batchLive == 0 {
		c.formBatch()
	}
	for i := range c.channels {
		c.refresh(&c.channels[i], now)
		c.issueOn(&c.channels[i], now)
	}
	// Completion fast path: nothing in flight can be due yet.
	if now < c.minDoneAt {
		return nil
	}
	// Collect completions. The returned slice aliases a reused buffer; it is
	// valid until the next Tick.
	done := c.doneBuf[:0]
	keep := c.inFlight[:0]
	minDone, minRead := uint64(NoEvent), uint64(NoEvent)
	for _, r := range c.inFlight {
		if r.DoneAt <= now {
			c.gen++
			if !r.Write {
				done = append(done, r) //simlint:allocok doneBuf reaches steady-state capacity; amortized 0 allocs/op (BenchmarkController*)
			} else {
				c.Release(r)
			}
		} else {
			if r.DoneAt < minDone {
				minDone = r.DoneAt
			}
			if !r.Write && r.DoneAt < minRead {
				minRead = r.DoneAt
			}
			keep = append(keep, r) //simlint:allocok compacts in place into inFlight[:0], never exceeds its capacity
		}
	}
	c.inFlight = keep
	c.minDoneAt = minDone
	c.minReadDone = minRead
	c.doneBuf = done
	return done
}

type batchKey struct{ core, ch, bank int }

type coreCount struct{ core, n int }

// formBatch marks up to 5 oldest requests per (core, bank) across all
// channels, then ranks cores by their marked-request count (fewest first —
// shortest job first, the PAR-BS heuristic).
//
//simlint:noalloc
func (c *Controller) formBatch() {
	const perCoreBank = 5
	queued := 0
	for i := range c.channels {
		queued += len(c.channels[i].readQ)
	}
	if queued == 0 {
		return
	}
	c.gen++
	clear(c.batchQuota)
	clear(c.batchCount)
	any := false
	for chI := range c.channels {
		for _, r := range c.channels[chI].readQ {
			k := batchKey{r.CoreID, chI, r.bank}
			if c.batchQuota[k] < perCoreBank {
				c.batchQuota[k]++
				r.marked = true
				if r.CoreID >= 0 && r.CoreID < len(c.batchCount) {
					c.batchCount[r.CoreID]++
				}
				c.batchLive++
				any = true
			}
		}
	}
	if !any {
		return
	}
	// Rank: fewer marked requests -> higher priority (lower rank value).
	for core := range c.coreRank {
		c.coreRank[core] = 1 << 30
	}
	order := c.batchOrder[:0]
	for core, n := range c.batchCount {
		if n > 0 {
			order = append(order, coreCount{core, n}) //simlint:allocok bounded by the core count; scratch capacity is reused
		}
	}
	c.batchOrder = order
	// Insertion sort by (n, core); hand-rolled instead of sort.Slice to keep
	// the batch-rebuild path closure-free.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && (order[j].n < order[j-1].n ||
			(order[j].n == order[j-1].n && order[j].core < order[j-1].core)); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for rank, o := range order {
		c.coreRank[o.core] = rank
	}
}

// better reports whether a should issue before b under the active policy.
func (c *Controller) better(a, b *Request, ch *channel) bool {
	if c.policy == SchedFCFS {
		return a.ID < b.ID
	}
	aHit := c.isRowHit(ch, a)
	bHit := c.isRowHit(ch, b)
	if c.policy == SchedBatch {
		if a.marked != b.marked {
			return a.marked
		}
		if a.marked && b.marked {
			ra, rb := c.rankOf(a.CoreID), c.rankOf(b.CoreID)
			if ra != rb {
				return ra < rb
			}
		}
	}
	if aHit != bHit {
		return aHit
	}
	return a.ID < b.ID
}

func (c *Controller) rankOf(core int) int {
	if core < 0 || core >= len(c.coreRank) {
		return 1 << 29 // writebacks and unknown sources rank last
	}
	return c.coreRank[core]
}

func (c *Controller) isRowHit(ch *channel, r *Request) bool {
	return ch.openRow[r.bankIdx] == int64(r.row)
}

// refresh performs per-rank refreshes due at or before now: every bank of
// the rank becomes unavailable for TRFC cycles (counted from the epoch's
// deadline, not from now) and its open row is closed. Because a Tick only
// runs this while the controller is busy, epochs that elapse on an empty
// controller accumulate and are caught up here in deadline order the moment
// the next request arrives — with identical final bank state, since nothing
// could have observed the banks in between.
func (c *Controller) refresh(ch *channel, now uint64) {
	t := &c.timing
	if t.TREFI == 0 {
		return
	}
	for rank := range ch.nextRefresh {
		for now >= ch.nextRefresh[rank] {
			deadline := ch.nextRefresh[rank]
			ch.nextRefresh[rank] += uint64(t.TREFI)
			c.Stats.Refreshes++
			c.gen++
			end := deadline + uint64(t.TRFC)
			for b := rank * c.geo.Banks; b < (rank+1)*c.geo.Banks; b++ {
				ch.openRow[b] = -1
				if ch.readyAt[b] < end {
					ch.readyAt[b] = end
				}
			}
		}
	}
}

// CatchUpRefresh applies every refresh epoch due at or before now on all
// channels, regardless of queue state. Result collection calls it once at
// the end of a run so Stats.Refreshes counts exactly the epochs that
// elapsed over the run, matching an eager-refresh controller bit for bit.
func (c *Controller) CatchUpRefresh(now uint64) {
	for i := range c.channels {
		c.refresh(&c.channels[i], now)
	}
}

// issueOn starts at most one request on a channel this cycle.
//
//simlint:noalloc
func (c *Controller) issueOn(ch *channel, now uint64) {
	// Hint fast path: a previous scan under this state generation proved no
	// request on this channel can issue before issueHintAt; until then the
	// whole evaluation below (including the drain-flag refresh, which
	// depends only on queue lengths) reproduces itself unchanged.
	if ch.issueHintGen == c.gen && now < ch.issueHintAt {
		return
	}
	// Capture the generation before the drain-flag refresh below: a flip
	// changes next cycle's queue selection, so a hint computed under this
	// call's (pre-flip) selection must not survive it.
	gen := c.gen
	// Write-drain policy: serve reads unless the write queue is pressing or
	// there are no reads.
	useWrites := false
	if len(ch.writeQ) > 0 && (len(ch.readQ) == 0 || len(ch.writeQ) >= c.geo.WriteDrain || ch.draining) {
		useWrites = true
		if d := len(ch.writeQ) > c.geo.WriteDrain/2; d != ch.draining {
			ch.draining = d
			c.gen++
		}
	}
	q := ch.readQ
	if useWrites {
		q = ch.writeQ
	}
	if len(q) == 0 {
		ch.issueHintGen, ch.issueHintAt = gen, NoEvent
		return
	}
	// Pick the best issuable request.
	bestIdx := -1
	earliest := uint64(NoEvent)
	for i, r := range q {
		t := ch.readyAt[r.bankIdx]
		if t > now {
			if t < earliest {
				earliest = t
			}
			continue
		}
		if bestIdx < 0 || c.better(r, q[bestIdx], ch) {
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		ch.issueHintGen, ch.issueHintAt = gen, earliest
		return
	}
	r := q[bestIdx]
	if useWrites {
		ch.writeQ = append(q[:bestIdx], q[bestIdx+1:]...) //simlint:allocok removal compaction within the queue's own backing array
		ch.nWrite[r.bankIdx]--
	} else {
		ch.readQ = append(q[:bestIdx], q[bestIdx+1:]...) //simlint:allocok removal compaction within the queue's own backing array
		ch.nRead[r.bankIdx]--
	}
	c.start(ch, r, now)
}

// start runs the bank state machine for a request and computes its timing.
//
//simlint:noalloc
func (c *Controller) start(ch *channel, r *Request, now uint64) {
	t := &c.timing
	b := r.bankIdx
	r.IssuedAt = now
	var casStart uint64
	switch {
	case ch.openRow[b] == int64(r.row):
		r.RowHit = true
		c.Stats.RowHits++
		casStart = maxU(now, ch.readyAt[b])
	case ch.openRow[b] < 0:
		c.Stats.RowEmpty++
		actStart := c.activate(ch, r.rank, maxU(now, ch.readyAt[b]))
		casStart = actStart + uint64(t.TRCD)
		ch.activateAt[b] = actStart
		ch.openRow[b] = int64(r.row)
	default:
		r.RowConflict = true
		c.Stats.RowConflicts++
		preStart := maxU(maxU(now, ch.readyAt[b]), ch.activateAt[b]+uint64(t.TRAS))
		actStart := c.activate(ch, r.rank, preStart+uint64(t.TRP))
		casStart = actStart + uint64(t.TRCD)
		ch.activateAt[b] = actStart
		ch.openRow[b] = int64(r.row)
		c.Stats.Precharges++
	}
	dataAt := casStart + uint64(t.TCAS)
	if ch.busFreeAt > dataAt {
		dataAt = ch.busFreeAt
	}
	ch.busFreeAt = dataAt + uint64(t.TBurst)
	c.Stats.BusBusy += uint64(t.TBurst)
	r.DoneAt = dataAt + uint64(t.TBurst)
	ch.readyAt[b] = casStart + uint64(t.TBurst)
	if r.Write {
		ch.readyAt[b] += uint64(t.TWR)
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
		c.Stats.TotalReadLatency += r.DoneAt - r.EnqueuedAt
		c.Stats.TotalQueueDelay += r.IssuedAt - r.EnqueuedAt
	}
	if r.marked {
		c.batchLive--
	}
	c.gen++
	if r.DoneAt < c.minDoneAt {
		c.minDoneAt = r.DoneAt
	}
	if !r.Write && r.DoneAt < c.minReadDone {
		c.minReadDone = r.DoneAt
	}
	c.inFlight = append(c.inFlight, r) //simlint:allocok in-flight list reaches its high-water capacity and stays there
}

// activate returns the earliest legal activate time at or after earliest,
// honoring tRRD (activate-to-activate, same rank) and tFAW (four-activate
// window), and records the activation.
func (c *Controller) activate(ch *channel, rank int, earliest uint64) uint64 {
	t := &c.timing
	at := earliest
	n := ch.actCount[rank]
	if t.TRRD > 0 && n > 0 && ch.lastAct[rank]+uint64(t.TRRD) > at {
		at = ch.lastAct[rank] + uint64(t.TRRD)
	}
	if t.TFAW > 0 && n >= 4 {
		// The activate 4 activations ago bounds this one.
		oldest := ch.actRing[rank][ch.actPos[rank]]
		if oldest+uint64(t.TFAW) > at {
			at = oldest + uint64(t.TFAW)
		}
	}
	ch.actCount[rank]++
	ch.lastAct[rank] = at
	ch.actRing[rank][ch.actPos[rank]] = at
	ch.actPos[rank] = (ch.actPos[rank] + 1) % 4
	c.Stats.Activations++
	return at
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// RowConflictRate returns conflicts / (hits+conflicts+empty) for reads+writes.
func (s *Stats) RowConflictRate() float64 {
	tot := s.RowHits + s.RowConflicts + s.RowEmpty
	if tot == 0 {
		return 0
	}
	return float64(s.RowConflicts) / float64(tot)
}

// AvgReadLatency returns the mean enqueue-to-data latency of reads.
func (s *Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.TotalReadLatency) / float64(s.Reads)
}

// String summarizes the stats.
func (s *Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d rowHit=%d rowConf=%d rowEmpty=%d avgReadLat=%.1f",
		s.Reads, s.Writes, s.RowHits, s.RowConflicts, s.RowEmpty, s.AvgReadLatency())
}
