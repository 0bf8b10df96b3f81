// Package emc implements the Enhanced Memory Controller of the paper
// (§4.1, §4.3): a minimal compute engine co-located with the memory
// controller that executes dependence chains shipped from the cores the
// moment the source miss's data arrives from DRAM.
//
// The EMC has no front end. Each of its contexts holds one renamed chain
// (≤16 uops), a 16-entry physical register file, and a live-in vector; a
// shared 2-wide back end with an 8-entry reservation-station window executes
// uops out of order. Loads consult a small data cache holding the most
// recent lines that crossed the controller, an LLC-miss predictor deciding
// whether to bypass the on-chip hierarchy, and per-core 32-entry TLBs.
// Aborts (TLB miss, mispredicted branch in the chain, memory-ordering
// conflict reported by the core) bounce the chain back for local execution.
package emc

import (
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem/cache"
	"repro/internal/vm"
)

// Config sizes an EMC (Table 1).
type Config struct {
	Contexts   int // 2 on quad-core, 4 total on eight-core
	IssueWidth int // 2 ALUs
	RSSize     int // shared reservation station window
	LSQSize    int // per context

	CacheSize, CacheWays, CacheLatency int // 4 KB, 4-way, 2-cycle

	TLBEntriesPerCore int  // 32
	PageShift         uint // page size of the system's page tables

	MissPredEntries   int // 3-bit counters, PC-hashed, per core
	MissPredThreshold int // counter >= threshold predicts LLC miss
}

// DefaultConfig mirrors Table 1 for a quad-core chip.
func DefaultConfig(cores int) Config {
	ctx := 2
	if cores >= 8 {
		ctx = 4
	}
	return Config{
		Contexts: ctx, IssueWidth: 2, RSSize: 8, LSQSize: 8,
		CacheSize: 4096, CacheWays: 4, CacheLatency: 2,
		TLBEntriesPerCore: 32, PageShift: vm.PageShift,
		MissPredEntries: 256, MissPredThreshold: 4,
	}
}

// ActionKind discriminates the effects an EMC tick produces; the system
// simulator turns them into ring messages and DRAM transactions.
type ActionKind uint8

const (
	// ActLLCRequest asks the uncore to fetch a line via the LLC (load
	// predicted to hit on chip).
	ActLLCRequest ActionKind = iota
	// ActDRAMRequest asks for a direct DRAM fetch, bypassing the LLC
	// (load predicted to miss).
	ActDRAMRequest
	// ActMemExecuted is the address-ring message to the home core's LSQ.
	ActMemExecuted
	// ActChainDone carries the live-outs back to the home core.
	ActChainDone
	// ActChainAbort bounces the chain back for local re-execution.
	ActChainAbort
)

// AbortReason says why a chain aborted.
type AbortReason uint8

const (
	// AbortNone means no abort.
	AbortNone AbortReason = iota
	// AbortTLBMiss: a chain memory op's page was not in the EMC TLB.
	AbortTLBMiss
	// AbortMispredict: the chain contained a mispredicted branch.
	AbortMispredict
	// AbortConflict: the home core detected a memory-ordering conflict.
	AbortConflict
)

// Action is one externally visible effect of EMC execution.
type Action struct {
	Kind     ActionKind
	Ctx      int
	Core     int
	Chain    *cpu.Chain
	UopIdx   int
	VAddr    uint64
	PAddr    uint64
	PC       uint64
	Values   []uint64 // ActChainDone: live-outs, indexed like Chain.Uops (aliases Chain.LiveOuts)
	Reason   AbortReason
	MissPage uint64 // ActChainAbort/AbortTLBMiss: faulting virtual address
}

// Stats aggregates EMC activity.
type Stats struct {
	ChainsInstalled uint64
	ChainsRejected  uint64 // no free context
	ChainsDone      uint64
	ChainsAborted   uint64
	AbortTLB        uint64
	AbortMispredict uint64
	AbortConflict   uint64

	UopsExecuted   uint64
	LoadsExecuted  uint64
	StoresExecuted uint64
	LSQForwards    uint64

	CacheHits   uint64
	CacheMisses uint64

	LLCRequests  uint64
	DRAMRequests uint64

	PredMissCorrect uint64
	PredMissWrong   uint64

	// AddrMismatches counts loads whose EMC-computed address differed from
	// the trace's recorded address; value-consistent traces require 0.
	AddrMismatches uint64

	// Latency from chain trigger to completion.
	ChainLatencySum uint64

	LiveOutsSent uint64
}

type uopState uint8

const (
	uWaiting uopState = iota
	uIssued
	uDone
)

type lsqEntry struct {
	vaddr uint64
	val   uint64
}

type context struct {
	busy      bool
	chain     *cpu.Chain
	core      int
	state     []uopState
	vals      []uint64
	prf       [16]uint64
	prfReady  [16]bool
	lsq       []lsqEntry
	triggered bool
	trigAt    uint64
	memBusy   int // outstanding memory requests
	aborting  bool
}

// pendingMem is an EMC load waiting for data from the LLC or DRAM.
type pendingMem struct {
	ctx  int
	uop  int
	line uint64
}

// pendCap bounds the pending-memory list: every context can have at most
// RSSize loads in flight, so the list stays a handful of entries and a flat
// insertion-ordered slice beats a map (dense scan, no per-append allocation,
// deterministic order for free).
const pendCap = 16

// MismatchDebug, when non-nil, receives address-mismatch details (tests).
var MismatchDebug func(ch *cpu.Chain, uop int, got uint64)

// EMC is one enhanced memory controller instance.
type EMC struct {
	cfg Config
	id  int // which memory controller stop it lives at

	dcache   *cache.Cache
	tlbs     []*vm.EMCTLB
	missPred [][]uint8

	ctxs []context

	// pend holds EMC loads waiting for a line fill, in issue order (the
	// order FillMem wakes same-line waiters in).
	pend []pendingMem

	// acts is the action scratch Tick, FillMem and AbortContext reset and
	// return: a returned slice is valid until the next of those calls.
	acts []Action

	// wake caches NextEvent as of the last Tick, reset to 0 (due) by every
	// input method but TrainMissPredictor, so the system may skip Tick
	// while Wake() > now (DESIGN.md §8.1).
	wake uint64

	Stats Stats
}

// New builds an EMC for a chip with the given core count.
func New(cfg Config, id, cores int) *EMC {
	e := &EMC{
		cfg: cfg,
		id:  id,
		dcache: cache.New(cache.Config{Name: "emc$", SizeBytes: cfg.CacheSize,
			Ways: cfg.CacheWays, Latency: cfg.CacheLatency}),
		ctxs: make([]context, cfg.Contexts),
		pend: make([]pendingMem, 0, pendCap),
	}
	for i := 0; i < cores; i++ {
		e.tlbs = append(e.tlbs, vm.NewEMCTLBShift(cfg.TLBEntriesPerCore, cfg.PageShift))
		e.missPred = append(e.missPred, make([]uint8, cfg.MissPredEntries))
	}
	return e
}

// ID returns the memory-controller stop this EMC is attached to.
func (e *EMC) ID() int { return e.id }

// Cache exposes the EMC data cache (directory coordination).
func (e *EMC) Cache() *cache.Cache { return e.dcache }

// ActiveContexts returns the number of chain contexts currently busy (a
// live occupancy gauge for the observability layer).
func (e *EMC) ActiveContexts() int {
	n := 0
	for i := range e.ctxs {
		if e.ctxs[i].busy {
			n++
		}
	}
	return n
}

// TLB returns the per-core EMC TLB (inspection; the system changes it
// through InsertPTE and ShootdownTLB).
func (e *EMC) TLB(core int) *vm.EMCTLB { return e.tlbs[core] }

// InsertPTE installs a translation the home core sent after a TLB-miss
// abort.
func (e *EMC) InsertPTE(core int, vaddr uint64, pte *vm.PTE) {
	e.wake = 0
	e.tlbs[core].Insert(vaddr, pte)
}

// ShootdownTLB drops a core's translation for vaddr (an OS TLB shootdown
// that the PTE's residence bit says reached this EMC, §4.1.4).
func (e *EMC) ShootdownTLB(core int, vaddr uint64) {
	e.wake = 0
	e.tlbs[core].Invalidate(vaddr)
}

// Wake returns the first cycle at which the EMC must tick again: NextEvent
// as of its last Tick, or 0 when an input has arrived since. While Wake() >
// now, Tick(now) is a no-op.
func (e *EMC) Wake() uint64 { return e.wake }

// HasFreeContext reports whether a chain can be installed.
func (e *EMC) HasFreeContext() bool {
	for i := range e.ctxs {
		if !e.ctxs[i].busy {
			return true
		}
	}
	return false
}

// BusyContexts counts occupied contexts.
func (e *EMC) BusyContexts() int {
	n := 0
	for i := range e.ctxs {
		if e.ctxs[i].busy {
			n++
		}
	}
	return n
}

// InstallChain loads a chain into a free context. sourceOutstanding says
// whether the source miss is still in flight at this controller; if not, the
// context triggers immediately. Returns false when no context is free.
func (e *EMC) InstallChain(ch *cpu.Chain, pte *vm.PTE, sourceVPage uint64, sourceOutstanding bool, now uint64) bool {
	e.wake = 0
	var ctx *context
	for i := range e.ctxs {
		if !e.ctxs[i].busy {
			ctx = &e.ctxs[i]
			break
		}
	}
	if ctx == nil {
		e.Stats.ChainsRejected++
		return false
	}
	// Reset in place, recycling the slot's state/vals/lsq backing arrays
	// (chains are <=16 uops, so these stabilize after the first installs).
	st, vs, lsq := ctx.state[:0], ctx.vals[:0], ctx.lsq[:0]
	for range ch.Uops {
		st = append(st, uWaiting)
		vs = append(vs, 0)
	}
	*ctx = context{
		busy:  true,
		chain: ch,
		core:  ch.CoreID,
		state: st,
		vals:  vs,
		lsq:   lsq,
	}
	// The source-miss PTE rides along if not already resident (§4.1.4).
	if pte != nil {
		e.tlbs[ch.CoreID].Insert(sourceVPage<<e.cfg.PageShift, pte)
	}
	e.Stats.ChainsInstalled++
	if !sourceOutstanding {
		ctx.triggered = true
		ctx.trigAt = now
	}
	return true
}

// OnDRAMFill observes a DRAM read completing at this controller. Every line
// that crosses the controller is captured in the EMC data cache (§4.1.3),
// and any context waiting on it as its source miss triggers. Returns true
// if the line entered the EMC cache (the caller sets the LLC directory bit).
func (e *EMC) OnDRAMFill(lineAddr uint64, now uint64) (cached bool, evicted uint64, hadEvict bool) {
	e.wake = 0
	v := e.dcache.Insert(lineAddr<<cache.LineShift, false)
	for i := range e.ctxs {
		ctx := &e.ctxs[i]
		if ctx.busy && !ctx.triggered && ctx.chain.SourceLine == lineAddr {
			ctx.triggered = true
			ctx.trigAt = now
		}
	}
	if v.Valid {
		return true, v.LineAddr, true
	}
	return true, 0, false
}

// InvalidateLine removes a line from the EMC data cache (coherence: a store
// or eviction elsewhere invalidated it).
func (e *EMC) InvalidateLine(lineAddr uint64) {
	e.wake = 0
	e.dcache.Invalidate(lineAddr << cache.LineShift)
}

// TrainMissPredictor updates the PC-hashed 3-bit counters from an observed
// LLC outcome for a core's load (§4.3, after [47]). It leaves the wake
// alone: the counters are read only when a load uop issues, so training
// cannot wake an idle EMC (DESIGN §8.1).
func (e *EMC) TrainMissPredictor(core int, pc uint64, miss bool) {
	if core < 0 || core >= len(e.missPred) {
		return
	}
	t := e.missPred[core]
	h := pcHash(pc) % uint64(len(t))
	if miss {
		if t[h] < 7 {
			t[h]++
		}
	} else if t[h] > 0 {
		t[h]--
	}
}

// PredictMiss returns the predictor's verdict for a load PC.
func (e *EMC) PredictMiss(core int, pc uint64) bool {
	t := e.missPred[core]
	return int(t[pcHash(pc)%uint64(len(t))]) >= e.cfg.MissPredThreshold
}

func pcHash(pc uint64) uint64 {
	pc ^= pc >> 13
	pc *= 0x9E3779B97F4A7C15
	return pc >> 17
}

// FillMem delivers data for an EMC-issued memory request (from the LLC path
// or DRAM path). The returned actions are valid until the next Tick,
// FillMem or AbortContext on this EMC.
//
//simlint:noalloc
func (e *EMC) FillMem(lineAddr uint64, now uint64) []Action {
	e.wake = 0
	e.acts = e.acts[:0]
	// Wake this line's waiters in issue order, compacting survivors in place.
	w := 0
	for _, p := range e.pend {
		if p.line != lineAddr {
			e.pend[w] = p
			w++
			continue
		}
		ctx := &e.ctxs[p.ctx]
		if !ctx.busy || ctx.state[p.uop] != uIssued {
			continue
		}
		ctx.memBusy--
		e.completeUop(p.ctx, p.uop, now)
	}
	e.pend = e.pend[:w]
	e.dcache.Insert(lineAddr<<cache.LineShift, false)
	return e.acts
}

// AbortContext aborts the chain occupying the context that runs the given
// chain (core-detected conflicts arrive from outside). The returned actions
// are valid until the next Tick, FillMem or AbortContext on this EMC.
func (e *EMC) AbortContext(ch *cpu.Chain, reason AbortReason, now uint64) []Action {
	e.wake = 0
	e.acts = e.acts[:0]
	for i := range e.ctxs {
		ctx := &e.ctxs[i]
		if ctx.busy && ctx.chain == ch {
			e.abort(i, reason, 0)
			break
		}
	}
	return e.acts
}

// abort frees context ci and appends the ActChainAbort bouncing its chain
// back to the core.
//
//simlint:noalloc
func (e *EMC) abort(ci int, reason AbortReason, missPage uint64) {
	ctx := &e.ctxs[ci]
	ch := ctx.chain
	core := ctx.core
	ctx.busy = false
	ctx.chain = nil
	e.Stats.ChainsAborted++
	switch reason {
	case AbortTLBMiss:
		e.Stats.AbortTLB++
	case AbortMispredict:
		e.Stats.AbortMispredict++
	case AbortConflict:
		e.Stats.AbortConflict++
	}
	// Drop pending memory waiters belonging to this context.
	w := 0
	for _, p := range e.pend {
		if p.ctx != ci {
			e.pend[w] = p
			w++
		}
	}
	e.pend = e.pend[:w]
	e.acts = append(e.acts, Action{Kind: ActChainAbort, Ctx: ci, Core: core, Chain: ch, //simlint:allocok acts scratch reaches steady-state capacity
		Reason: reason, MissPage: missPage})
}

// NoEvent is the NextEvent sentinel: no context can make progress until an
// external event (chain install, trigger, or memory fill) arrives.
const NoEvent = ^uint64(0)

// NextEvent reports whether any triggered context could do work on the next
// Tick. A context whose remaining uops are all pending memory fills (or
// blocked on them) is quiescent: Tick mutates nothing until a FillMem,
// trigger, or abort arrives, so those cycles may be skipped exactly.
func (e *EMC) NextEvent(now uint64) uint64 {
	for ci := range e.ctxs {
		ctx := &e.ctxs[ci]
		if !ctx.busy || !ctx.triggered || ctx.aborting {
			continue
		}
		if ctx.chain.HasMispredict || ctx.state[0] != uDone {
			return now + 1
		}
		allDone := true
		visible := 0
		for i := 1; i < len(ctx.chain.Uops); i++ {
			if ctx.state[i] == uDone {
				continue
			}
			allDone = false
			visible++
			if visible > e.cfg.RSSize {
				break
			}
			if ctx.state[i] == uWaiting && e.ready(ctx, i) {
				return now + 1 // an issue (or LSQ-full retry) happens next Tick
			}
		}
		if allDone {
			return now + 1 // finishChain fires next Tick
		}
	}
	return NoEvent
}

// Tick advances EMC execution one cycle, returning the externally visible
// actions (memory requests, LSQ messages, completions, aborts). The returned
// slice is valid until the next Tick, FillMem or AbortContext on this EMC.
//
//simlint:noalloc
func (e *EMC) Tick(now uint64) []Action {
	e.acts = e.acts[:0]
	issued := 0
	for ci := range e.ctxs {
		ctx := &e.ctxs[ci]
		if !ctx.busy || !ctx.triggered || ctx.aborting {
			continue
		}
		// Mispredicted branch inside the chain: detected after trigger.
		if ctx.chain.HasMispredict {
			e.abort(ci, AbortMispredict, 0)
			continue
		}
		// The source uop (index 0) completes the moment the context
		// triggers: its data arrived with the DRAM fill.
		if ctx.state[0] != uDone {
			ctx.state[0] = uDone
			src := &ctx.chain.Uops[0]
			v := src.U.Value
			ctx.vals[0] = v
			if src.DstEPR >= 0 {
				ctx.prf[src.DstEPR] = v
				ctx.prfReady[src.DstEPR] = true
			}
		}
		// Issue ready uops, bounded by the shared 2-wide back end and the
		// RS window (the first RSSize not-yet-done uops are visible).
		visible := 0
		for i := 1; i < len(ctx.chain.Uops) && issued < e.cfg.IssueWidth; i++ {
			if ctx.state[i] == uDone {
				continue
			}
			visible++
			if visible > e.cfg.RSSize {
				break
			}
			if ctx.state[i] != uWaiting || !e.ready(ctx, i) {
				continue
			}
			if e.issueUop(ci, i) {
				break // aborted
			}
			issued++
		}
		if !e.ctxs[ci].busy {
			continue // aborted during issue
		}
		// Completion check.
		if ctx.allDone() {
			e.finishChain(ci, now)
		}
	}
	e.wake = e.NextEvent(now)
	return e.acts
}

func (c *context) allDone() bool {
	for _, s := range c.state {
		if s != uDone {
			return false
		}
	}
	return true
}

func (e *EMC) ready(ctx *context, i int) bool {
	cu := &ctx.chain.Uops[i]
	for s := 0; s < 2; s++ {
		if cu.Src[s].Kind == cpu.ChainSrcEPR && !ctx.prfReady[cu.Src[s].Idx] {
			return false
		}
	}
	return true
}

// srcVal resolves a renamed operand.
func (e *EMC) srcVal(ctx *context, cu *cpu.ChainUop, s int) uint64 {
	switch cu.Src[s].Kind {
	case cpu.ChainSrcLiveIn:
		return ctx.chain.LiveIns[cu.Src[s].Idx]
	case cpu.ChainSrcEPR:
		return ctx.prf[cu.Src[s].Idx]
	}
	return 0
}

// issueUop executes chain uop i of context ci, appending its actions to
// e.acts, and reports whether the context aborted. Memory ops may leave it
// uIssued pending a fill; everything else completes combinationally for the
// purposes of this model (1-cycle ALU, result visible next ready check).
//
//simlint:noalloc
func (e *EMC) issueUop(ci, i int) (aborted bool) {
	ctx := &e.ctxs[ci]
	cu := &ctx.chain.Uops[i]
	u := &cu.U
	e.Stats.UopsExecuted++
	switch u.Op.Class() {
	case isa.ClassLoad:
		return e.issueLoad(ci, i)
	case isa.ClassStore:
		vaddr := isa.AddrOf(u, e.srcVal(ctx, cu, 0))
		if vaddr != u.Addr {
			e.Stats.AddrMismatches++
		}
		val := e.srcVal(ctx, cu, 1)
		if len(ctx.lsq) >= e.cfg.LSQSize {
			// LSQ full: retry next cycle.
			e.Stats.UopsExecuted--
			return false
		}
		ctx.lsq = append(ctx.lsq, lsqEntry{vaddr: vaddr, val: val}) //simlint:allocok bounded by LSQSize; the context recycles its lsq backing array
		ctx.state[i] = uDone
		ctx.vals[i] = val
		e.Stats.StoresExecuted++
		e.acts = append(e.acts, Action{Kind: ActMemExecuted, Ctx: ci, Core: ctx.core, //simlint:allocok acts scratch reaches steady-state capacity
			Chain: ctx.chain, UopIdx: i, VAddr: vaddr})
		return false
	default:
		v := isa.EvalUop(u, e.srcVal(ctx, cu, 0), e.srcVal(ctx, cu, 1))
		ctx.state[i] = uDone
		ctx.vals[i] = v
		if cu.DstEPR >= 0 {
			ctx.prf[cu.DstEPR] = v
			ctx.prfReady[cu.DstEPR] = true
		}
		return false
	}
}

// issueLoad executes chain load i of context ci: LSQ forwarding, the EMC
// TLB and data cache, then an LLC or direct DRAM request. It appends its
// actions to e.acts and reports whether the context aborted.
//
//simlint:noalloc
func (e *EMC) issueLoad(ci, i int) (aborted bool) {
	ctx := &e.ctxs[ci]
	cu := &ctx.chain.Uops[i]
	u := &cu.U
	vaddr := isa.AddrOf(u, e.srcVal(ctx, cu, 0))
	if vaddr != u.Addr {
		e.Stats.AddrMismatches++
		if MismatchDebug != nil {
			MismatchDebug(ctx.chain, i, vaddr)
		}
	}
	e.Stats.LoadsExecuted++
	e.acts = append(e.acts, Action{Kind: ActMemExecuted, Ctx: ci, Core: ctx.core, //simlint:allocok acts scratch reaches steady-state capacity
		Chain: ctx.chain, UopIdx: i, VAddr: vaddr})

	// EMC LSQ forwarding from an earlier in-chain store.
	for j := len(ctx.lsq) - 1; j >= 0; j-- {
		if ctx.lsq[j].vaddr == vaddr {
			e.Stats.LSQForwards++
			ctx.state[i] = uDone
			e.writeResult(ctx, i, ctx.lsq[j].val)
			return false
		}
	}

	// Translation: no page walks at the EMC — miss aborts (§4.1.4).
	paddr, ok := e.tlbs[ctx.core].Lookup(vaddr)
	if !ok {
		e.abort(ci, AbortTLBMiss, vaddr)
		return true
	}

	// EMC data cache.
	if e.dcache.Access(paddr, false) {
		e.Stats.CacheHits++
		ctx.state[i] = uDone
		e.writeResult(ctx, i, u.Value)
		return false
	}
	e.Stats.CacheMisses++

	// Miss predictor decides LLC vs direct DRAM (§4.3).
	line := cache.LineAddr(paddr)
	ctx.state[i] = uIssued
	ctx.memBusy++
	e.pend = append(e.pend, pendingMem{ctx: ci, uop: i, line: line}) //simlint:allocok pend is preallocated to pendCap in New
	kind := ActLLCRequest
	if e.PredictMiss(ctx.core, u.PC) {
		e.Stats.DRAMRequests++
		kind = ActDRAMRequest
	} else {
		e.Stats.LLCRequests++
	}
	e.acts = append(e.acts, Action{Kind: kind, Ctx: ci, Core: ctx.core, //simlint:allocok acts scratch reaches steady-state capacity
		Chain: ctx.chain, UopIdx: i, VAddr: vaddr, PAddr: paddr, PC: u.PC})
	return false
}

func (e *EMC) writeResult(ctx *context, i int, v uint64) {
	ctx.vals[i] = v
	cu := &ctx.chain.Uops[i]
	if cu.DstEPR >= 0 {
		ctx.prf[cu.DstEPR] = v
		ctx.prfReady[cu.DstEPR] = true
	}
}

// completeUop finishes a pending memory uop after its fill arrives.
//
//simlint:noalloc
func (e *EMC) completeUop(ci, i int, now uint64) {
	ctx := &e.ctxs[ci]
	ctx.state[i] = uDone
	e.writeResult(ctx, i, ctx.chain.Uops[i].U.Value)
	if ctx.allDone() {
		e.finishChain(ci, now)
	}
}

// finishChain writes the live-outs into the chain's own LiveOuts buffer,
// appends the ActChainDone carrying them, and frees the context.
//
//simlint:noalloc
func (e *EMC) finishChain(ci int, now uint64) {
	ctx := &e.ctxs[ci]
	ch := ctx.chain
	// Chains from the core's walk carry a LiveOuts block of exactly
	// len(Uops); a hand-built chain without one gets it here, once.
	ch.LiveOuts = append(ch.LiveOuts[:0], ctx.vals...) //simlint:allocok generated chains carry exact-size LiveOuts capacity
	e.Stats.ChainsDone++
	e.Stats.ChainLatencySum += now - ctx.trigAt
	e.Stats.LiveOutsSent += uint64(len(ch.LiveOuts))
	core := ctx.core
	ctx.busy = false
	ctx.chain = nil
	e.acts = append(e.acts, Action{Kind: ActChainDone, Ctx: ci, Core: core, Chain: ch, Values: ch.LiveOuts}) //simlint:allocok acts scratch reaches steady-state capacity
}
