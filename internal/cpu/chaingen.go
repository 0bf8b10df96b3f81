package cpu

import (
	"repro/internal/isa"
	"repro/internal/mem/cache"
)

// ChainSrcKind says where a chain uop's source operand comes from at the EMC.
type ChainSrcKind uint8

const (
	// ChainSrcNone marks an absent operand.
	ChainSrcNone ChainSrcKind = iota
	// ChainSrcLiveIn reads the live-in vector (value was ready at the core).
	ChainSrcLiveIn
	// ChainSrcEPR reads an EMC physical register written by an earlier
	// chain uop (renamed through the RRT).
	ChainSrcEPR
)

// ChainSrc is one renamed source operand.
type ChainSrc struct {
	Kind ChainSrcKind
	Idx  uint8 // live-in slot or EMC physical register number
}

// ChainUop is one micro-op of a dependence chain, renamed onto the EMC's
// 16-register space.
type ChainUop struct {
	U      isa.Uop
	RobIdx int32
	Src    [2]ChainSrc
	DstEPR int8 // -1 when the uop writes no register
}

// Chain is a filtered dependence chain generated by the core's chain
// generation unit (§4.2), ready to ship to the EMC.
type Chain struct {
	CoreID     int
	SourceRob  int32
	SourceLine uint64 // physical line address of the source miss
	SourceVA   uint64 // virtual address of the source miss (PTE piggyback)
	SourcePC   uint64
	Uops       []ChainUop
	LiveIns    []uint64
	// LiveOuts holds the EMC's per-uop result values, indexed like Uops;
	// the EMC writes it when the chain completes (ActChainDone.Values).
	LiveOuts []uint64

	// HasMispredict marks a chain that includes a branch the core will later
	// discover was mispredicted; the EMC detects this mid-execution and
	// aborts (§4.3).
	HasMispredict bool

	// GenCycles is how long the dataflow walk took (≈1 cycle/uop, Fig. 9).
	GenCycles int

	GeneratedAt uint64
	// ReadyAt is when the generation walk finishes (transmission may start).
	ReadyAt uint64
	// SourceSeq guards against ROB-slot reuse between walk and transmission.
	SourceSeq uint64
	// SourceFilledAt records when the source miss's data reached the home
	// core (diagnostic: EMC delivery time is compared against it).
	SourceFilledAt uint64
}

// Evaluate executes the chain functionally (the renamed dataflow over the
// live-in vector, with loads taking their trace values) and returns the
// per-uop result values — exactly what a correct EMC execution produces.
func (ch *Chain) Evaluate() []uint64 {
	vals := make([]uint64, len(ch.Uops))
	var prf [16]uint64
	read := func(cu *ChainUop, k int) uint64 {
		switch cu.Src[k].Kind {
		case ChainSrcLiveIn:
			return ch.LiveIns[cu.Src[k].Idx]
		case ChainSrcEPR:
			return prf[cu.Src[k].Idx]
		}
		return 0
	}
	for i := range ch.Uops {
		cu := &ch.Uops[i]
		var v uint64
		switch cu.U.Op.Class() {
		case isa.ClassLoad:
			v = cu.U.Value
		case isa.ClassStore:
			v = read(cu, 1)
		default:
			u := cu.U
			v = isa.EvalUop(&u, read(cu, 0), read(cu, 1))
		}
		vals[i] = v
		if cu.DstEPR >= 0 {
			prf[cu.DstEPR] = v
		}
	}
	return vals
}

// Bytes returns the transfer size of the chain on the data ring: 6 bytes per
// uop (Table 1) plus 8 bytes per live-in.
func (ch *Chain) Bytes() int { return 6*len(ch.Uops) + 8*len(ch.LiveIns) }

// maybeStartChain begins chain generation when the paper's trigger condition
// holds: full-window stall on an LLC-miss load at the ROB head, dependence
// counter high, and no chain already in flight for this core.
func (c *Core) maybeStartChain() {
	if !c.cfg.EMCEnabled {
		return
	}
	if len(c.chains) >= c.cfg.MaxActiveChains {
		c.DbgChainBusy++
		return
	}
	if !c.FullWindowStalled() {
		return
	}
	headSeq := c.seq[c.robHead]
	if headSeq != c.lastStallHead {
		c.lastStallHead = headSeq
		c.DbgStallHeads++
	}
	if !c.DepCounterHigh() {
		c.DbgCounterLow++
		return
	}
	// One generation attempt per stalled head: the dataflow walk is a
	// hardware sequence, not something to re-run every stall cycle.
	if headSeq == c.lastChainAttempt {
		return
	}
	c.lastChainAttempt = headSeq
	ch := c.generateChain(int32(c.robHead))
	if ch == nil {
		c.Stats.ChainNoCandidate++
		return
	}
	ch.ReadyAt = c.now + uint64(ch.GenCycles)
	c.chains = append(c.chains, ch)
	c.Stats.ChainsGenerated++
	c.Stats.ChainUops += uint64(len(ch.Uops))
	c.Stats.ChainLiveIns += uint64(len(ch.LiveIns))
	c.Stats.ChainGenCycles += uint64(ch.GenCycles)
}

// TakeReadyChain hands the generated chain to the caller (the system ships
// it over the data ring to the EMC) once the generation walk has finished.
// Chain uops stay live in the window during assembly (§4.2: the chain sits
// in a core-side buffer until transmitted); only at transmission are they
// read out, marked remote, and their RS entries released. If the source data
// arrived meanwhile and any member already began executing locally, the
// chain is stale and is cancelled instead of shipped.
//
//simlint:noalloc
func (c *Core) TakeReadyChain(now uint64) *Chain {
	for i := 0; i < len(c.chains); i++ {
		ch := c.chains[i]
		if ch.GeneratedAt != 0 || now < ch.ReadyAt {
			continue
		}
		c.wake = 0
		if !c.chainStillIdle(ch) {
			c.Stats.ChainCancels++
			c.chains = append(c.chains[:i], c.chains[i+1:]...) //simlint:allocok removal in place, never grows
			i--
			continue
		}
		ch.GeneratedAt = now
		for _, cu := range ch.Uops[1:] {
			e := c.slot(cu.RobIdx)
			c.remote[cu.RobIdx] = true
			e.inChain = true
			e.chainRef = ch
			if st := c.st[cu.RobIdx]; st == stWaiting || st == stReady {
				c.rsCount--
			}
		}
		c.slot(ch.SourceRob).inChain = true
		// Shipped loads may ride run tokens; split those out.
		c.resolveGen++
		c.settleRuns()
		return ch
	}
	return nil
}

// chainStillIdle reports whether every chain member is still waiting (none
// issued, completed, or squashed since the walk).
func (c *Core) chainStillIdle(ch *Chain) bool {
	for _, cu := range ch.Uops[1:] {
		if st := c.st[cu.RobIdx]; st != stWaiting && st != stReady {
			return false
		}
		if c.seq[cu.RobIdx] <= ch.SourceSeq && cu.RobIdx != ch.SourceRob {
			return false
		}
	}
	return c.st[ch.SourceRob] == stIssued && c.seq[ch.SourceRob] == ch.SourceSeq
}

// generateChain implements Algorithm 1: a forward dataflow walk from the
// source miss through the ROB, pseudo-waking dependents via renamed tags,
// remapping core registers (ROB slots) to EMC physical registers through the
// RRT, and collecting ready source values into the live-in vector.
//
// The walk runs in per-core scratch: the RRT and the membership set are
// epoch-stamped per-ROB-slot arrays (the paper's RRT is a fixed table
// indexed by register tag), and the uop and live-in vectors are reused
// buffers. A walk that finds no chain allocates nothing; a successful one
// allocates only the Chain it returns.
//
//simlint:noalloc
func (c *Core) generateChain(srcIdx int32) *Chain {
	c.walkEpoch++
	if c.walkEpoch == 0 {
		clear(c.walkMark)
		c.walkEpoch = 1
	}
	epoch := c.walkEpoch
	src := c.slot(srcIdx)
	uops, liveIns := c.walkUops[:0], c.walkLiveIns[:0]
	hasMispredict := false

	// Process the source uop: allocate its destination EPR and "broadcast".
	// The source load's address operand is always ready (the load issued);
	// its base register value is live-in slot 0.
	nextEPR := uint8(0)
	if c.cfg.ChainMaxRegs > 0 {
		nextEPR = 1
	}
	c.walkMark[srcIdx], c.walkEPR[srcIdx] = epoch, 0
	uops = append(uops, ChainUop{ //simlint:allocok walkUops reaches ChainMaxUops capacity after the first walks
		U: src.u, RobIdx: srcIdx,
		Src:    [2]ChainSrc{{Kind: ChainSrcLiveIn, Idx: 0}, {}},
		DstEPR: 0,
	})
	liveIns = append(liveIns, src.srcVal[0]) //simlint:allocok walkLiveIns reaches ChainMaxLiveIns capacity after the first walks

	// Forward walk over younger ROB entries in program order.
	for off := 1; off < c.robCount; off++ {
		if len(uops) >= c.cfg.ChainMaxUops {
			break
		}
		idx := c.robIndexAt(off)
		e := c.slot(idx)
		if st := c.st[idx]; st == stEmpty || st == stDone || st == stIssued {
			if e.u.Op == isa.OpBranch && e.u.Mispredicted && st != stDone {
				hasMispredict = true
			}
			continue
		}
		if c.remote[idx] || e.u.Op == isa.OpBranch {
			if e.u.Mispredicted {
				hasMispredict = true
			}
			continue
		}
		if !e.u.Op.EMCAllowed() {
			continue
		}
		// Candidate test: at least one source produced by a chain member,
		// every other source ready (value known) or also in the chain.
		anyChain := false
		ok := true
		for s := 0; s < 2; s++ {
			switch e.srcKind[s] {
			case srcNone, srcValue:
			case srcTag:
				if c.walkMark[e.srcTag[s]] == epoch {
					anyChain = true
				} else {
					ok = false
				}
			}
		}
		if e.u.Op == isa.OpStore {
			// Stores join only as register spills: there must be a younger
			// load to the same address (the fill) in the window (§4.3).
			if !anyChain || !ok || !c.hasFill(idx) {
				continue
			}
		}
		if e.u.Op == isa.OpLoad && !anyChain && ok {
			// A load whose base register is ready joins the chain only as a
			// spill fill: its producer store must already be a member.
			if st := c.chainSpillStore(idx); st >= 0 {
				anyChain = true
			}
		}
		if !anyChain || !ok {
			continue
		}
		// Build the renamed uop.
		var cu ChainUop
		cu.U = e.u
		cu.RobIdx = idx
		bad := false
		for s := 0; s < 2; s++ {
			switch e.srcKind[s] {
			case srcNone:
				cu.Src[s] = ChainSrc{Kind: ChainSrcNone}
			case srcValue:
				if len(liveIns) >= c.cfg.ChainMaxLiveIns {
					bad = true
					break
				}
				cu.Src[s] = ChainSrc{Kind: ChainSrcLiveIn, Idx: uint8(len(liveIns))}
				liveIns = append(liveIns, e.srcVal[s]) //simlint:allocok bounded by ChainMaxLiveIns; scratch capacity is reused
			case srcTag:
				cu.Src[s] = ChainSrc{Kind: ChainSrcEPR, Idx: c.walkEPR[e.srcTag[s]]}
			}
		}
		if bad {
			break // the live-in appended for the other operand stays
		}
		cu.DstEPR = -1
		epr := uint8(0)
		if e.u.HasDst() {
			if int(nextEPR) >= c.cfg.ChainMaxRegs {
				break // EMC register file exhausted
			}
			epr = nextEPR
			nextEPR++
			cu.DstEPR = int8(epr)
		}
		uops = append(uops, cu) //simlint:allocok bounded by ChainMaxUops; scratch capacity is reused
		c.walkMark[idx], c.walkEPR[idx] = epoch, epr
	}
	c.walkUops, c.walkLiveIns = uops, liveIns

	// A useful chain reaches at least one additional load (the dependent
	// miss); otherwise generation found no candidates.
	extraLoads := 0
	for i := 1; i < len(uops); i++ {
		if uops[i].U.Op == isa.OpLoad {
			extraLoads++
		}
	}
	if extraLoads == 0 {
		return nil
	}
	// Members stay live until transmission (TakeReadyChain); remote marking
	// happens there so late-arriving source data cancels rather than parks.
	return c.newChain(srcIdx, uops, liveIns, hasMispredict) //simlint:allocok one Chain per successful walk: it outlives the walk (core buffer, ring, EMC context)
}

// newChain copies a successful walk out of the scratch buffers into a Chain
// of its own: the Chain, its uops, and one value block holding the live-in
// vector followed by the live-out slots the EMC fills at completion. A chain
// outlives the walk (it sits in the core's buffer, rides the ring, occupies
// an EMC context and is referenced from in-flight messages), so it cannot
// live in per-walk scratch.
func (c *Core) newChain(srcIdx int32, uops []ChainUop, liveIns []uint64, hasMispredict bool) *Chain {
	src := c.slot(srcIdx)
	cus := make([]ChainUop, len(uops))
	copy(cus, uops)
	vals := make([]uint64, len(liveIns)+len(uops))
	copy(vals, liveIns)
	return &Chain{
		CoreID:        c.cfg.ID,
		SourceRob:     srcIdx,
		SourceLine:    cache.LineAddr(src.paddr),
		SourceVA:      src.vaddr,
		SourcePC:      src.u.PC,
		Uops:          cus,
		LiveIns:       vals[:len(liveIns):len(liveIns)],
		LiveOuts:      vals[len(liveIns):],
		HasMispredict: hasMispredict,
		GenCycles:     len(uops),
		SourceSeq:     c.seq[srcIdx],
	}
}

// hasFill reports whether a younger load to the store's address exists in
// the window — the paper's register-spill test (searching the LSQ).
func (c *Core) hasFill(stIdx int32) bool {
	st := c.slot(stIdx)
	for _, lIdx := range c.lq {
		if c.seq[lIdx] <= c.seq[stIdx] || c.st[lIdx] == stEmpty {
			continue
		}
		// Compare by architectural address expression: same base register
		// and displacement (addresses may not be computed yet).
		le := c.slot(lIdx)
		if le.u.Src1 == st.u.Src1 && le.u.Imm == st.u.Imm {
			return true
		}
	}
	return false
}

// chainSpillStore decides whether a fill load may join the chain: the
// YOUNGEST older store matching the load's address expression must itself be
// a chain member — otherwise the load's data comes from outside the chain
// (e.g. a reused spill slot) and executing it at the EMC would forward a
// stale value. Returns the matching store's rob slot or -1.
func (c *Core) chainSpillStore(ldIdx int32) int32 {
	ld := c.slot(ldIdx)
	for i := len(c.sq) - 1; i >= 0; i-- {
		sIdx := c.sq[i]
		se := c.slot(sIdx)
		if c.seq[sIdx] >= c.seq[ldIdx] {
			continue
		}
		if se.u.Op == isa.OpStore && se.u.Src1 == ld.u.Src1 && se.u.Imm == ld.u.Imm {
			if c.walkMark[sIdx] == c.walkEpoch {
				return sIdx
			}
			return -1 // the producing store is not in the chain
		}
	}
	return -1
}

// RemoteMemExecuted is the address-ring message of §4.3: the EMC executed a
// memory op of the chain; the core populates the matching LSQ entry. It
// returns true when a memory-ordering conflict exists (an older non-chain
// store to the same address), in which case the caller must abort the chain.
func (c *Core) RemoteMemExecuted(robIdx int32, vaddr uint64) (conflict bool) {
	c.wake = 0
	e := c.slot(robIdx)
	if c.st[robIdx] == stEmpty {
		return false
	}
	e.vaddr = vaddr
	// The core's page table has the translation (the EMC already translated
	// through its own TLB); retirement needs the physical address to drain
	// stores and maintain directories.
	e.paddr = c.pt.Translate(vaddr)
	c.addrValid[robIdx] = true
	if e.u.Op == isa.OpLoad {
		for _, sIdx := range c.sq {
			se := c.slot(sIdx)
			if c.seq[sIdx] >= c.seq[robIdx] || se.inChain {
				continue
			}
			if c.addrValid[sIdx] && se.vaddr == vaddr {
				return true
			}
			// Older stores with unresolved addresses do not conflict yet;
			// checkLateDisambiguation catches them when they resolve.
		}
	}
	return false
}

// CompleteRemoteChain applies the EMC's live-outs: every chain uop's value
// is written back, tags broadcast on the CDB, and memory entries completed.
// values[i] corresponds to chain.Uops[i].
func (c *Core) CompleteRemoteChain(ch *Chain, values []uint64, now uint64) {
	c.now = now
	c.wake = 0
	if ch.SourceFilledAt > 0 && now > ch.SourceFilledAt {
		c.Stats.ChainDeliverySum += now - ch.SourceFilledAt
		c.Stats.ChainDeliveryCount++
		c.Stats.ChainLeadSum += int64(ch.SourceFilledAt) - int64(ch.ReadyAt-uint64(ch.GenCycles))
		c.Stats.ChainLeadCount++
	}
	for i, cu := range ch.Uops {
		if i == 0 {
			continue // source miss completes via its own fill
		}
		e := c.slot(cu.RobIdx)
		if c.st[cu.RobIdx] == stEmpty || !c.remote[cu.RobIdx] {
			continue
		}
		c.remote[cu.RobIdx] = false
		e.chainRef = nil
		e.taint = true // derived from the source miss
		c.st[cu.RobIdx] = stIssued
		e.val = values[i]
		c.finish(cu.RobIdx, values[i])
		c.Stats.RemoteCompleted++
		c.Stats.ChainLiveOuts++
	}
	// Completed chain stores resolved; split runs of loads they blocked.
	c.resolveGen++
	c.settleRuns()
	c.dropChain(ch)
}

// AbortRemoteChain reverts chain members to local execution (EMC TLB miss,
// mispredicted branch, memory disambiguation conflict, or context shortage).
func (c *Core) AbortRemoteChain(ch *Chain) {
	c.wake = 0
	for i, cu := range ch.Uops {
		if i == 0 {
			continue
		}
		e := c.slot(cu.RobIdx)
		st := c.st[cu.RobIdx]
		if st == stEmpty {
			continue
		}
		c.remote[cu.RobIdx] = false
		e.inChain = false
		e.chainRef = nil
		if st == stWaiting || st == stReady {
			// Re-enter the instruction window for local execution. The RS
			// may transiently exceed its capacity here; dispatch stalls
			// until it drains.
			c.rsCount++
		}
		if st == stReady {
			c.copies[cu.RobIdx]++
			c.readyQ = append(c.readyQ, cu.RobIdx)
		}
	}
	c.Stats.ChainAborts++
	c.dropChain(ch)
}

func (c *Core) dropChain(ch *Chain) {
	for i, a := range c.chains {
		if a == ch {
			c.chains = append(c.chains[:i], c.chains[i+1:]...)
			return
		}
	}
}
