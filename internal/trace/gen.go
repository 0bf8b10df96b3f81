// Package trace synthesizes deterministic, value-consistent micro-op streams
// that reproduce the memory behaviour of the SPEC CPU2006 benchmarks as
// characterized by the paper (memory intensity, dependent-miss fraction,
// dependence-chain length, streaming vs. pointer-chasing mix).
//
// Value consistency is the load-bearing property: for every load and store,
// the effective address recorded in the uop equals the value of its base
// register plus the immediate at that point in program order, and every load
// that reads a location written by an earlier store observes the stored
// value. This allows the core and the Enhanced Memory Controller to execute
// uops functionally, and lets tests assert that addresses computed by the
// EMC match the trace exactly.
package trace

import (
	"repro/internal/isa"
)

// Virtual-address layout of a generated workload. Each core runs in its own
// address space (the vm package maps (core, page) to distinct frames), so
// all traces may share these constants.
const (
	CodeBase   = 0x0000_0000_0040_0000
	HotBase    = 0x0000_0000_1000_0000
	HotSize    = 32 * kib
	WarmBase   = 0x0000_0000_2000_0000
	StreamBase = 0x0000_0000_4000_0000
	RandBase   = 0x0000_0001_0000_0000
	ChaseBase  = 0x0000_0002_0000_0000
	StoreBase  = 0x0000_0003_0000_0000 // store-only region, never loaded
	StackBase  = 0x0000_7FFF_FF00_0000 // spill slots

	// CacheLine is the line size shared by the whole hierarchy (Table 1).
	CacheLine = 64
)

// Architectural register allocation used by the generator. Keeping roles
// static makes the emitted dataflow easy to reason about in tests.
const (
	// r0..r3 are load destinations (the "data sink"); r4..r7 are the filler
	// ALU pool. Keeping them apart makes the load->branch coupling an
	// explicit profile knob (BranchOnLoad, DataMixProb) instead of an
	// accident of register reuse.
	sinkR0    = isa.Reg(0)
	sinkRegs  = 4
	aluR0     = isa.Reg(4)
	aluRegs   = 4
	poolR0    = isa.Reg(0) // r0..r7: full pool (initialization)
	poolRegs  = 8
	chaseR0   = isa.Reg(8) // r8..r11: chase pointer registers (rotated)
	chaseRegs = 4
	// r12..r15 hold region base addresses, set once at trace start, so
	// ordinary loads and stores are a single uop with a large immediate.
	hotBaseReg   = isa.Reg(12)
	warmBaseReg  = isa.Reg(13)
	randBaseReg  = isa.Reg(14)
	storeBaseReg = isa.Reg(15)
	streamR0     = isa.Reg(16) // r16..r23: stream pointers
	maxStreams   = 8
	stackBaseReg = isa.Reg(24) // stack (spill) region base
	spillR0      = isa.Reg(25) // r25..r27: spill fill destinations (rotated)
	spillRegs    = 3
	chainR0      = isa.Reg(28) // r28..r31: chain scratch (rotated)
	chainRegs    = 4

	// chainSpillSlot is the stack slot reserved for in-chain pointer spills;
	// ordinary spills rotate over the slots below it.
	chainSpillSlot = 63
)

// Reader is a source of micro-ops. ok is false when the stream is exhausted.
type Reader interface {
	Next() (u isa.Uop, ok bool)
}

// Generator produces an unbounded value-consistent uop stream for one
// benchmark profile. It implements Reader and never exhausts; a Feed cuts
// it to a run's length.
type Generator struct {
	prof Profile
	rng  *PRNG

	buf  []isa.Uop
	head int

	seq     uint64
	pcOff   uint64 // rolling offset within the code footprint
	regs    [isa.NumArchRegs]uint64
	started bool

	// Feedback counters steering the instruction mix.
	nTotal, nMem, nBranch uint64
	nLoads, nStores       uint64

	// Load-mix cumulative weights (normalized shares).
	wHot, wWarm, wStream, wRandom float64 // cumulative; chase is the rest

	streams     []streamState
	lastALUPool isa.Reg // most recent filler-ALU destination
	nextChase   int     // rotating chase register index
	nextChain   int     // rotating chain scratch index
	nextSpill   int     // rotating spill data register index
	spillSlot   int     // rotating spill stack slot
	fills       []pendingFill
	spillVals   [64]uint64
	spillAddrs  [64]uint64

	// recentNodes is a ring of recently visited chase nodes for revisit
	// locality (ChaseHotProb).
	recentNodes [256]uint64
	recentN     int
	recentPos   int

	// chaseCur holds each persistent traversal's current node; 0 = not
	// started. Stream k owns register chaseR0+k.
	chaseCur [chaseRegs]uint64
	nextStrm int
	steps    []chainStep // solveChain scratch, reused across hops

	// succ records the stable next-pointer of visited chase nodes, so a
	// revisited node leads to the same successor — the repeated-traversal
	// behaviour that lets correlation prefetchers (Markov, GHB) capture a
	// fraction of dependent misses (paper Fig. 3). Bounded FIFO.
	succ      map[uint64]uint64
	succOrder []uint64

	// Fixed "instruction sites" so recurring loads share PCs (drives the
	// I-cache and the EMC's PC-hashed miss predictor realistically).
	chasePCs  [8]uint64
	siblingPC uint64
	streamPCs [maxStreams]uint64
	hotPCs    [4]uint64
	warmPCs   [2]uint64
	randPC    uint64
	fillPC    uint64

	stats GenStats
}

type streamState struct {
	base uint64
	pos  uint64
	size uint64
}

type pendingFill struct {
	due  uint64 // emit when nTotal reaches this
	slot int
}

// GenStats exposes generation-side ground truth used by tests and by the
// characterization figures.
type GenStats struct {
	Uops          uint64
	Loads         uint64
	Stores        uint64
	Branches      uint64
	ChaseEpisodes uint64
	ChaseLoads    uint64 // pointer loads emitted in chase episodes
	DepChainOps   uint64 // ALU ops on source→dependent dataflow paths
	DepChainLinks uint64 // number of source→dependent load pairs
	SiblingLoads  uint64
	ChainSpills   uint64
}

// NewGenerator returns a generator for profile p seeded with seed.
func NewGenerator(p Profile, seed uint64) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{prof: p, rng: NewPRNG(seed)}
	total := p.loadShareTotal()
	g.wHot = p.HotShare / total
	g.wWarm = g.wHot + p.WarmShare/total
	g.wStream = g.wWarm + p.StreamShare/total
	g.wRandom = g.wStream + p.RandomShare/total

	ns := p.Streams
	if ns > maxStreams {
		ns = maxStreams
	}
	if ns < 1 {
		ns = 1
	}
	g.streams = make([]streamState, ns)
	per := p.StreamWS / uint64(ns)
	per &^= CacheLine - 1
	if per < 4*kib {
		per = 4 * kib
	}
	for i := range g.streams {
		g.streams[i] = streamState{base: StreamBase + uint64(i)*per, size: per}
	}
	for i := 0; i < 64; i++ {
		g.spillAddrs[i] = StackBase + uint64(i)*8
	}
	// Lay out fixed PC sites inside the code footprint.
	fp := p.CodeFootprint
	if fp < 4*kib {
		fp = 4 * kib
	}
	site := func(i int) uint64 { return CodeBase + uint64(i)*68%fp }
	n := 0
	next := func() uint64 { n++; return site(n) }
	for i := range g.chasePCs {
		g.chasePCs[i] = next()
	}
	g.siblingPC = next()
	for i := range g.streamPCs {
		g.streamPCs[i] = next()
	}
	for i := range g.hotPCs {
		g.hotPCs[i] = next()
	}
	for i := range g.warmPCs {
		g.warmPCs[i] = next()
	}
	g.randPC = next()
	g.fillPC = next()
	return g
}

// Stats returns generation counters accumulated so far.
func (g *Generator) Stats() GenStats { return g.stats }

// Profile returns the profile the generator was built with.
func (g *Generator) Profile() Profile { return g.prof }

// Next returns the next uop. The stream is unbounded; ok is always true.
func (g *Generator) Next() (isa.Uop, bool) {
	for g.head >= len(g.buf) {
		g.buf = g.buf[:0]
		g.head = 0
		g.emitBlock()
	}
	u := g.buf[g.head]
	g.head++
	return u, true
}

// Fill fills dst with the next len(dst) uops of the stream, the same ones
// len(dst) calls of Next return, copying whole emitted blocks at a time.
func (g *Generator) Fill(dst []isa.Uop) {
	for n := 0; n < len(dst); {
		if g.head >= len(g.buf) {
			g.buf = g.buf[:0]
			g.head = 0
			g.emitBlock()
			continue
		}
		k := copy(dst[n:], g.buf[g.head:])
		g.head += k
		n += k
	}
}

// rollPC advances the rolling program counter by one 4-byte uop slot within
// the code footprint.
func (g *Generator) rollPC() uint64 {
	fp := g.prof.CodeFootprint
	if fp < 4*kib {
		fp = 4 * kib
	}
	pc := CodeBase + g.pcOff
	g.pcOff = (g.pcOff + 4) % fp
	return pc
}

// push appends a uop, assigning its sequence number and accounting for the
// mix-feedback counters, and updates the architectural register state.
func (g *Generator) push(u isa.Uop) {
	u.Seq = g.seq
	g.seq++
	if u.PC == 0 {
		u.PC = g.rollPC()
	}
	g.nTotal++
	g.stats.Uops++
	switch u.Op.Class() {
	case isa.ClassLoad:
		g.nMem++
		g.nLoads++
		g.stats.Loads++
	case isa.ClassStore:
		g.nMem++
		g.nStores++
		g.stats.Stores++
	case isa.ClassBranch:
		g.nBranch++
		g.stats.Branches++
	}
	if u.HasDst() {
		s1, s2 := g.readSrc(u.Src1), g.readSrc(u.Src2)
		g.regs[u.Dst] = isa.EvalUop(&u, s1, s2)
	}
	g.buf = append(g.buf, u)
}

func (g *Generator) readSrc(r isa.Reg) uint64 {
	if !r.Valid() {
		return 0
	}
	return g.regs[r]
}

// emitBlock appends the next small batch of uops, steering toward the
// profile's instruction mix with a deficit controller.
func (g *Generator) emitBlock() {
	if !g.started {
		g.started = true
		g.emitInit()
		return
	}
	// Emit any spill fills that have come due.
	for i := 0; i < len(g.fills); {
		if g.fills[i].due <= g.nTotal {
			g.emitFill(g.fills[i].slot)
			g.fills = append(g.fills[:i], g.fills[i+1:]...)
		} else {
			i++
		}
	}
	p := &g.prof
	total := float64(g.nTotal) + 1
	switch {
	case float64(g.nBranch)/total < p.BranchFrac:
		g.emitBranch()
	case float64(g.nMem)/total < p.MemFrac:
		if g.rng.Bool(p.StoreFrac) {
			g.emitStore()
		} else {
			g.emitLoadEpisode()
		}
		// Register spills ride along with memory activity.
		if g.rng.Bool(p.SpillRate / 100 * 10) {
			g.emitSpill()
		}
	default:
		g.emitFiller()
	}
}

// emitInit materializes initial values for the compute pool and stream
// pointers so every later uop reads defined registers.
func (g *Generator) emitInit() {
	for i := 0; i < poolRegs; i++ {
		g.push(isa.Uop{Op: isa.OpMov, Src1: isa.RegNone, Src2: isa.RegNone,
			Dst: poolR0 + isa.Reg(i), Imm: int64(g.rng.Uint64() >> 8)})
	}
	for _, b := range []struct {
		r isa.Reg
		v uint64
	}{
		{hotBaseReg, HotBase}, {warmBaseReg, WarmBase},
		{randBaseReg, RandBase}, {storeBaseReg, StoreBase},
		{stackBaseReg, StackBase},
	} {
		g.push(isa.Uop{Op: isa.OpMov, Src1: isa.RegNone, Src2: isa.RegNone, Dst: b.r, Imm: int64(b.v)})
	}
	for i := range g.streams {
		g.resetStream(i)
	}
}

func (g *Generator) resetStream(i int) {
	s := &g.streams[i]
	s.pos = 0
	g.push(isa.Uop{Op: isa.OpMov, Src1: isa.RegNone, Src2: isa.RegNone,
		Dst: streamR0 + isa.Reg(i), Imm: int64(s.base)})
}

// emitFiller emits one compute uop: destination in the ALU pool, sources
// mostly ALU results with an occasional loaded value mixed in.
func (g *Generator) emitFiller() {
	p := &g.prof
	dst := aluR0 + isa.Reg(g.rng.Intn(aluRegs))
	s1 := aluR0 + isa.Reg(g.rng.Intn(aluRegs))
	s2 := aluR0 + isa.Reg(g.rng.Intn(aluRegs))
	if g.rng.Bool(0.15) {
		s2 = sinkR0 + isa.Reg(g.rng.Intn(sinkRegs))
	}
	var op isa.Op
	switch {
	case g.rng.Bool(p.FPFrac):
		op = []isa.Op{isa.OpFAdd, isa.OpFMul, isa.OpFDiv, isa.OpVec}[g.rng.Intn(4)]
	case g.rng.Bool(0.06):
		op = isa.OpIMul
	default:
		op = []isa.Op{isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
			isa.OpShl, isa.OpShr, isa.OpMov}[g.rng.Intn(8)]
	}
	u := isa.Uop{Op: op, Src1: s1, Src2: s2, Dst: dst}
	if op == isa.OpShl || op == isa.OpShr {
		// Bounded shift counts keep pool values well distributed.
		u.Src2 = isa.RegNone
		u.Imm = int64(g.rng.Intn(16))
	}
	if op == isa.OpMov {
		u.Src2 = isa.RegNone
	}
	g.lastALUPool = dst
	g.push(u)
}

func (g *Generator) emitBranch() {
	// Branch conditions are mostly ALU results (loop counters, compares);
	// with probability BranchOnLoad they test a loaded value, in which case
	// a mispredict on an outstanding miss holds the front end until the
	// data returns.
	src := g.lastALUPool
	if !src.Valid() {
		src = aluR0 + isa.Reg(g.rng.Intn(aluRegs))
	}
	if g.rng.Bool(g.prof.BranchOnLoad) {
		src = sinkR0 + isa.Reg(g.rng.Intn(sinkRegs))
	}
	// Outcomes are biased like real branches (loop back-edges mostly taken,
	// data-dependent branches weakly biased) so an organic branch predictor
	// sees realistic predictability. The Mispredicted flag drawn from the
	// profile is the default trace-driven model; a core configured with the
	// hybrid predictor ignores it and predicts these outcomes itself.
	taken := g.rng.Bool(0.6)
	if g.rng.Bool(0.7) {
		taken = g.rng.Bool(0.95)
	}
	g.push(isa.Uop{Op: isa.OpBranch, Src1: src,
		Src2: isa.RegNone, Dst: isa.RegNone,
		Taken:        taken,
		Mispredicted: g.rng.Bool(g.prof.MispredictRate)})
}

// emitBaseLoad emits a single-uop load off a region base register.
func (g *Generator) emitBaseLoad(base isa.Reg, off int64, pc uint64, value uint64, dst isa.Reg) {
	g.push(isa.Uop{Op: isa.OpLoad, Src1: base, Src2: isa.RegNone, Dst: dst,
		Imm: off, Addr: g.regs[base] + uint64(off), Value: value, PC: pc})
}

// emitLoadEpisode picks a load target by the profile's mix and emits it.
func (g *Generator) emitLoadEpisode() {
	p := &g.prof
	x := g.rng.Float64()
	dst := sinkR0 + isa.Reg(g.rng.Intn(sinkRegs))
	switch {
	case x < g.wHot:
		off := int64(g.rng.Intn(HotSize/8)) * 8
		g.emitBaseLoad(hotBaseReg, off, g.hotPCs[g.rng.Intn(len(g.hotPCs))], g.rng.Uint64(), dst)
	case x < g.wWarm:
		off := int64(g.rng.Intn(int(p.WarmWS/8))) * 8
		g.emitBaseLoad(warmBaseReg, off, g.warmPCs[g.rng.Intn(len(g.warmPCs))], g.rng.Uint64(), dst)
	case x < g.wStream:
		g.emitStreamLoad(dst)
	case x < g.wRandom:
		off := int64(g.rng.Intn(int(p.RandomWS/8))) * 8
		g.emitBaseLoad(randBaseReg, off, g.randPC, g.rng.Uint64(), dst)
	default:
		g.emitChase()
	}
}

// emitStreamLoad advances one sequential stream by one 8-byte element:
// "load dst=[rS+0]; add rS = rS + 8".
func (g *Generator) emitStreamLoad(dst isa.Reg) {
	i := g.rng.Intn(len(g.streams))
	s := &g.streams[i]
	if s.pos+8 > s.size {
		g.resetStream(i)
	}
	rs := streamR0 + isa.Reg(i)
	addr := s.base + s.pos
	g.push(isa.Uop{Op: isa.OpLoad, Src1: rs, Src2: isa.RegNone, Dst: dst,
		Imm: 0, Addr: addr, Value: g.rng.Uint64(), PC: g.streamPCs[i]})
	g.push(isa.Uop{Op: isa.OpAdd, Src1: rs, Src2: isa.RegNone, Dst: rs, Imm: 8})
	s.pos += 8
}

// emitStore writes to the store-only region mirroring the load mix, so store
// traffic has the same locality character as the loads.
func (g *Generator) emitStore() {
	p := &g.prof
	x := g.rng.Float64()
	var off int64
	switch {
	case x < g.wHot:
		off = int64(g.rng.Intn(HotSize/8)) * 8
	case x < g.wWarm:
		off = 1*mib + int64(g.rng.Intn(int(p.WarmWS/8)))*8
	case x < g.wStream:
		// Sequential store stream (e.g. lbm's result grids).
		off = 8*mib + int64((g.nStores*8)%(p.StreamWS/2))
	default:
		off = 64*mib + int64(g.rng.Intn(int(p.RandomWS/8)))*8
	}
	val := poolR0 + isa.Reg(g.rng.Intn(poolRegs))
	g.push(isa.Uop{Op: isa.OpStore, Src1: storeBaseReg, Src2: val, Dst: isa.RegNone,
		Imm: off, Addr: StoreBase + uint64(off), Value: g.regs[val]})
}

// emitSpill emits a register spill (store to a stack slot) and schedules the
// matching fill a short distance later.
func (g *Generator) emitSpill() {
	slot := g.spillSlot % chainSpillSlot // slots 0..62; 63 is chain-reserved
	g.spillSlot++
	// Drop any still-pending fill for this slot: the new spill supersedes it.
	for i := 0; i < len(g.fills); {
		if g.fills[i].slot == slot {
			g.fills = append(g.fills[:i], g.fills[i+1:]...)
		} else {
			i++
		}
	}
	val := poolR0 + isa.Reg(g.rng.Intn(poolRegs))
	addr := g.spillAddrs[slot]
	g.spillVals[slot] = g.regs[val]
	g.push(isa.Uop{Op: isa.OpStore, Src1: stackBaseReg, Src2: val, Dst: isa.RegNone,
		Imm: int64(slot) * 8, Addr: addr, Value: g.regs[val]})
	g.fills = append(g.fills, pendingFill{due: g.nTotal + uint64(g.rng.Range(5, 30)), slot: slot})
}

func (g *Generator) emitFill(slot int) {
	dst := spillR0 + isa.Reg(g.nextSpill%spillRegs)
	g.nextSpill++
	g.push(isa.Uop{Op: isa.OpLoad, Src1: stackBaseReg, Src2: isa.RegNone, Dst: dst,
		Imm: int64(slot) * 8, Addr: g.spillAddrs[slot], Value: g.spillVals[slot], PC: g.fillPC})
}

// nodeAddr picks the next chase node relative to cur: with ChaseRowLocalProb
// a neighbour of the current node (allocation locality, keeping the
// dependent access in its parent's DRAM row neighbourhood), otherwise a
// fresh random 64-byte-aligned node in the chase working set. Mid-walk
// revisits are deliberately absent: a traversal makes forward progress, so
// it cannot collapse into a tight cache-resident loop. Temporal locality
// enters at traversal restarts (emitChase).
func (g *Generator) nodeAddr(cur uint64) uint64 {
	if cur != 0 && g.rng.Bool(g.prof.ChaseRowLocalProb) {
		// Within +/- 4 KB of the current node, 64-byte aligned.
		off := int64(g.rng.Range(-64, 64)) * CacheLine
		a := int64(cur) + off
		lo, hi := int64(ChaseBase), int64(ChaseBase+g.prof.ChaseWS)
		if a >= lo && a < hi {
			return uint64(a)
		}
	}
	n := int(g.prof.ChaseWS / CacheLine)
	a := ChaseBase + uint64(g.rng.Intn(n))*CacheLine
	g.recentNodes[g.recentPos] = a
	g.recentPos = (g.recentPos + 1) % len(g.recentNodes)
	if g.recentN < len(g.recentNodes) {
		g.recentN++
	}
	return a
}

// chainStep describes one invertible ALU op of an address chain.
type chainStep struct {
	op  isa.Op
	imm int64
}

// solveChain picks k invertible ops and back-computes the value a source
// load must produce so that applying the ops forward yields target. The
// returned steps live in the generator's scratch and are valid until the
// next call.
func (g *Generator) solveChain(k int, target uint64) ([]chainStep, uint64) {
	if cap(g.steps) < k {
		g.steps = make([]chainStep, k)
	}
	steps := g.steps[:k]
	for i := range steps {
		switch g.rng.Intn(4) {
		case 0:
			steps[i] = chainStep{isa.OpAdd, int64(g.rng.Range(1, 0x80))}
		case 1:
			steps[i] = chainStep{isa.OpSub, int64(g.rng.Range(1, 0x80))}
		case 2:
			steps[i] = chainStep{isa.OpXor, int64(g.rng.Range(1, 0x3F))}
		default:
			steps[i] = chainStep{isa.OpMov, 0}
		}
	}
	v := target
	for i := k - 1; i >= 0; i-- {
		switch steps[i].op {
		case isa.OpAdd:
			v -= uint64(steps[i].imm)
		case isa.OpSub:
			v += uint64(steps[i].imm)
		case isa.OpXor:
			v ^= uint64(steps[i].imm)
		case isa.OpMov:
			// identity
		}
	}
	return steps, v
}

// emitChase emits one pointer-chasing episode: a chain of `depth` linked
// loads, each separated by a run of simple integer ops that carry the
// dependence (the structure of Fig. 5 of the paper). The first load is the
// source miss; the following ones are dependent misses. Occasionally the
// chain spills the pointer through a stack slot (store+fill pair inside the
// chain, the case Table 1's EMC store support exists for), and with
// SiblingLoadProb a second field of the just-reached node is loaded from the
// same cache line (the EMC-data-cache temporal-locality case).
func (g *Generator) emitChase() {
	p := &g.prof
	g.stats.ChaseEpisodes++
	depth := g.rng.Range(p.ChaseDepth[0], p.ChaseDepth[1])
	ptrOff := int64(g.rng.Intn(4) * 8) // pointer field offset within the node

	// Pick a persistent traversal stream. Within a stream every pointer load
	// depends on the previous one across the entire run — the serialized
	// pointer walk of a real linked structure. The stream's register holds
	// the current node's address between episodes.
	streams := p.ChaseStreams
	if streams < 1 {
		streams = 1
	}
	if streams > chaseRegs {
		streams = chaseRegs
	}
	k := g.nextStrm % streams
	g.nextStrm++
	rp := chaseR0 + isa.Reg(k)
	node := g.chaseCur[k]
	if node == 0 || g.rng.Bool(g.prof.ChaseHotProb*0.2) {
		// First touch, or a traversal restart. Restarts model re-walking a
		// structure: with ChaseHotProb the new head is a recently visited
		// node (the stable succ edges then replay the same miss sequence —
		// temporal locality and correlation-prefetcher fodder), otherwise a
		// fresh region.
		if g.recentN > 0 && g.rng.Bool(g.prof.ChaseHotProb) {
			node = g.recentNodes[g.rng.Intn(g.recentN)]
		} else {
			node = g.nodeAddr(0)
		}
		g.push(isa.Uop{Op: isa.OpMov, Src1: isa.RegNone, Src2: isa.RegNone, Dst: rp, Imm: int64(node)})
	}

	for hop := 0; hop < depth; hop++ {
		last := hop == depth-1
		var nextNode uint64
		var steps []chainStep
		var loadVal uint64
		if last {
			loadVal = g.rng.Uint64() // terminal data value
		} else {
			nextNode = g.nextNodeOf(node)
			k := g.rng.Range(p.ChainALUOps[0], p.ChainALUOps[1])
			steps, loadVal = g.solveChain(k, nextNode)
		}

		// The pointer load: dependent on rp, which carries the node address.
		dst := chainR0 + isa.Reg(g.nextChain%chainRegs)
		g.nextChain++
		g.push(isa.Uop{Op: isa.OpLoad, Src1: rp, Src2: isa.RegNone, Dst: dst,
			Imm: ptrOff, Addr: node + uint64(ptrOff), Value: loadVal,
			PC: g.chasePCs[hop%len(g.chasePCs)]})
		g.stats.ChaseLoads++

		// Optional sibling field load from the same cache line.
		if g.rng.Bool(p.SiblingLoadProb) {
			sibOff := (ptrOff + 8) % CacheLine
			g.push(isa.Uop{Op: isa.OpLoad, Src1: rp, Src2: isa.RegNone,
				Dst: sinkR0 + isa.Reg(g.rng.Intn(sinkRegs)),
				Imm: sibOff, Addr: node + uint64(sibOff), Value: g.rng.Uint64(),
				PC: g.siblingPC})
			g.stats.SiblingLoads++
		}

		if last {
			break
		}
		g.recordEdge(node, nextNode)
		g.stats.DepChainLinks++

		// Chain ALU ops transforming the loaded value into the next node
		// address, interleaved with independent filler (like instructions 1
		// and 2 in Fig. 4 of the paper).
		cur := dst
		for i, st := range steps {
			nxt := chainR0 + isa.Reg(g.nextChain%chainRegs)
			g.nextChain++
			u := isa.Uop{Op: st.op, Src1: cur, Src2: isa.RegNone, Dst: nxt, Imm: st.imm}
			if st.op == isa.OpMov {
				u.Imm = 0
			}
			g.push(u)
			g.stats.DepChainOps++
			cur = nxt
			if i%3 == 2 && g.rng.Bool(0.4) {
				g.emitFiller()
			}
		}

		// Rarely, spill the pointer through the stack inside the chain.
		if g.rng.Bool(0.02) {
			addr := g.spillAddrs[chainSpillSlot]
			off := int64(chainSpillSlot) * 8
			g.push(isa.Uop{Op: isa.OpStore, Src1: stackBaseReg, Src2: cur, Dst: isa.RegNone,
				Imm: off, Addr: addr, Value: g.regs[cur]})
			reload := chainR0 + isa.Reg(g.nextChain%chainRegs)
			g.nextChain++
			g.push(isa.Uop{Op: isa.OpLoad, Src1: stackBaseReg, Src2: isa.RegNone, Dst: reload,
				Imm: off, Addr: addr, Value: g.regs[cur], PC: g.fillPC})
			cur = reload
			g.stats.ChainSpills++
		}

		node = nextNode
		rp = cur
	}
	// Bank the traversal's position back into its persistent register so the
	// next episode of this stream continues the same walk.
	if rp != chaseR0+isa.Reg(k) {
		g.push(isa.Uop{Op: isa.OpMov, Src1: rp, Src2: isa.RegNone, Dst: chaseR0 + isa.Reg(k)})
	}
	g.chaseCur[k] = node
}

// nextNodeOf returns the successor of a chase node: the recorded stable
// next-pointer when the node was visited before (linked structures rarely
// mutate between traversals), otherwise a fresh choice.
func (g *Generator) nextNodeOf(node uint64) uint64 {
	if n, ok := g.succ[node]; ok && g.rng.Bool(0.9) {
		return n
	}
	return g.nodeAddr(node)
}

// recordEdge remembers node -> next with bounded capacity.
func (g *Generator) recordEdge(node, next uint64) {
	const maxEdges = 1 << 18
	if g.succ == nil {
		g.succ = make(map[uint64]uint64)
	}
	if _, ok := g.succ[node]; !ok {
		if len(g.succOrder) >= maxEdges {
			delete(g.succ, g.succOrder[0])
			g.succOrder = g.succOrder[1:]
		}
		g.succOrder = append(g.succOrder, node)
	}
	g.succ[node] = next
}

// SliceReader replays a fixed slice of uops; useful in tests.
type SliceReader struct {
	Uops []isa.Uop
	pos  int
}

// Next returns the next uop from the slice.
func (s *SliceReader) Next() (isa.Uop, bool) {
	if s.pos >= len(s.Uops) {
		return isa.Uop{}, false
	}
	u := s.Uops[s.pos]
	s.pos++
	return u, true
}

// Generate materializes n uops of benchmark prof with the given seed.
func Generate(prof Profile, seed uint64, n int) []isa.Uop {
	g := NewGenerator(prof, seed)
	out := make([]isa.Uop, 0, n)
	for i := 0; i < n; i++ {
		u, _ := g.Next()
		out = append(out, u)
	}
	return out
}
