package emc

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/vm"
)

func testCfg() Config {
	cfg := DefaultConfig(4)
	cfg.PageShift = vm.LargePageShift
	return cfg
}

// buildChain hand-assembles the Fig. 5-shaped chain:
//
//	uop0: load  E0 = [liveIn0]        (source miss, value arrives at trigger)
//	uop1: mov   E1 = E0
//	uop2: add   E2 = E1 + 0x18
//	uop3: load  E3 = [E2]             (dependent miss)
func buildChain(core int, srcBase, depVal uint64) *cpu.Chain {
	srcVal := uint64(0x5000000 - 0x18)
	return &cpu.Chain{
		CoreID:     core,
		SourceLine: srcBase >> 6,
		SourceVA:   srcBase,
		SourcePC:   0x400100,
		LiveIns:    []uint64{srcBase},
		Uops: []cpu.ChainUop{
			{U: isa.Uop{Op: isa.OpLoad, Src1: 1, Src2: isa.RegNone, Dst: 2,
				Addr: srcBase, Value: srcVal, PC: 0x400100},
				Src:    [2]cpu.ChainSrc{{Kind: cpu.ChainSrcLiveIn, Idx: 0}, {}},
				DstEPR: 0},
			{U: isa.Uop{Op: isa.OpMov, Src1: 2, Src2: isa.RegNone, Dst: 3},
				Src:    [2]cpu.ChainSrc{{Kind: cpu.ChainSrcEPR, Idx: 0}, {}},
				DstEPR: 1},
			{U: isa.Uop{Op: isa.OpAdd, Src1: 3, Src2: isa.RegNone, Dst: 4, Imm: 0x18},
				Src:    [2]cpu.ChainSrc{{Kind: cpu.ChainSrcEPR, Idx: 1}, {}},
				DstEPR: 2},
			{U: isa.Uop{Op: isa.OpLoad, Src1: 4, Src2: isa.RegNone, Dst: 5,
				Addr: 0x5000000, Value: depVal, PC: 0x400104},
				Src:    [2]cpu.ChainSrc{{Kind: cpu.ChainSrcEPR, Idx: 2}, {}},
				DstEPR: 3},
		},
	}
}

// prime installs translations for the chain's pages.
func prime(e *EMC, core int, pt *vm.PageTable, addrs ...uint64) {
	for _, a := range addrs {
		e.TLB(core).Insert(a, pt.Lookup(a))
	}
}

func collect(e *EMC, from, to uint64) []Action {
	var acts []Action
	for cy := from; cy <= to; cy++ {
		acts = append(acts, e.Tick(cy)...)
	}
	return acts
}

func kinds(acts []Action) map[ActionKind]int {
	m := map[ActionKind]int{}
	for _, a := range acts {
		m[a.Kind]++
	}
	return m
}

func TestChainExecutionEndToEnd(t *testing.T) {
	e := New(testCfg(), 0, 4)
	pt := vm.NewPageTableShift(vm.NewFrameAllocator(), vm.LargePageShift)
	ch := buildChain(0, 0x4000000, 0xABCD)
	prime(e, 0, pt, 0x4000000, 0x5000000)

	if !e.InstallChain(ch, nil, ch.SourceVA>>vm.LargePageShift, true, 10) {
		t.Fatal("install failed")
	}
	// Not triggered: nothing happens.
	if acts := e.Tick(11); len(acts) != 0 {
		t.Fatalf("untriggered context acted: %v", acts)
	}
	// Source data arrives.
	e.OnDRAMFill(ch.SourceLine, 20)
	acts := collect(e, 21, 40)
	k := kinds(acts)
	if k[ActMemExecuted] != 1 {
		t.Errorf("expected 1 mem-executed message (the dependent load), got %d", k[ActMemExecuted])
	}
	// The dependent load missed the cold EMC cache; the cold miss predictor
	// sends it via the LLC.
	if k[ActLLCRequest]+k[ActDRAMRequest] != 1 {
		t.Fatalf("expected 1 memory request, got %v", k)
	}
	// Deliver the dependent line.
	var dep Action
	for _, a := range acts {
		if a.Kind == ActLLCRequest || a.Kind == ActDRAMRequest {
			dep = a
		}
	}
	if dep.VAddr != 0x5000000 {
		t.Errorf("dependent request vaddr = %#x, want 0x5000000", dep.VAddr)
	}
	done := e.FillMem(dep.PAddr>>6, 100)
	if len(done) != 1 || done[0].Kind != ActChainDone {
		t.Fatalf("expected chain completion, got %v", done)
	}
	vals := done[0].Values
	if vals[0] != 0x5000000-0x18 || vals[1] != 0x5000000-0x18 ||
		vals[2] != 0x5000000 || vals[3] != 0xABCD {
		t.Errorf("live-out values wrong: %#x", vals)
	}
	if e.Stats.AddrMismatches != 0 {
		t.Errorf("address mismatches: %d", e.Stats.AddrMismatches)
	}
	if e.Stats.ChainsDone != 1 {
		t.Errorf("chains done = %d", e.Stats.ChainsDone)
	}
	if e.BusyContexts() != 0 {
		t.Error("context should be free after completion")
	}
}

func TestImmediateTriggerWhenSourceNotOutstanding(t *testing.T) {
	e := New(testCfg(), 0, 4)
	pt := vm.NewPageTableShift(vm.NewFrameAllocator(), vm.LargePageShift)
	ch := buildChain(0, 0x4000000, 1)
	prime(e, 0, pt, 0x4000000, 0x5000000)
	e.InstallChain(ch, nil, 0, false /* source already filled */, 10)
	acts := collect(e, 11, 15)
	if len(acts) == 0 {
		t.Fatal("immediately-triggered chain did nothing")
	}
}

func TestTLBMissAborts(t *testing.T) {
	e := New(testCfg(), 0, 4)
	pt := vm.NewPageTableShift(vm.NewFrameAllocator(), vm.LargePageShift)
	ch := buildChain(0, 0x4000000, 1)
	// Only the source page is resident; the dependent page is not.
	prime(e, 0, pt, 0x4000000)
	e.InstallChain(ch, nil, 0, false, 10)
	acts := collect(e, 11, 30)
	var abort *Action
	for i := range acts {
		if acts[i].Kind == ActChainAbort {
			abort = &acts[i]
		}
	}
	if abort == nil {
		t.Fatal("expected TLB-miss abort")
	}
	if abort.Reason != AbortTLBMiss || abort.MissPage != 0x5000000 {
		t.Errorf("abort = %+v", abort)
	}
	if e.Stats.AbortTLB != 1 {
		t.Errorf("abortTLB = %d", e.Stats.AbortTLB)
	}
	if e.BusyContexts() != 0 {
		t.Error("aborted context should be free")
	}
}

func TestMispredictAborts(t *testing.T) {
	e := New(testCfg(), 0, 4)
	ch := buildChain(0, 0x4000000, 1)
	ch.HasMispredict = true
	e.InstallChain(ch, nil, 0, false, 10)
	acts := collect(e, 11, 12)
	if len(acts) != 1 || acts[0].Kind != ActChainAbort || acts[0].Reason != AbortMispredict {
		t.Fatalf("expected mispredict abort, got %v", acts)
	}
}

func TestContextExhaustion(t *testing.T) {
	cfg := testCfg()
	cfg.Contexts = 2
	e := New(cfg, 0, 4)
	for i := 0; i < 2; i++ {
		if !e.InstallChain(buildChain(i, 0x4000000, 1), nil, 0, true, 1) {
			t.Fatalf("install %d failed", i)
		}
	}
	if e.HasFreeContext() {
		t.Error("both contexts should be busy")
	}
	if e.InstallChain(buildChain(2, 0x4000000, 1), nil, 0, true, 1) {
		t.Error("third install should be rejected")
	}
	if e.Stats.ChainsRejected != 1 {
		t.Errorf("rejected = %d", e.Stats.ChainsRejected)
	}
}

func TestExternalAbort(t *testing.T) {
	e := New(testCfg(), 0, 4)
	ch := buildChain(0, 0x4000000, 1)
	e.InstallChain(ch, nil, 0, true, 1)
	acts := e.AbortContext(ch, AbortConflict, 5)
	if len(acts) != 1 || acts[0].Kind != ActChainAbort || acts[0].Reason != AbortConflict {
		t.Fatalf("expected conflict abort, got %v", acts)
	}
	if e.BusyContexts() != 0 {
		t.Error("context should be free")
	}
}

func TestDataCacheHit(t *testing.T) {
	e := New(testCfg(), 0, 4)
	pt := vm.NewPageTableShift(vm.NewFrameAllocator(), vm.LargePageShift)
	ch := buildChain(0, 0x4000000, 0x77)
	prime(e, 0, pt, 0x4000000, 0x5000000)
	// The dependent line is already in the EMC data cache (it recently
	// crossed the controller).
	depPA := pt.Translate(0x5000000)
	e.OnDRAMFill(depPA>>6, 5)
	e.InstallChain(ch, nil, 0, false, 10)
	acts := collect(e, 11, 20)
	k := kinds(acts)
	if k[ActChainDone] != 1 {
		t.Fatalf("chain should complete from the data cache alone: %v", k)
	}
	if e.Stats.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", e.Stats.CacheHits)
	}
	if k[ActLLCRequest]+k[ActDRAMRequest] != 0 {
		t.Error("no external request expected on a cache hit")
	}
}

func TestMissPredictorRoutesToDRAM(t *testing.T) {
	e := New(testCfg(), 0, 4)
	pt := vm.NewPageTableShift(vm.NewFrameAllocator(), vm.LargePageShift)
	// Train the dependent load's PC to predict miss.
	for i := 0; i < 8; i++ {
		e.TrainMissPredictor(0, 0x400104, true)
	}
	if !e.PredictMiss(0, 0x400104) {
		t.Fatal("predictor should predict miss after training")
	}
	ch := buildChain(0, 0x4000000, 1)
	prime(e, 0, pt, 0x4000000, 0x5000000)
	e.InstallChain(ch, nil, 0, false, 10)
	acts := collect(e, 11, 20)
	k := kinds(acts)
	if k[ActDRAMRequest] != 1 || k[ActLLCRequest] != 0 {
		t.Errorf("trained predictor should bypass the LLC: %v", k)
	}
	// Hits train it back down.
	for i := 0; i < 16; i++ {
		e.TrainMissPredictor(0, 0x400104, false)
	}
	if e.PredictMiss(0, 0x400104) {
		t.Error("predictor should predict hit after hit training")
	}
}

func TestLSQForwarding(t *testing.T) {
	// Chain with a register spill: store [stack] = E0; load E1 = [stack].
	stack := uint64(0x7FFF00000000)
	ch := &cpu.Chain{
		CoreID: 0, SourceLine: 0x4000000 >> 6, SourceVA: 0x4000000,
		LiveIns: []uint64{0x4000000, stack},
		Uops: []cpu.ChainUop{
			{U: isa.Uop{Op: isa.OpLoad, Src1: 1, Src2: isa.RegNone, Dst: 2,
				Addr: 0x4000000, Value: 0xCAFE},
				Src:    [2]cpu.ChainSrc{{Kind: cpu.ChainSrcLiveIn, Idx: 0}, {}},
				DstEPR: 0},
			{U: isa.Uop{Op: isa.OpStore, Src1: 3, Src2: 2, Imm: 0,
				Addr: stack, Value: 0xCAFE},
				Src: [2]cpu.ChainSrc{{Kind: cpu.ChainSrcLiveIn, Idx: 1},
					{Kind: cpu.ChainSrcEPR, Idx: 0}},
				DstEPR: -1},
			{U: isa.Uop{Op: isa.OpLoad, Src1: 3, Src2: isa.RegNone, Dst: 4,
				Imm: 0, Addr: stack, Value: 0xCAFE},
				Src:    [2]cpu.ChainSrc{{Kind: cpu.ChainSrcLiveIn, Idx: 1}, {}},
				DstEPR: 1},
		},
	}
	e := New(testCfg(), 0, 4)
	e.InstallChain(ch, nil, 0, false, 10)
	acts := collect(e, 11, 20)
	k := kinds(acts)
	if k[ActChainDone] != 1 {
		t.Fatalf("spill chain should complete: %v", k)
	}
	if e.Stats.LSQForwards != 1 {
		t.Errorf("LSQ forwards = %d, want 1", e.Stats.LSQForwards)
	}
	if e.Stats.StoresExecuted != 1 {
		t.Errorf("stores executed = %d, want 1", e.Stats.StoresExecuted)
	}
	// Both memory ops announce themselves to the home core's LSQ.
	if k[ActMemExecuted] != 2 {
		t.Errorf("mem-executed messages = %d, want 2", k[ActMemExecuted])
	}
}

func TestInvalidateLine(t *testing.T) {
	e := New(testCfg(), 0, 4)
	e.OnDRAMFill(0x123, 1)
	if !e.Cache().Probe(0x123 << 6) {
		t.Fatal("line should be cached after a DRAM fill")
	}
	e.InvalidateLine(0x123)
	if e.Cache().Probe(0x123 << 6) {
		t.Error("line should be gone after invalidation")
	}
}

func TestTwoWideIssueLimit(t *testing.T) {
	// A chain of 6 independent-after-source ALU ops takes >= 3 cycles at
	// issue width 2.
	var uops []cpu.ChainUop
	uops = append(uops, cpu.ChainUop{
		U: isa.Uop{Op: isa.OpLoad, Src1: 1, Src2: isa.RegNone, Dst: 2,
			Addr: 0x4000000, Value: 5},
		Src:    [2]cpu.ChainSrc{{Kind: cpu.ChainSrcLiveIn, Idx: 0}, {}},
		DstEPR: 0,
	})
	for i := 0; i < 6; i++ {
		uops = append(uops, cpu.ChainUop{
			U:      isa.Uop{Op: isa.OpAdd, Src1: 2, Src2: isa.RegNone, Dst: 3, Imm: int64(i)},
			Src:    [2]cpu.ChainSrc{{Kind: cpu.ChainSrcEPR, Idx: 0}, {}},
			DstEPR: int8(1 + i),
		})
	}
	ch := &cpu.Chain{CoreID: 0, SourceLine: 0x4000000 >> 6,
		LiveIns: []uint64{0x4000000}, Uops: uops}
	e := New(testCfg(), 0, 4)
	e.InstallChain(ch, nil, 0, false, 10)
	doneAt := uint64(0)
	for cy := uint64(11); cy < 30 && doneAt == 0; cy++ {
		for _, a := range e.Tick(cy) {
			if a.Kind == ActChainDone {
				doneAt = cy
			}
		}
	}
	if doneAt == 0 {
		t.Fatal("chain never completed")
	}
	if doneAt < 13 {
		t.Errorf("6 ALU ops at width 2 finished too fast (cycle %d)", doneAt)
	}
}
