package emc

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/vm"
)

// TestTwoContextsInterleave: two chains from different cores make progress
// concurrently under the shared 2-wide back end.
func TestTwoContextsInterleave(t *testing.T) {
	e := New(testCfg(), 0, 4)
	pt0 := vm.NewPageTableShift(vm.NewFrameAllocator(), vm.LargePageShift)
	pt1 := vm.NewPageTableShift(vm.NewFrameAllocator(), vm.LargePageShift)
	ch0 := buildChain(0, 0x4000000, 0x11)
	ch1 := buildChain(1, 0x4000000, 0x22)
	prime(e, 0, pt0, 0x4000000, 0x5000000)
	prime(e, 1, pt1, 0x4000000, 0x5000000)
	if !e.InstallChain(ch0, nil, 0, false, 10) || !e.InstallChain(ch1, nil, 0, false, 10) {
		t.Fatal("install failed")
	}
	acts := collect(e, 11, 40)
	var reqs []Action
	for _, a := range acts {
		if a.Kind == ActLLCRequest || a.Kind == ActDRAMRequest {
			reqs = append(reqs, a)
		}
	}
	if len(reqs) != 2 {
		t.Fatalf("expected 2 dependent requests (one per chain), got %d", len(reqs))
	}
	// Complete both.
	var done int
	for _, r := range reqs {
		for _, a := range e.FillMem(r.PAddr>>6, 100) {
			if a.Kind == ActChainDone {
				done++
			}
		}
	}
	if done != 2 {
		t.Fatalf("chains done = %d, want 2", done)
	}
	if e.Stats.ChainsDone != 2 {
		t.Errorf("stats chains done = %d", e.Stats.ChainsDone)
	}
}

// TestSameLineWaitersBothComplete: two loads of one chain to the same line
// (pointer + sibling field) complete from a single fill.
func TestSameLineWaitersBothComplete(t *testing.T) {
	src := uint64(0x4000000)
	dep := uint64(0x5000000)
	ch := &cpu.Chain{
		CoreID: 0, SourceLine: src >> 6, SourceVA: src,
		LiveIns: []uint64{src},
		Uops: []cpu.ChainUop{
			{U: isa.Uop{Op: isa.OpLoad, Src1: 1, Src2: isa.RegNone, Dst: 2,
				Addr: src, Value: dep},
				Src:    [2]cpu.ChainSrc{{Kind: cpu.ChainSrcLiveIn, Idx: 0}, {}},
				DstEPR: 0},
			// Pointer load at [dep].
			{U: isa.Uop{Op: isa.OpLoad, Src1: 2, Src2: isa.RegNone, Dst: 3,
				Imm: 0, Addr: dep, Value: 0xAA},
				Src:    [2]cpu.ChainSrc{{Kind: cpu.ChainSrcEPR, Idx: 0}, {}},
				DstEPR: 1},
			// Sibling field on the same line.
			{U: isa.Uop{Op: isa.OpLoad, Src1: 2, Src2: isa.RegNone, Dst: 4,
				Imm: 8, Addr: dep + 8, Value: 0xBB},
				Src:    [2]cpu.ChainSrc{{Kind: cpu.ChainSrcEPR, Idx: 0}, {}},
				DstEPR: 2},
		},
	}
	e := New(testCfg(), 0, 4)
	pt := vm.NewPageTableShift(vm.NewFrameAllocator(), vm.LargePageShift)
	prime(e, 0, pt, src, dep)
	e.InstallChain(ch, nil, 0, false, 10)
	acts := collect(e, 11, 20)
	var pend []Action
	for _, a := range acts {
		if a.Kind == ActLLCRequest || a.Kind == ActDRAMRequest {
			pend = append(pend, a)
		}
	}
	if len(pend) == 0 {
		t.Fatal("no memory requests")
	}
	// All requests are for the same line; one fill completes the chain.
	line := pend[0].PAddr >> 6
	done := e.FillMem(line, 50)
	if len(done) != 1 || done[0].Kind != ActChainDone {
		t.Fatalf("one fill should complete the chain, got %v", done)
	}
	vals := done[0].Values
	if vals[1] != 0xAA || vals[2] != 0xBB {
		t.Errorf("sibling values wrong: %#x", vals)
	}
}

// TestAbortReleasesPendingWaiters: aborting a context drops its in-flight
// memory waiters so later fills to those lines are harmless.
func TestAbortReleasesPendingWaiters(t *testing.T) {
	e := New(testCfg(), 0, 4)
	pt := vm.NewPageTableShift(vm.NewFrameAllocator(), vm.LargePageShift)
	ch := buildChain(0, 0x4000000, 1)
	prime(e, 0, pt, 0x4000000, 0x5000000)
	e.InstallChain(ch, nil, 0, false, 10)
	acts := collect(e, 11, 20)
	var dep Action
	for _, a := range acts {
		if a.Kind == ActLLCRequest || a.Kind == ActDRAMRequest {
			dep = a
		}
	}
	if dep.Kind == 0 && dep.PAddr == 0 {
		t.Fatal("no dependent request issued")
	}
	e.AbortContext(ch, AbortConflict, 30)
	// The late fill must not produce actions for the dead context.
	if acts := e.FillMem(dep.PAddr>>6, 60); len(acts) != 0 {
		t.Errorf("fill after abort produced actions: %v", acts)
	}
	if e.BusyContexts() != 0 {
		t.Error("context leaked")
	}
}
