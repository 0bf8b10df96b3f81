package cpu

import (
	"testing"

	"repro/internal/isa"
)

// TestChainCancelledWhenStale: if the source fill arrives between the walk
// and transmission (so chain members start executing locally), the chain
// must be cancelled rather than shipped.
func TestChainCancelledWhenStale(t *testing.T) {
	uops := chaseTrace()
	// Short miss latency: the fill lands during chain assembly.
	c, fu := buildCore(t, uops, 60, func(cfg *Config) { cfg.EMCEnabled = true })
	primeDepCounter(c)
	var got *Chain
	for cy := uint64(1); cy < 4000; cy++ {
		fu.tick(cy)
		c.Tick(cy)
		if ch := c.TakeReadyChain(cy); ch != nil {
			got = ch
			c.AbortRemoteChain(ch, cy+1)
		}
		if c.Finished() {
			break
		}
	}
	if !c.Finished() {
		t.Fatal("core did not finish")
	}
	// Either the chain was cancelled (preferred with a fast fill), or it was
	// taken before the fill; both must preserve forward progress and the
	// final value.
	if c.Stats.ChainCancels == 0 && got == nil && c.Stats.ChainsGenerated > 0 {
		t.Error("generated chain neither cancelled nor taken")
	}
	if c.archVal[6] != 0x99+1 {
		t.Errorf("r6 = %#x, want %#x", c.archVal[6], 0x99+1)
	}
}

// TestChainExcludesFPAndBranches: the walk admits only EMC-allowed opcodes.
func TestChainExcludesFPAndBranches(t *testing.T) {
	var uops []isa.Uop
	add := func(u isa.Uop) {
		u.Seq = uint64(len(uops))
		u.PC = 0x400000 + uint64(len(uops)%16*4)
		uops = append(uops, u)
	}
	add(movImm(1, 0x4000000))
	add(isa.Uop{Op: isa.OpLoad, Src1: 1, Src2: isa.RegNone, Dst: 2,
		Addr: 0x4000000, Value: 0x5000000})
	// FP op consuming the miss: EMC cannot execute it.
	add(isa.Uop{Op: isa.OpFAdd, Src1: 2, Src2: 2, Dst: 3})
	// Integer op consuming the miss: eligible.
	add(isa.Uop{Op: isa.OpAdd, Src1: 2, Src2: isa.RegNone, Dst: 4, Imm: 0})
	// Dependent load off the integer path.
	add(isa.Uop{Op: isa.OpLoad, Src1: 4, Src2: isa.RegNone, Dst: 5,
		Addr: 0x5000000, Value: 9})
	for i := 0; i < 300; i++ {
		add(isa.Uop{Op: isa.OpAdd, Src1: 0, Src2: isa.RegNone, Dst: 0, Imm: 1})
	}
	c, fu := buildCore(t, uops, 400, func(cfg *Config) { cfg.EMCEnabled = true })
	primeDepCounter(c)
	var ch *Chain
	for cy := uint64(1); cy < 600 && ch == nil; cy++ {
		fu.tick(cy)
		c.Tick(cy)
		ch = c.TakeReadyChain(cy)
	}
	if ch == nil {
		t.Fatal("no chain generated")
	}
	for _, cu := range ch.Uops {
		if !cu.U.Op.EMCAllowed() {
			t.Errorf("non-EMC opcode %v leaked into the chain", cu.U.Op)
		}
	}
	found := false
	for _, cu := range ch.Uops {
		if cu.U.Op == isa.OpLoad && cu.U.Addr == 0x5000000 {
			found = true
		}
	}
	if !found {
		t.Error("dependent load missing from the chain")
	}
}
