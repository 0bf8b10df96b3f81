package cpu

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/isa"
)

// stallOnHead ticks a chain-enabled core over uops until it sits in a
// full-window stall behind its source miss, and returns the head slot.
func stallOnHead(t *testing.T, uops []isa.Uop) (*Core, int32) {
	t.Helper()
	c, fu := buildCore(t, uops, 2000, func(cfg *Config) { cfg.EMCEnabled = true })
	primeDepCounter(c)
	for cy := uint64(1); cy < 1500; cy++ {
		fu.tick(cy)
		c.Tick(cy)
		if c.FullWindowStalled() && c.ops[c.robHead] == isa.OpLoad {
			return c, int32(c.robHead)
		}
	}
	t.Fatal("core never stalled on its source miss")
	return nil, 0
}

// TestChainWalkNoCandidateAllocatesNothing: a walk that finds no chain (the
// miss feeds ALU ops but no dependent load) runs entirely in the core's
// scratch and allocates nothing.
func TestChainWalkNoCandidateAllocatesNothing(t *testing.T) {
	uops := chaseTrace()
	// Turn the dependent load into an ALU op: the chain reaches no miss.
	uops[4] = isa.Uop{Seq: uops[4].Seq, PC: uops[4].PC, Op: isa.OpAdd, Src1: 4,
		Src2: isa.RegNone, Dst: 5, Imm: 1}
	c, head := stallOnHead(t, uops)
	if ch := c.generateChain(head); ch != nil {
		t.Fatalf("walk found a chain of %d uops, want none", len(ch.Uops))
	}
	if n := testing.AllocsPerRun(100, func() { c.generateChain(head) }); n != 0 {
		t.Errorf("a walk that finds no chain made %v allocations, want 0", n)
	}
}

// TestChainWalkAllocatesOnlyTheChain: a successful walk allocates the Chain,
// its uop slice and its value block, nothing else.
func TestChainWalkAllocatesOnlyTheChain(t *testing.T) {
	c, head := stallOnHead(t, chaseTrace())
	if c.generateChain(head) == nil {
		t.Fatal("no chain at the stalled head")
	}
	if n := testing.AllocsPerRun(100, func() { c.generateChain(head) }); n > 3 {
		t.Errorf("a successful walk made %v allocations, want <= 3", n)
	}
}

// TestChainWalkEpochWrap: when the walk epoch wraps, the membership stamps
// are cleared, so stamps left by the walks of an earlier epoch cycle cannot
// pose as members of the first walk after the wrap.
func TestChainWalkEpochWrap(t *testing.T) {
	c, head := stallOnHead(t, chaseTrace())
	want := c.generateChain(head)
	if want == nil {
		t.Fatal("no chain at the stalled head")
	}
	// Every slot carries the stamp the post-wrap walk will use.
	for i := range c.walkMark {
		c.walkMark[i] = 1
	}
	c.walkEpoch = math.MaxUint32
	got := c.generateChain(head)
	if c.walkEpoch != 1 {
		t.Fatalf("walkEpoch = %d after the wrap, want 1", c.walkEpoch)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walk after the epoch wrap:\n got %+v\nwant %+v", got, want)
	}
}
