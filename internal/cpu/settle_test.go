package cpu

import (
	"testing"

	"repro/internal/isa"
)

// idleTrace numbers a hand-built trace. PCs loop within one cache line, so
// the I-cache warms at once.
func idleTrace(uops ...isa.Uop) []isa.Uop {
	for i := range uops {
		uops[i].Seq = uint64(i)
		uops[i].PC = 0x400000 + uint64(i%16*4)
	}
	return uops
}

// fillerAdds returns n independent adds.
func fillerAdds(n int) []isa.Uop {
	out := make([]isa.Uop, n)
	for i := range out {
		out[i] = isa.Uop{Op: isa.OpAdd, Src1: 7, Src2: isa.RegNone, Dst: 7, Imm: 1}
	}
	return out
}

// missLoad loads r2 from the line r1 points at; the fake memory reports an
// LLC miss.
var missLoad = isa.Uop{Op: isa.OpLoad, Src1: 1, Src2: isa.RegNone, Dst: 2,
	Addr: 0x4000000, Value: 0x99}

// creditedCounters is everything an idle Tick advances: Stats and the two
// per-cycle debug counters.
type creditedCounters struct {
	Stats                 Stats
	ChainBusy, CounterLow uint64
}

func creditedOf(c *Core) creditedCounters {
	return creditedCounters{c.Stats, c.DbgChainBusy, c.DbgCounterLow}
}

// TestSettleMatchesPerCycleCredit parks a core in an idle state, then
// credits a gap of skipped cycles three ways: in one catch-up (Settle), by
// one skipIdle(t, 1) per cycle, and by actually ticking every cycle. All
// three must agree on Stats and the debug counters, and a Tick after the
// catch-up must not count the gap again.
func TestSettleMatchesPerCycleCredit(t *testing.T) {
	const gap = 100
	mov := movImm(1, 0x4000000)
	cases := []struct {
		name  string
		uops  []isa.Uop
		tweak func(*Config)
		// idle says the core sits in the state the case is about.
		idle func(*Core) bool
		// credited reads the per-cycle counter the state advances.
		credited func(*Core) uint64
	}{
		{"full-window-miss-head", idleTrace(append([]isa.Uop{mov, missLoad}, fillerAdds(400)...)...),
			func(c *Config) { c.EMCEnabled = true },
			(*Core).FullWindowStalled,
			func(c *Core) uint64 { return c.Stats.FullWindowStalls + c.DbgCounterLow }},
		{"full-window-chains-busy", idleTrace(append([]isa.Uop{mov, missLoad}, fillerAdds(400)...)...),
			func(c *Config) { c.EMCEnabled = true; c.MaxActiveChains = 0 },
			(*Core).FullWindowStalled,
			func(c *Core) uint64 { return c.Stats.ROBFullCycles + c.DbgChainBusy }},
		{"fetch-hold", idleTrace(append([]isa.Uop{mov, missLoad,
			{Op: isa.OpBranch, Src1: 2, Src2: isa.RegNone, Dst: isa.RegNone, Taken: true, Mispredicted: true}},
			fillerAdds(20)...)...),
			nil,
			func(c *Core) bool { return c.fetchHold >= 0 },
			func(c *Core) uint64 { return c.Stats.FetchStallCycles }},
		{"fetch-blocked", idleTrace(append([]isa.Uop{mov,
			{Op: isa.OpBranch, Src1: 1, Src2: isa.RegNone, Dst: isa.RegNone, Taken: true, Mispredicted: true}},
			fillerAdds(20)...)...),
			func(c *Config) { c.MispredictPenalty = 2 * gap },
			func(c *Core) bool { return c.fetchBlockedTill > c.now+gap+1 },
			func(c *Core) uint64 { return c.Stats.FetchStallCycles }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// lazy catches up in one Settle, perCycle gets one skipIdle
			// per cycle, ticked runs every Tick of the gap.
			lazy, _ := buildCore(t, tc.uops, 1000, tc.tweak)
			perCycle, _ := buildCore(t, tc.uops, 1000, tc.tweak)
			ticked, _ := buildCore(t, tc.uops, 1000, tc.tweak)
			tick := func(cy uint64, cs ...*Core) {
				for _, c := range cs {
					c.uncore.(*fakeUncore).tick(cy)
					c.Tick(cy)
				}
			}
			var t0 uint64
			for cy := uint64(1); t0 == 0; cy++ {
				if cy > 2000 {
					t.Fatal("the core never reached the idle state")
				}
				tick(cy, lazy, perCycle, ticked)
				if tc.idle(lazy) && lazy.NextEvent(cy) > cy+gap+1 {
					t0 = cy
				}
			}
			for _, c := range []*Core{lazy, perCycle, ticked} {
				for _, f := range c.uncore.(*fakeUncore).fills {
					if f.at <= t0+gap+1 {
						t.Fatalf("a fill is due at %d, inside the gap after %d", f.at, t0)
					}
				}
			}
			before := tc.credited(lazy)

			lazy.Settle(t0 + gap)
			for cy := t0; cy < t0+gap; cy++ {
				perCycle.skipIdle(cy, 1)
			}
			for cy := t0 + 1; cy <= t0+gap; cy++ {
				tick(cy, ticked)
			}
			got := creditedOf(lazy)
			if want := creditedOf(perCycle); got != want {
				t.Fatalf("one catch-up of %d cycles after %d:\n got  %+v\n want %+v (per-cycle skipIdle)", gap, t0, got, want)
			}
			if want := creditedOf(ticked); got != want {
				t.Fatalf("one catch-up of %d cycles after %d:\n got  %+v\n want %+v (every Tick run)", gap, t0, got, want)
			}
			if got.Stats.Cycles != t0+gap || tc.credited(lazy)-before < gap {
				t.Fatalf("catch-up credited %d cycles and %d of the state's counter, want %d of each",
					got.Stats.Cycles-t0, tc.credited(lazy)-before, gap)
			}

			// The next Tick counts its own cycle only.
			tick(t0+gap+1, lazy, ticked)
			if got, want := creditedOf(lazy), creditedOf(ticked); got != want {
				t.Fatalf("Tick after the catch-up:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}
