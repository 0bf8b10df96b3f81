package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
)

// mshrTrace is a miss-heavy trace for a small TLB: independent loads, each
// to a fresh line, over a few "hot" pages that shift every few hundred
// uops, mixed with stores to any of pages pages and with adds. Loads pile up
// on a few MSHRs, and the stores keep moving the TLB's LRU order under
// them.
func mshrTrace(rng *rand.Rand, n, pages int) []isa.Uop {
	page := func(p int) uint64 { return uint64(p) << vm.LargePageShift }
	uops := make([]isa.Uop, n)
	var line uint64
	hot := []int{0, 1}
	for i := range uops {
		if i%300 == 0 {
			hot = []int{rng.Intn(pages), rng.Intn(pages)}
		}
		switch r := rng.Intn(10); {
		case r < 5:
			line++
			a := page(hot[rng.Intn(len(hot))]) + line%(1<<15)*64
			uops[i] = isa.Uop{Op: isa.OpLoad, Src1: isa.RegNone, Src2: isa.RegNone,
				Dst: isa.Reg(2 + i%4), Imm: int64(a), Addr: a, Value: uint64(i)}
		case r < 7:
			a := page(rng.Intn(pages)) + uint64(rng.Intn(1<<15))*64
			uops[i] = isa.Uop{Op: isa.OpStore, Src1: isa.RegNone, Src2: 7,
				Dst: isa.RegNone, Imm: int64(a), Addr: a}
		default:
			uops[i] = isa.Uop{Op: isa.OpAdd, Src1: 7, Src2: isa.RegNone, Dst: 7, Imm: 1}
		}
	}
	return idleTrace(uops...)
}

// TestMSHRParkedSleepMatchesEveryCycle runs two identical cores side by
// side: one ticked every cycle, one ticked only when its Wake() is due, as
// the system's wake gate does. Each core has its own fake memory, so both
// get their fills at the cycles their own misses set; the cores' Stats must
// be equal after every cycle with a fill and at the end.
//
// The gated core sleeps with loads parked on MSHR pressure only after a Tick
// whose every TLB access was such a load's retry and hit (retryPure): a
// sleep after any other Tick skips retries whose stamps would have changed
// the LRU order, and with TLBs of 2-4 entries over 8 pages a later walk then
// evicts a different page. A Fill that did not advance fillGen leaves parked
// loads failing forever, and the cores never finish.
func TestMSHRParkedSleepMatchesEveryCycle(t *testing.T) {
	const maxCycles = 200_000
	for _, tlb := range []int{2, 3, 4} {
		for _, mshrs := range []int{2, 3, 4} {
			for seed := int64(1); seed <= 2; seed++ {
				name := fmt.Sprintf("tlb%d-mshr%d-seed%d", tlb, mshrs, seed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					uops := mshrTrace(rand.New(rand.NewSource(seed)), 2500, 8)
					tweak := func(c *Config) { c.TLBEntries, c.MSHRs = tlb, mshrs }
					ref, refMem := buildCore(t, uops, 90, tweak)
					gated, gatedMem := buildCore(t, uops, 90, tweak)
					slept := 0 // cycles the gated core skipped with an MSHR-parked load
					for cy := uint64(1); ; cy++ {
						if cy > maxCycles {
							t.Fatalf("cores did not finish in %d cycles (retired %d and %d)",
								maxCycles, ref.Stats.Retired, gated.Stats.Retired)
						}
						filled := len(refMem.fills) + len(gatedMem.fills)
						refMem.tick(cy)
						gatedMem.tick(cy)
						filled -= len(refMem.fills) + len(gatedMem.fills)
						ref.Tick(cy)
						if gated.Wake() <= cy {
							gated.Tick(cy)
						} else if mshrParked(gated) {
							slept++
						}
						done := ref.Finished() && gated.Finished()
						if filled > 0 || done {
							gated.Settle(cy)
							if ref.Stats != gated.Stats {
								t.Fatalf("cycle %d: gated core diverged\n got  %+v\n want %+v", cy, gated.Stats, ref.Stats)
							}
						}
						if done {
							break
						}
					}
					if slept == 0 {
						t.Fatal("the gated core never slept with a load parked on MSHR pressure")
					}
					if ref.Stats.TLBWalks == 0 {
						t.Fatal("the trace never walked the page table")
					}
				})
			}
		}
	}
}

// mshrParked reports whether a load parked on MSHR pressure sits in
// blockedLd.
func mshrParked(c *Core) bool {
	for _, idx := range c.blockedLd {
		if idx >= 0 && c.st[idx] == stReady && c.memBlocked[idx] && c.slot(idx).parkGen == c.fillGen {
			return true
		}
	}
	return false
}
