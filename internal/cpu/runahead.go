package cpu

import (
	"repro/internal/isa"
	"repro/internal/mem/cache"
)

// Runahead execution (Dundas & Mudge ICS'97, Mutlu et al. HPCA'03) is the
// paper's main pre-execution counterpoint: when the core stalls with a full
// window on an LLC miss, runahead pseudo-executes past the blocking miss,
// poisoning (INV) every value derived from it, and issues prefetches for the
// loads whose addresses remain computable — the *independent* misses. It
// cannot touch dependent misses (their addresses are INV), which is exactly
// the gap the Enhanced Memory Controller fills. This implementation exists
// so the two mechanisms (and their combination) can be compared on the same
// substrate.
//
// Trace-driven realization: on a full-window stall the engine walks the
// remaining window and then peeks ahead in the uop feed, evaluating uops
// functionally over a copy of the register state with an INV bit per
// register. A load whose base is valid and whose line is not already on chip
// becomes a prefetch, paced at the core's issue width; a load whose line
// would miss poisons its destination (runahead does not wait for memory).
// Architectural state is never touched, so "exiting" runahead is free, as in
// real designs where the checkpoint restore overlaps the fill.

// RunaheadConfig sizes the runahead engine.
type RunaheadConfig struct {
	Enabled bool
	// Depth bounds how many uops past the window tail one episode examines;
	// at most trace.PeekLimit.
	Depth int
	// MaxPrefetches bounds prefetches per episode.
	MaxPrefetches int
}

// DefaultRunaheadConfig mirrors common runahead studies: run ~256 uops ahead.
func DefaultRunaheadConfig() RunaheadConfig {
	return RunaheadConfig{Enabled: false, Depth: 256, MaxPrefetches: 32}
}

// RunaheadStats counts engine activity.
type RunaheadStats struct {
	Episodes   uint64
	UopsWalked uint64
	Prefetches uint64
	Poisoned   uint64 // loads skipped because their address was INV
}

// maybeRunahead enters a runahead episode when the stall trigger holds and
// this head has not been run ahead from yet.
func (c *Core) maybeRunahead() {
	if !c.ra.Enabled {
		return
	}
	if !c.FullWindowStalled() {
		return
	}
	headSeq := c.seq[c.robHead]
	if headSeq == c.lastRunahead {
		return
	}
	c.lastRunahead = headSeq
	c.runaheadEpisode(int32(c.robHead))
}

// regView is the runahead engine's speculative register state: the youngest
// known value per architectural register, with an INV bit for values derived
// from outstanding misses.
type regView struct {
	val [isa.NumArchRegs]uint64
	inv [isa.NumArchRegs]bool
}

// snapshotRegs builds the view the runahead engine starts from: committed
// architectural values overlaid with the youngest completed in-flight
// producer per register; registers whose youngest producer is incomplete
// (including the blocking miss) start INV.
func (c *Core) snapshotRegs() regView {
	var v regView
	for r := 0; r < isa.NumArchRegs; r++ {
		if prod := c.renameMap[r]; prod >= 0 {
			if c.st[prod] == stDone {
				v.val[r] = c.slot(prod).val
			} else {
				v.inv[r] = true
			}
		} else {
			v.val[r] = c.archVal[r]
		}
	}
	return v
}

// runaheadEpisode pseudo-executes ahead of the stall, issuing prefetches for
// independent loads. Prefetch issue is paced at the core's issue width:
// the i-th examined uop cannot issue its prefetch before now + i/width.
func (c *Core) runaheadEpisode(srcIdx int32) {
	c.RunaheadStats.Episodes++
	v := c.snapshotRegs()
	// The blocking miss's destination is INV by construction (not done).
	issued := 0
	walked := 0

	process := func(u *isa.Uop) bool {
		walked++
		c.RunaheadStats.UopsWalked++
		delay := uint64(walked / c.cfg.IssueWidth)
		switch u.Op.Class() {
		case isa.ClassLoad:
			base := u.Src1
			if base.Valid() && v.inv[base] {
				c.RunaheadStats.Poisoned++
				if u.HasDst() {
					v.inv[u.Dst] = true
				}
				break
			}
			addr := isa.AddrOf(u, v.val[base])
			hit, poisonDst := c.runaheadTouch(addr, delay)
			if hit {
				// On-chip data: runahead sees the real value.
				if u.HasDst() {
					v.val[u.Dst] = u.Value
					v.inv[u.Dst] = false
				}
			} else {
				issued++
				c.RunaheadStats.Prefetches++
				if u.HasDst() {
					v.inv[u.Dst] = poisonDst
				}
			}
		case isa.ClassStore, isa.ClassBranch, isa.ClassNop:
			// Runahead drops stores and follows the predicted branch stream.
		default:
			if u.HasDst() {
				inv := u.Src1.Valid() && v.inv[u.Src1] || u.Src2.Valid() && v.inv[u.Src2]
				v.inv[u.Dst] = inv
				if !inv {
					v.val[u.Dst] = isa.EvalUop(u, readReg(&v, u.Src1), readReg(&v, u.Src2))
				}
			}
		}
		return issued < c.ra.MaxPrefetches && walked < c.ra.Depth
	}

	// Phase 1: the not-yet-completed tail of the window (beyond the head).
	for off := 1; off < c.robCount; off++ {
		idx := c.robIndexAt(off)
		if st := c.st[idx]; st == stDone || st == stEmpty {
			continue
		}
		u := c.slot(idx).u
		if !process(&u) {
			return
		}
	}
	// Phase 2: uops the front end has not fetched yet.
	for i := 0; ; i++ {
		u, ok := c.peek(i)
		if !ok {
			return
		}
		if !process(&u) {
			return
		}
	}
}

func readReg(v *regView, r isa.Reg) uint64 {
	if !r.Valid() {
		return 0
	}
	return v.val[r]
}

// runaheadTouch checks whether addr's line is already on chip (L1 hit or an
// outstanding fill) and otherwise issues a prefetch toward the LLC/DRAM.
// It reports (onChip, poisonDst): a prefetched load's destination is INV
// (runahead does not wait for the data).
func (c *Core) runaheadTouch(vaddr uint64, delay uint64) (onChip, poisonDst bool) {
	paddr := c.pt.Translate(vaddr)
	if c.l1d.Probe(paddr) {
		return true, false
	}
	line := cache.LineAddr(paddr)
	if c.msh.Lookup(line) != nil {
		// Already in flight; the demand fill will cover it.
		return false, true
	}
	c.miss = MissInfo{
		CoreID:   c.cfg.ID,
		LineAddr: line,
		VAddr:    vaddr,
		IssuedAt: c.now + delay,
		Prefetch: true,
	}
	c.uncore.LoadMiss(&c.miss)
	return false, true
}

// peek looks ahead in the uop feed without consuming (pendingFetch first).
func (c *Core) peek(i int) (isa.Uop, bool) {
	if c.pendingFetch != nil {
		if i == 0 {
			return *c.pendingFetch, true
		}
		i--
	}
	return c.feed.Peek(i)
}
