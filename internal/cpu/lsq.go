package cpu

import (
	"slices"

	"repro/internal/isa"
	"repro/internal/mem/cache"
)

// issueLoad runs the load pipeline: memory ordering against older stores,
// store-to-load forwarding, TLB translation, L1D lookup, and on a miss an
// MSHR allocation plus an uncore request. Returns false when the load had to
// be parked (unresolved older store, MSHR pressure).
func (c *Core) issueLoad(idx int32) bool {
	e := c.slot(idx)
	e.vaddr = isa.AddrOf(&e.u, e.srcVal[0])

	// Memory ordering against older stores. sq[:sqRes] are resolved
	// (DESIGN.md §8.3), so once the cursor has moved past the stores
	// resolved since, sq[sqRes] is the first unresolved store in program
	// order. If it is older than the load it blocks the load (conservative
	// disambiguation). Remote stores (executing at the EMC) resolve via the
	// address-ring message; until then they block younger loads like any
	// unresolved store.
	for c.sqRes < len(c.sq) && !c.storeUnresolved(c.sq[c.sqRes]) {
		c.sqRes++
	}
	if c.sqRes < len(c.sq) {
		if sIdx := c.sq[c.sqRes]; c.seq[sIdx] < c.seq[idx] {
			c.blockStore[idx] = sIdx
			c.blockSeq[idx] = c.seq[sIdx]
			c.parkLoad(idx)
			return false
		}
	}
	// Every older store lies in the resolved prefix; a resolved older store
	// to the same dword forwards its data.
	var forwardFrom *robEntry
	for _, sIdx := range c.sq[:c.sqRes] {
		if c.seq[sIdx] >= c.seq[idx] {
			break
		}
		if se := c.slot(sIdx); c.addrValid[sIdx] && se.vaddr == e.vaddr {
			forwardFrom = se // youngest older match wins
		}
	}
	if forwardFrom != nil {
		e.forwarded = true
		e.val = forwardFrom.val
		c.Stats.StoreForwards++
		c.schedule(idx, c.now+2)
		return true
	}

	paddr, tlbLat := c.translate(e.vaddr)
	e.paddr = paddr
	c.addrValid[idx] = true

	if c.l1d.Access(paddr, false) {
		e.val = e.u.Value
		e.taint = false // L1 hits launder miss taint
		c.schedule(idx, c.now+uint64(c.cfg.L1Latency+tlbLat))
		return true
	}
	if !e.l1Counted {
		e.l1Counted = true
		c.Stats.L1DMisses++
	}
	e.taint = false // set by NoteLLCMiss if the LLC also misses
	line := cache.LineAddr(paddr)
	m, merged, ok := c.msh.Allocate(line, c.now)
	if !ok {
		c.parkLoad(idx)
		return false
	}
	m.Waiters = append(m.Waiters, uint64(idx))
	if !merged {
		c.Stats.L1MissRequests++
		c.miss = MissInfo{
			CoreID:    c.cfg.ID,
			LineAddr:  line,
			VAddr:     e.vaddr,
			PC:        e.u.PC,
			IssuedAt:  c.now,
			Dependent: e.srcTaint[0],
		}
		c.uncore.LoadMiss(&c.miss)
	}
	return true
}

// NoteLLCMiss informs the core that an outstanding line request missed the
// LLC and is headed for DRAM. Loads waiting on the line become LLC misses:
// their results are tainted (dependents of this load are dependent misses),
// and loads whose own address was tainted are counted as dependent misses
// and train the dependence counter's producers.
func (c *Core) NoteLLCMiss(lineAddr, now uint64) {
	c.input(now)
	m := c.msh.Lookup(lineAddr)
	if m == nil {
		return
	}
	for _, w := range m.Waiters {
		idx := int32(w)
		e := c.slot(idx)
		if c.st[idx] != stIssued || c.ops[idx] != isa.OpLoad || cache.LineAddr(e.paddr) != lineAddr {
			continue
		}
		e.isLLCMiss = true
		e.taint = true
		e.taintSrc = idx
		e.taintSeq = c.seq[idx]
		c.Stats.LLCMissLoads++
		// Counter training (§4.2) happens here, when the LLC outcome is
		// known: a dependent miss is direct evidence that misses are having
		// dependent misses; a non-dependent miss is the counter-evidence.
		// (Retire-time training is impossible in practice: a source miss
		// retires within a cycle or two of its fill, long before its
		// dependent load can issue and be classified.)
		if e.srcTaint[0] {
			e.wasDependent = true
			c.Stats.DependentMissLoads++
			// Asymmetric update: dependent misses are the rare, decisive
			// evidence; one burst of streaming misses must not erase them.
			c.bumpDepCounter(2)
			if p := e.srcTaintSrc[0]; p >= 0 {
				if c.st[p] != stEmpty && c.seq[p] == e.srcTaintSeq[0] {
					c.slot(p).producedDepMiss = true
				}
			}
		} else {
			c.bumpDepCounter(-1)
		}
	}
}

// storeUnresolved reports whether the store queue entry in slot sIdx still
// has an unknown address (it blocks younger loads under conservative
// disambiguation). A store resolves only by issuing locally (issueOne) or by
// completing remotely (CompleteRemoteChain); RemoteMemExecuted fills in the
// address of a shipped store that is still stWaiting/stReady, so it resolves
// nothing.
func (c *Core) storeUnresolved(sIdx int32) bool {
	st := c.st[sIdx]
	return st == stWaiting || st == stReady ||
		(st == stIssued && !c.addrValid[sIdx])
}

// stillBlocked reports whether a parked load's memoized blocker (slot+seq) is
// still an unresolved store.
func (c *Core) stillBlocked(idx int32) bool {
	bs := c.blockStore[idx]
	return bs >= 0 && c.seq[bs] == c.blockSeq[idx] && c.storeUnresolved(bs)
}

// parkLoad undoes a failed issueOne attempt and returns the load to the
// blocked list; it re-enters the ready queue on the next retry sweep.
func (c *Core) parkLoad(idx int32) {
	c.st[idx] = stReady
	c.rsCount++ // it still occupies its RS entry
	c.park(idx)
}

// park appends a load to the blocked list. A load blocked on an unresolved
// older store whose only copy in readyQ/blockedLd is the one being moved
// joins a run token at the tail of the list instead (see the "run tokens"
// block on Core). Loads parked on MSHR pressure, and duplicated loads, stay
// individual entries.
func (c *Core) park(idx int32) {
	c.memBlocked[idx] = true
	if c.blockStore[idx] < 0 || c.copies[idx] != 1 {
		c.blockedLd = append(c.blockedLd, idx)
		return
	}
	c.runNext[idx] = -1
	c.runTail[idx] = idx
	c.runChecked[idx] = c.resolveGen
	c.runs++
	c.blockedLd = c.appendRun(c.blockedLd, idx)
}

// appendRun appends the run headed by h to list, concatenating it onto the
// list's last item when that is a run token too.
func (c *Core) appendRun(list []int32, h int32) []int32 {
	n := len(list)
	if n == 0 || list[n-1] >= 0 {
		return append(list, ^h)
	}
	t := ^list[n-1]
	c.runNext[c.runTail[t]] = h
	c.runTail[t] = c.runTail[h]
	if c.runChecked[h] < c.runChecked[t] {
		c.runChecked[t] = c.runChecked[h]
	}
	c.runs--
	return list
}

// runValid reports whether every member of the run headed by h is still a
// local load blocked on an unresolved store. The answer is memoized against
// resolveGen, so it costs a walk only after a store resolved or a chain
// shipped.
func (c *Core) runValid(h int32) bool {
	if c.runChecked[h] == c.resolveGen {
		return true
	}
	for m := h; m >= 0; m = c.runNext[m] {
		if c.remote[m] || !c.stillBlocked(m) {
			return false
		}
	}
	c.runChecked[h] = c.resolveGen
	return true
}

// splitRun replaces the run token at list[pos] by its members as individual
// entries, in order, with memBlocked set for the list they now sit in
// (parked: blockedLd). The old per-entry code then handles each member.
func (c *Core) splitRun(list []int32, pos int, parked bool) []int32 {
	buf := c.runBuf[:0]
	for m := ^list[pos]; m >= 0; m = c.runNext[m] {
		buf = append(buf, m)
		c.memBlocked[m] = parked
	}
	c.runBuf = buf
	c.runs--
	return slices.Replace(list, pos, pos+1, buf...)
}

// settleRuns splits every run that holds a member no longer store-blocked or
// shipped to the EMC, restoring the invariant that every run token is valid.
// Called after anything that bumps resolveGen.
func (c *Core) settleRuns() {
	if c.runs == 0 {
		return
	}
	c.readyQ = c.settleList(c.readyQ, false)
	c.blockedLd = c.settleList(c.blockedLd, true)
}

func (c *Core) settleList(list []int32, parked bool) []int32 {
	for i := 0; i < len(list); i++ {
		if x := list[i]; x < 0 && !c.runValid(^x) {
			list = c.splitRun(list, i, parked)
		}
	}
	return list
}

// retryBlockedLoads re-queues parked loads for issue; a run token moves as
// one item.
func (c *Core) retryBlockedLoads() {
	if len(c.blockedLd) == 0 {
		return
	}
	list := c.blockedLd
	c.blockedLd = c.blockedLd[:0]
	for _, idx := range list {
		if idx < 0 {
			c.readyQ = c.appendRun(c.readyQ, ^idx)
			continue
		}
		if c.st[idx] != stReady || !c.memBlocked[idx] {
			c.copies[idx]--
			continue
		}
		c.memBlocked[idx] = false
		c.readyQ = append(c.readyQ, idx)
	}
}
