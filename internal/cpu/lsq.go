package cpu

import (
	"math"
	"slices"

	"repro/internal/isa"
	"repro/internal/mem/cache"
)

// issueLoad runs the load pipeline: store-to-load forwarding, TLB
// translation, L1D lookup, and on a miss an MSHR allocation plus an uncore
// request. issue() has already asked blockerSeq whether an older store is
// unresolved, so every older store lies in the resolved prefix sq[:sqRes].
// Returns false when the load had to be parked on MSHR pressure.
func (c *Core) issueLoad(idx int32) bool {
	e := c.slot(idx)
	e.vaddr = isa.AddrOf(&e.u, e.srcVal[0])
	if e.parkGen == c.fillGen {
		// No MSHR has completed since this load last failed to get one, so
		// the forwarding scan, the L1D lookup and the allocation would fail
		// as they did then (DESIGN.md §8.1). Only the TLB access has an
		// effect: its LRU stamp, or a walk if the page was evicted since.
		paddr, lat := c.translate(e)
		if lat > 0 {
			c.retryPure = false
		}
		e.paddr = paddr
		e.taint = false
		c.parkLoad(idx)
		return false
	}

	// A resolved older store to the same dword forwards its data.
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

	c.retryPure = false
	paddr, tlbLat := c.translate(e)
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
		e.parkGen = c.fillGen
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

// blockerSeq returns the dispatch seq of the first unresolved store in
// program order, or math.MaxUint64 when every store is resolved. A load is
// store-blocked (conservative disambiguation) exactly when this store is
// older than it. sq[:sqRes] are resolved (DESIGN.md §8.3), so the cursor
// only has to move past the stores resolved since the last call. Remote
// stores (executing at the EMC) resolve via the address-ring message; until
// then they block younger loads like any unresolved store.
func (c *Core) blockerSeq() uint64 {
	for c.sqRes < len(c.sq) && !c.storeUnresolved(c.sq[c.sqRes]) {
		c.sqRes++
	}
	if c.sqRes == len(c.sq) {
		return math.MaxUint64
	}
	return c.seq[c.sq[c.sqRes]]
}

// parkLoad undoes an issueOne attempt that failed on MSHR pressure and
// returns the load to the blocked list; it re-enters the ready queue on the
// next retry sweep.
func (c *Core) parkLoad(idx int32) {
	c.st[idx] = stReady
	c.rsCount++ // it still occupies its RS entry
	c.memBlocked[idx] = true
	c.blockedLd = append(c.blockedLd, idx)
}

// park appends a store-blocked load to the blocked list. If its copy in
// readyQ/blockedLd is the sole one it joins a run token at the tail of the
// list (see the "run tokens" block on Core); a duplicated load stays an
// individual entry.
func (c *Core) park(idx int32) {
	c.memBlocked[idx] = true
	if c.copies[idx] != 1 {
		c.blockedLd = append(c.blockedLd, idx)
		return
	}
	c.runNext[idx] = -1
	c.runTail[idx] = idx
	c.runMin[idx] = c.seq[idx]
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
	c.runMin[t] = min(c.runMin[t], c.runMin[h])
	c.runs--
	return list
}

// runValid reports whether every member of the run headed by h is still
// store-blocked: the first unresolved store is older than the oldest member.
func (c *Core) runValid(h int32) bool { return c.blockerSeq() < c.runMin[h] }

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

// splitShipped splits every run that holds a load TakeReadyChain just
// shipped to the EMC, so that no run member is remote.
func (c *Core) splitShipped() {
	if c.runs == 0 {
		return
	}
	c.readyQ = c.splitShippedIn(c.readyQ, false)
	c.blockedLd = c.splitShippedIn(c.blockedLd, true)
}

func (c *Core) splitShippedIn(list []int32, parked bool) []int32 {
	for i := 0; i < len(list); i++ {
		x := list[i]
		if x >= 0 {
			continue
		}
		for m := ^x; m >= 0; m = c.runNext[m] {
			if c.remote[m] {
				list = c.splitRun(list, i, parked)
				break
			}
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
