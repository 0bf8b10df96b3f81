package sim

import (
	"repro/internal/cpu"
	"repro/internal/emc"
	"repro/internal/mem/cache"
	"repro/internal/mem/dram"
	"repro/internal/obs"
)

// mcAdmit admits a read request at a memory controller, merging requests to
// the same in-flight line and retrying when the memory queue is full.
func (s *System) mcAdmit(mc *mcNode, r *memReq) {
	r.mcArrive = s.now
	if r.trace != nil {
		s.tr.StampEvent(r.trace, obs.StageMCReach, s.now)
	}
	if p, ok := mc.pending[r.line]; ok {
		s.mcAttach(p, r)
		return
	}
	p := s.allocPending(r.line)
	s.mcAttach(p, r)
	mc.pending[r.line] = p
	dr := mc.ctrl.NewRequest()
	dr.LineAddr = s.mcLine(r.line)
	dr.CoreID = r.core
	dr.FromEMC = r.fromEMC
	dr.Prefetch = r.prefetch
	dr.Payload = p
	if !mc.ctrl.Enqueue(dr, s.now) {
		mc.retryQ = append(mc.retryQ, dr)
	}
}

func (s *System) mcAttach(p *mcPending, r *memReq) {
	switch {
	case r.fromEMC && s.mcs[r.emcMC] == s.mcOf(r.line):
		// Local EMC request: fill directly at this controller.
		p.emcReqs = append(p.emcReqs, r)
	case r.fromEMC:
		// Remote EMC request (cross-channel, §4.4).
		p.cross = append(p.cross, r)
	default:
		p.reqs = append(p.reqs, r)
	}
}

// mcWrite admits a DRAM write (write-through store miss or LLC writeback).
func (s *System) mcWrite(mc *mcNode, r *memReq) {
	dr := mc.ctrl.NewRequest()
	dr.LineAddr = s.mcLine(r.line)
	dr.Write = true
	dr.CoreID = -1
	if !mc.ctrl.Enqueue(dr, s.now) {
		mc.retryQ = append(mc.retryQ, dr)
	}
}

// mcTick advances one controller: queue retries, DRAM, completions, EMC.
// With gate set, the DRAM controller ticks only when its (memoized)
// NextEvent is due and the EMC only when its cached wake is; a skipped Tick
// would be a no-op.
func (s *System) mcTick(mc *mcNode, gate bool) {
	// Retry rejected enqueues in order.
	for mc.retryHead < len(mc.retryQ) {
		dr := mc.retryQ[mc.retryHead]
		if !mc.ctrl.Enqueue(dr, s.now) {
			break
		}
		mc.retryQ[mc.retryHead] = nil
		mc.retryHead++
	}
	if mc.retryHead == len(mc.retryQ) && mc.retryHead > 0 {
		mc.retryQ = mc.retryQ[:0]
		mc.retryHead = 0
	}

	if !gate || mc.ctrl.NextEvent(s.now-1) <= s.now {
		for _, done := range mc.ctrl.Tick(s.now) {
			s.mcComplete(mc, done)
			mc.ctrl.Release(done)
		}
	}

	switch {
	case mc.emc == nil:
	case gate && mc.emc.Wake() > s.now:
		s.gated++
	default:
		s.emcActions(mc, mc.emc.Tick(s.now))
	}
}

// mcComplete routes a finished DRAM read to its waiters.
func (s *System) mcComplete(mc *mcNode, dr *dram.Request) {
	p, _ := dr.Payload.(*mcPending)
	if p == nil {
		return
	}
	delete(mc.pending, p.line)

	// Account traffic by class.
	switch {
	case dr.FromEMC:
		s.st.DRAMEMCReads++
		if dr.RowHit {
			s.st.EMCRowHits++
		}
	case dr.Prefetch:
		s.st.DRAMPrefetch++
	default:
		s.st.DRAMDemandReads++
		if dr.RowHit {
			s.st.DemandRowHits++
		}
	}

	// MagicChains diagnostic: trigger queued chains instantly.
	if s.cfg.MagicChains && len(mc.magicQ) > 0 {
		keep := mc.magicQ[:0]
		for _, ch := range mc.magicQ {
			if ch.SourceLine == p.line {
				s.magicComplete(ch)
			} else {
				keep = append(keep, ch)
			}
		}
		mc.magicQ = keep
	}

	// Every line crossing this controller lands in the EMC data cache and
	// may trigger a waiting chain (§4.1.3).
	if mc.emc != nil {
		_, evicted, had := mc.emc.OnDRAMFill(p.line, s.now)
		if had {
			s.sliceOf(evicted).c.SetEMCBit(evicted<<cache.LineShift, false)
		}
	}

	// Timing segments onto every waiter.
	stamp := func(r *memReq) {
		r.mcOut = false
		r.dramIssued = dr.IssuedAt
		r.dramDone = s.now
		if r.trace != nil {
			s.tr.StampEvent(r.trace, obs.StageDRAMIssue, dr.IssuedAt)
			s.tr.StampEvent(r.trace, obs.StageDRAMDone, s.now)
		}
	}

	// Slice-path waiters (demand, prefetch): one fill message to the slice.
	if len(p.reqs) > 0 || (dr.Prefetch && len(p.emcReqs) == 0 && len(p.cross) == 0) {
		var lead *memReq
		if len(p.reqs) > 0 {
			lead = p.reqs[0]
			for _, r := range p.reqs {
				stamp(r)
			}
		} else {
			lead = s.allocReq()
			lead.line, lead.core, lead.prefetch, lead.issuedAt = p.line, dr.CoreID, true, s.now
			stamp(lead)
		}
		s.sendData(mc.stop, s.sliceOf(p.line).stop, msg{kind: mFillToSlice, req: lead})
	} else if dr.FromEMC {
		// EMC-only fill still installs in the LLC (demand semantics).
		fill := s.allocReq()
		fill.line, fill.core, fill.fromEMC, fill.emcMC, fill.issuedAt = p.line, dr.CoreID, true, mc.id, s.now
		stamp(fill)
		s.sendData(mc.stop, s.sliceOf(p.line).stop, msg{kind: mFillToSlice, req: fill})
	}

	// Local EMC waiters.
	for _, r := range p.emcReqs {
		stamp(r)
		s.emcFill(mc, r)
		s.freeReq(r)
	}
	// Cross-MC EMC waiters: data rides the ring back to the owning EMC.
	for _, r := range p.cross {
		stamp(r)
		s.sendData(mc.stop, s.mcs[r.emcMC].stop, msg{kind: mCrossData, req: r})
	}
	s.freePending(p)
}

// emcFill completes an EMC memory request and accounts its latency (Fig. 18).
func (s *System) emcFill(mc *mcNode, r *memReq) {
	if mc.emc == nil {
		return
	}
	s.st.EMCMissCount++
	s.st.EMCMissHist.Add(s.now - r.issuedAt)
	s.st.EMCMissTotal += s.now - r.issuedAt
	if r.dramIssued >= r.mcArrive && r.mcArrive > 0 {
		s.st.EMCMissQueue += r.dramIssued - r.mcArrive
	}
	if r.trace != nil {
		// An LLC-path launcher is delivered twice (directly and via the
		// slice); each delivery stamps a fill and is attributed, matching
		// the EMCMissCount/EMCMissTotal accounting above.
		s.tr.StampEvent(r.trace, obs.StageFill, s.now)
		s.tr.Attr().AddStamps(obs.SrcEMC, obs.Stamps{
			Issued: r.issuedAt, SliceReach: r.sliceArrive, SliceDone: r.sliceDone,
			MCReach: r.mcArrive, DRAMIssued: r.dramIssued, DRAMDone: r.dramDone,
			Fill: s.now,
		})
	}
	s.emcActions(mc, mc.emc.FillMem(r.line, s.now))
}

// installChain delivers a fully received chain packet to the EMC.
func (s *System) installChain(mc *mcNode, ch *cpu.Chain) {
	if mc.emc == nil {
		s.cores[ch.CoreID].AbortRemoteChain(ch)
		return
	}
	// PTE piggyback: the source page's translation rides along if its
	// EMCResident bit says it is absent at the EMC (§4.1.4).
	pte := s.pts[ch.CoreID].Lookup(ch.SourceVA)
	var ship = pte
	if pte.EMCResident {
		ship = nil
	}
	outstanding := mc.pending[ch.SourceLine] != nil
	if s.cfg.MagicChains {
		// Diagnostic mode: execute the chain functionally and deliver the
		// live-outs the moment the source data is at the controller.
		if outstanding {
			mc.magicQ = append(mc.magicQ, ch)
		} else {
			s.magicComplete(ch)
		}
		return
	}
	if !mc.emc.InstallChain(ch, ship, ch.SourceVA>>s.cfg.PageShift, outstanding, s.now) {
		s.st.ChainRejects++
		s.cores[ch.CoreID].AbortRemoteChain(ch)
		return
	}
	s.activeChains[ch] = mc.id
}

// magicComplete functionally evaluates a chain and completes it at the core
// immediately (MagicChains diagnostic mode).
func (s *System) magicComplete(ch *cpu.Chain) {
	s.cores[ch.CoreID].CompleteRemoteChain(ch, ch.Evaluate(), s.now)
}

// emcActions converts EMC actions into ring traffic and DRAM requests.
func (s *System) emcActions(mc *mcNode, acts []emc.Action) {
	for _, a := range acts {
		switch a.Kind {
		case emc.ActLLCRequest:
			s.emcLineRequest(mc, a, false)
		case emc.ActDRAMRequest:
			s.emcLineRequest(mc, a, true)
		case emc.ActMemExecuted:
			s.sendCtrl(mc.stop, s.coreStop[a.Core],
				msg{kind: mMemExec, chain: a.Chain, uopIdx: a.UopIdx, vaddr: a.VAddr,
					core: a.Core, mc: mc.id})
		case emc.ActChainDone:
			flits := (len(a.Values)*8 + 63) / 64
			if flits < 1 {
				flits = 1
			}
			// Only the last flit carries the completion.
			for f := 0; f < flits-1; f++ {
				s.sendData(mc.stop, s.coreStop[a.Core],
					msg{kind: mChainDone, chain: a.Chain, values: nil, core: a.Core, mc: mc.id})
			}
			s.sendData(mc.stop, s.coreStop[a.Core],
				msg{kind: mChainDone, chain: a.Chain, values: a.Values, core: a.Core, mc: mc.id})
		case emc.ActChainAbort:
			s.sendCtrl(mc.stop, s.coreStop[a.Core],
				msg{kind: mChainAbort, chain: a.Chain, reason: a.Reason,
					vaddr: a.MissPage, core: a.Core, mc: mc.id})
		}
	}
}

// emcLineRequest launches an EMC load: either through the LLC (predicted
// on-chip) or directly to DRAM (predicted miss), with the directory probe
// safety net for the direct path.
func (s *System) emcLineRequest(mc *mcNode, a emc.Action, direct bool) {
	line := cache.LineAddr(a.PAddr)
	r := s.allocReq()
	r.line, r.core, r.pc, r.vaddr = line, a.Core, a.PC, a.VAddr
	r.fromEMC, r.emcMC, r.issuedAt = true, mc.id, s.now
	if s.tr != nil {
		r.trace = s.tr.Start(obs.SrcEMC, r.core, r.line, r.pc, true, s.now)
	}
	if direct {
		// Off-critical-path directory probe: a line present in the LLC must
		// be served from there (it may be dirty); counts as a mispredict.
		sl := s.sliceOf(line)
		if present, _ := sl.c.ProbeDirty(line << cache.LineShift); present {
			s.st.EMCPredWrong++
			direct = false
		}
	}
	if !direct {
		sl := s.sliceOf(line)
		s.sendCtrl(mc.stop, sl.stop, msg{kind: mEMCLLCReq, req: r})
		return
	}
	owner := s.mcOf(line)
	if owner == mc {
		s.mcAdmit(mc, r)
		return
	}
	// Cross-channel dependency: issue directly to the other controller
	// without bouncing through the core (§4.4).
	s.sendCtrl(mc.stop, owner.stop, msg{kind: mCrossReq, req: r, mc: owner.id})
}
