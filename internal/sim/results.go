package sim

import (
	"fmt"
	"hash/fnv"

	"repro/internal/cpu"
	"repro/internal/emc"
	"repro/internal/energy"
	"repro/internal/mem/dram"
	"repro/internal/obs"
)

// CoreResult is one core's outcome.
type CoreResult struct {
	Benchmark string
	Stats     cpu.Stats
	IPC       float64
	// Cycles is the cycle at which this core retired its budget (equal to
	// the run length for the slowest core).
	Cycles uint64
}

// Result is everything a run produces; the figure harness derives the
// paper's metrics from these fields.
type Result struct {
	Config Config
	Cycles uint64

	Cores []CoreResult
	Sys   RunStats

	DRAM []dram.Stats // per controller
	EMC  []emc.Stats  // per controller (empty entries when disabled)

	CtrlRingMsgs uint64
	DataRingMsgs uint64
	CtrlRingHops uint64
	DataRingHops uint64

	PrefetchIssued uint64
	PrefetchUseful uint64

	Energy energy.Breakdown

	// Obs carries the tracing/attribution report when Config.Obs.Enabled
	// (nil otherwise). It is observational — deliberately excluded from
	// Hash, which covers simulation outcomes only.
	Obs *obs.Report
}

// Hash returns an FNV-1a digest over every simulation outcome in the Result
// (all fields except Config, which carries function values). Two runs of the
// same configuration must produce the same hash regardless of whether the
// event-horizon scheduler skipped cycles — this is the determinism guard
// cycle skipping is tested against.
func (r *Result) Hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%+v|%+v|%+v|%+v|%d %d %d %d|%d %d|%+v",
		r.Cycles, r.Cores, r.Sys, r.DRAM, r.EMC,
		r.CtrlRingMsgs, r.DataRingMsgs, r.CtrlRingHops, r.DataRingHops,
		r.PrefetchIssued, r.PrefetchUseful, r.Energy)
	return h.Sum64()
}

// AvgIPC returns the arithmetic mean IPC over cores.
func (r *Result) AvgIPC() float64 {
	if len(r.Cores) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range r.Cores {
		sum += c.IPC
	}
	return sum / float64(len(r.Cores))
}

// WeightedSpeedupVs computes the weighted speedup of this run against
// per-benchmark baseline IPCs (typically alone-run IPCs): sum(IPC_i/base_i).
func (r *Result) WeightedSpeedupVs(base map[string]float64) float64 {
	ws := 0.0
	for _, c := range r.Cores {
		if b := base[c.Benchmark]; b > 0 {
			ws += c.IPC / b
		}
	}
	return ws
}

// TotalDRAMReads sums demand+prefetch+EMC read traffic.
func (r *Result) TotalDRAMReads() uint64 {
	return r.Sys.DRAMDemandReads + r.Sys.DRAMPrefetch + r.Sys.DRAMEMCReads
}

// MemTraffic returns total DRAM transactions (reads+writes), the bandwidth
// metric the paper uses for prefetcher overhead.
func (r *Result) MemTraffic() uint64 { return r.TotalDRAMReads() + r.Sys.DRAMWrites }

// CoreMissLatency returns the average latency of core-generated LLC misses.
func (r *Result) CoreMissLatency() float64 {
	if r.Sys.CoreMissCount == 0 {
		return 0
	}
	return float64(r.Sys.CoreMissTotal) / float64(r.Sys.CoreMissCount)
}

// EMCMissLatency returns the average latency of EMC-generated misses.
func (r *Result) EMCMissLatency() float64 {
	if r.Sys.EMCMissCount == 0 {
		return 0
	}
	return float64(r.Sys.EMCMissTotal) / float64(r.Sys.EMCMissCount)
}

// EMCMissFraction is Fig. 15: EMC-generated DRAM reads over all demand-class
// DRAM reads.
func (r *Result) EMCMissFraction() float64 {
	tot := r.Sys.DRAMDemandReads + r.Sys.DRAMEMCReads
	if tot == 0 {
		return 0
	}
	return float64(r.Sys.DRAMEMCReads) / float64(tot)
}

// RowConflictRate aggregates the row-buffer conflict rate over controllers.
func (r *Result) RowConflictRate() float64 {
	var conf, tot uint64
	for _, d := range r.DRAM {
		conf += d.RowConflicts
		tot += d.RowHits + d.RowConflicts + d.RowEmpty
	}
	if tot == 0 {
		return 0
	}
	return float64(conf) / float64(tot)
}

// EMCCacheHitRate is Fig. 17.
func (r *Result) EMCCacheHitRate() float64 {
	var h, m uint64
	for _, e := range r.EMC {
		h += e.CacheHits
		m += e.CacheMisses
	}
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// DependentMissFraction is Fig. 2: the share of LLC misses whose address
// depended on a prior LLC miss.
func (r *Result) DependentMissFraction() float64 {
	demandMisses := r.Sys.DepMisses + r.Sys.IdealDepHits
	var total uint64
	total = r.Sys.LLCMisses + r.Sys.IdealDepHits
	// Exclude EMC-side misses so the metric matches the no-EMC
	// characterization runs it is measured on.
	if total == 0 {
		return 0
	}
	return float64(demandMisses) / float64(total)
}

// AvgChainLength is Fig. 22: mean uops per generated chain.
func (r *Result) AvgChainLength() float64 {
	var uops, chains uint64
	for _, c := range r.Cores {
		uops += c.Stats.ChainUops
		chains += c.Stats.ChainsGenerated
	}
	if chains == 0 {
		return 0
	}
	return float64(uops) / float64(chains)
}

// collect builds the Result after the run completes.
func (s *System) collect() *Result {
	r := &Result{Config: s.cfg, Cycles: s.now, Sys: s.st}
	for i, c := range s.cores {
		c.Settle(s.now)
		st := c.Stats
		cy := st.Cycles
		ipc := 0.0
		if cy > 0 {
			ipc = float64(st.Retired) / float64(cy)
		}
		r.Cores = append(r.Cores, CoreResult{
			Benchmark: s.cfg.Benchmarks[i],
			Stats:     st,
			IPC:       ipc,
			Cycles:    cy,
		})
	}
	for _, mc := range s.mcs {
		// Refresh epochs deferred on an empty controller are applied here so
		// Stats.Refreshes counts every epoch the run elapsed, matching an
		// eager-refresh controller exactly.
		mc.ctrl.CatchUpRefresh(s.now)
		r.DRAM = append(r.DRAM, mc.ctrl.Stats)
		r.Sys.DRAMWrites += mc.ctrl.Stats.Writes
		if mc.emc != nil {
			r.EMC = append(r.EMC, mc.emc.Stats)
		}
	}
	r.CtrlRingMsgs = s.ctrl.Stats.Messages
	r.DataRingMsgs = s.data.Stats.Messages
	r.CtrlRingHops = s.ctrl.Stats.TotalHops
	r.DataRingHops = s.data.Stats.TotalHops
	for _, f := range s.pfs {
		r.PrefetchIssued += f.Issued
		r.PrefetchUseful += f.Useful
	}
	r.Energy = s.computeEnergy(r)
	s.flushObs()
	if s.tr != nil {
		r.Obs = s.tr.Report()
	}
	return r
}

// computeEnergy evaluates the event-counter model over the run.
func (s *System) computeEnergy(r *Result) energy.Breakdown {
	var ev energy.Events
	ev.Cycles = s.now
	ev.Cores = len(s.cores)
	ev.LLCMB = float64(s.cfg.LLCSliceBytes) / (1 << 20) * float64(len(s.slices))
	ev.Channels = s.cfg.Geometry.Channels
	for _, c := range s.cores {
		st := c.Stats
		ev.Uops += st.Retired
		ev.L1Accesses += st.Loads + st.Stores
		ev.ChainUops += st.ChainUops
		ev.ChainSrcOps += st.ChainUops * 2 // up to two RRT lookups per uop
		ev.ChainDstOps += st.ChainUops
	}
	for i, p := range s.profs {
		// FP fraction from the generator profile applied to this core's
		// retired count (FP uops are costlier in the model).
		ev.FPUops += uint64(float64(r.Cores[i].Stats.Retired) * p.FPFrac * (1 - p.MemFrac))
	}
	for _, sl := range s.slices {
		ev.LLCAccesses += sl.c.Stats.Hits + sl.c.Stats.Misses
	}
	ev.RingHopsCtrl = s.ctrl.Stats.TotalHops
	ev.RingHopsData = s.data.Stats.TotalHops
	for _, mc := range s.mcs {
		ev.DRAMActivates += mc.ctrl.Stats.Activations
		ev.DRAMReads += mc.ctrl.Stats.Reads
		ev.DRAMWrites += mc.ctrl.Stats.Writes
		if mc.emc != nil {
			ev.EMCs++
			ev.EMCUops += mc.emc.Stats.UopsExecuted
			ev.EMCCacheAccesses += mc.emc.Stats.CacheHits + mc.emc.Stats.CacheMisses
		}
	}
	return energy.Default().Compute(ev)
}
