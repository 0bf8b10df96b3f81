package main

import (
	"fmt"
	"slices"
	"syscall"

	"repro/internal/obs/span"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, printed by an
// untraced run. Each applies to every workload. BENCHMARK.json lists the
// same names, units and bounds.
var endToEnd = []metricDef{
	{"sim_kips", "kinstr/s"}, // simulated kilo-instructions retired per host second
	{"job_p50_s", "s"},       // median client-observed latency of one cold job
	{"setup_s", "s"},         // median sim.New / service.Open / NewFabric time
	{"rss_peak_mb", "MB"},    // VmHWM of the run's process
}

// perLayer are printed by the traced run, each on every workload: a count
// or share of a layer that does not run in a workload reads 0 there. The
// latencies only some workloads measure (job_p90_s, cached_p50_us,
// cached_p99_us, service.running_s, service.cache_hit_us) are computed where
// measured and go to the result file only: a time that reads 0 on every run
// is no measurement.
var perLayer = append(layerDefs(hostLayers, "share"), []metricDef{
	{"host.ns_per_cycle", "ns"},
	{"trace_overhead", "share"},
	{"sim.skip_ratio", "share"},
	{"sim.cycles", "cycles"},
	{"cpu.ipc", "instr/cycle"},
	{"cpu.full_window_stall_frac", "share"},
	{"cpu.chains_generated", "count"},
	{"cache.llc_miss_rate", "share"},
	{"ring.msgs_per_kinstr", "1/kinstr"},
	{"ring.avg_hops", "hops"},
	{"dram.reads", "count"},
	{"dram.writes", "count"},
	{"dram.row_hit_rate", "share"},
	{"dram.queue_delay_cycles", "cycles"},
	{"emc.chains_done", "count"},
	{"emc.uops", "count"},
	{"emc.cache_hit_rate", "share"},
	{"prefetch.issued", "count"},
	{"prefetch.accuracy", "share"},
	{"service.queued_share", "share"},
	{"service.shard_busy_spread", "ratio"},
	{"service.executed", "count"},
	{"service.coalesced", "count"},
	{"cluster.forwarded", "count"},
	{"cluster.fetched", "count"},
	{"cluster.repl_sent", "count"},
	{"cluster.stolen", "count"},
	{"cluster.reclaimed", "count"},
	{"cluster.local_fallback", "count"},
	{"cluster.overhead_share", "share"},
}...)

func layerDefs(names []string, unit string) []metricDef {
	defs := make([]metricDef, len(names))
	for i, n := range names {
		defs[i] = metricDef{n, unit}
	}
	return defs
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns the metrics of defs from vals; every one must be there.
func pick(vals map[string]float64, defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// values computes every metric the run measured except the host shares,
// which come from the profiles.
func (o *outcome) values() (map[string]float64, error) {
	v := map[string]float64{}
	for _, d := range perLayer[len(hostLayers):] {
		v[d.name] = 0
	}
	setup := append([]float64(nil), o.SetupS...)
	for _, r := range o.Repeats {
		setup = append(setup, r.SetupS)
	}
	kips, profiledKIPS := o.kips()
	v["sim_kips"] = median(kips)
	v["job_p50_s"] = median(o.JobS)
	v["setup_s"] = median(setup)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	v["rss_peak_mb"] = rss
	if len(profiledKIPS) > 0 {
		v["trace_overhead"] = 1 - median(profiledKIPS)/median(kips)
	}
	if p90, ok := percentile(o.JobS, 90); ok {
		v["job_p90_s"] = p90
	}
	if len(o.CachedS) > 0 {
		v["cached_p50_us"] = median(o.CachedS) * 1e6
	}
	if p99, ok := percentile(o.CachedS, 99); ok {
		v["cached_p99_us"] = p99 * 1e6
	}
	o.simCounts(v)
	o.serviceCounts(v)
	return v, nil
}

// kips returns the sim_kips of the measured repeats, split by whether they
// ran under the profiler.
func (o *outcome) kips() (plain, profiled []float64) {
	for _, r := range o.Repeats {
		if r.Profiled {
			profiled = append(profiled, r.SimKIPS)
		} else {
			plain = append(plain, r.SimKIPS)
		}
	}
	return plain, profiled
}

// simCounts derives the simulated per-layer counts from the sample repeat;
// every correct repeat of a run simulates the same inputs.
func (o *outcome) simCounts(v map[string]float64) {
	r := o.sample
	if r == nil {
		return
	}
	var retired, coreCycles, fullWindow, chains, llcHit, llcMiss float64
	var msgs, hops, reads, writes, rowHits, rowAll, queueDelay float64
	var chainsDone, uops, emcHit, emcMiss, pfIssued, pfUseful float64
	for _, res := range r.results {
		for _, c := range res.Cores {
			retired += float64(c.Stats.Retired)
			coreCycles += float64(c.Stats.Cycles)
			fullWindow += float64(c.Stats.FullWindowStalls)
			chains += float64(c.Stats.ChainsGenerated)
		}
		llcHit += float64(res.Sys.LLCHits)
		llcMiss += float64(res.Sys.LLCMisses)
		msgs += float64(res.CtrlRingMsgs + res.DataRingMsgs)
		hops += float64(res.CtrlRingHops + res.DataRingHops)
		for _, d := range res.DRAM {
			reads += float64(d.Reads)
			writes += float64(d.Writes)
			rowHits += float64(d.RowHits)
			rowAll += float64(d.RowHits + d.RowConflicts + d.RowEmpty)
			queueDelay += float64(d.TotalQueueDelay)
		}
		for _, e := range res.EMC {
			chainsDone += float64(e.ChainsDone)
			uops += float64(e.UopsExecuted)
			emcHit += float64(e.CacheHits)
			emcMiss += float64(e.CacheMisses)
		}
		pfIssued += float64(res.PrefetchIssued)
		pfUseful += float64(res.PrefetchUseful)
	}
	v["sim.cycles"] = r.cycles
	v["sim.skip_ratio"] = ratio(float64(r.skipped), r.cycles)
	v["cpu.ipc"] = ratio(retired, coreCycles)
	v["cpu.full_window_stall_frac"] = ratio(fullWindow, coreCycles)
	v["cpu.chains_generated"] = chains
	v["cache.llc_miss_rate"] = ratio(llcMiss, llcHit+llcMiss)
	v["ring.msgs_per_kinstr"] = ratio(msgs, retired/1e3)
	v["ring.avg_hops"] = ratio(hops, msgs)
	v["dram.reads"] = reads
	v["dram.writes"] = writes
	v["dram.row_hit_rate"] = ratio(rowHits, rowAll)
	v["dram.queue_delay_cycles"] = ratio(queueDelay, reads)
	v["emc.chains_done"] = chainsDone
	v["emc.uops"] = uops
	v["emc.cache_hit_rate"] = ratio(emcHit, emcHit+emcMiss)
	v["prefetch.issued"] = pfIssued
	v["prefetch.accuracy"] = ratio(pfUseful, pfIssued)
}

// serviceCounts derives the service and cluster metrics from the spans,
// stats and counters of every measured repeat, and host.ns_per_cycle from
// the unprofiled ones. A job executed on a node is one whose span records
// an attempt; the entry node's span of a job forwarded elsewhere records
// none.
func (o *outcome) serviceCounts(v map[string]float64) {
	var queued, active, running, latency float64
	var runS, hitUS, spread, executed, coalesced, nsPerCycle []float64
	var forwarded, fetched, replSent, stolen, reclaimed, fallback []float64
	for _, r := range o.reps {
		if r.spans == nil {
			if !r.profiled {
				nsPerCycle = append(nsPerCycle, ratio(float64(r.wall.Nanoseconds()), r.cycles))
			}
			continue
		}
		var busy []float64
		var repRunning, ex, co float64
		for n, spans := range r.spans {
			shard := make([]float64, r.stats[n].Workers)
			for _, sp := range spans {
				ph := sp.Phases()
				switch {
				case sp.Cached:
					hitUS = append(hitUS, float64(ph[span.PhaseCacheHit])/1e3)
				case sp.Attempts > 0 && sp.Shard < len(shard):
					queued += float64(ph[span.PhaseQueued])
					active += float64(ph[span.PhaseQueued] + ph[span.PhaseRunning])
					repRunning += float64(ph[span.PhaseRunning])
					runS = append(runS, span.Seconds(ph[span.PhaseRunning]))
					shard[sp.Shard] += float64(ph[span.PhaseRunning])
				}
			}
			busy = append(busy, shard...)
			ex += float64(r.stats[n].Executed)
			co += float64(r.stats[n].Coalesced)
		}
		if lo := slices.Min(busy); lo > 0 {
			spread = append(spread, slices.Max(busy)/lo)
		}
		executed = append(executed, ex)
		coalesced = append(coalesced, co)
		running += repRunning
		for _, d := range r.jobs {
			latency += float64(d.Nanoseconds())
		}
		if !r.profiled {
			nsPerCycle = append(nsPerCycle, ratio(repRunning, r.cycles))
		}
		if r.cluster == nil {
			continue
		}
		var fw, fe, rs, st, rc, lf float64
		for _, c := range r.cluster {
			fw += float64(c.Forwarded)
			fe += float64(c.Fetched)
			rs += float64(c.ReplSent)
			st += float64(c.StolenIn)
			rc += float64(c.Reclaimed)
			lf += float64(c.LocalFallback)
		}
		forwarded, fetched, replSent = append(forwarded, fw), append(fetched, fe), append(replSent, rs)
		stolen, reclaimed, fallback = append(stolen, st), append(reclaimed, rc), append(fallback, lf)
	}
	v["host.ns_per_cycle"] = median(nsPerCycle)
	if executed == nil {
		return
	}
	v["service.queued_share"] = ratio(queued, active)
	v["service.running_s"] = median(runS)
	v["service.shard_busy_spread"] = median(spread)
	if len(hitUS) > 0 {
		v["service.cache_hit_us"] = median(hitUS)
	}
	v["service.executed"] = median(executed)
	v["service.coalesced"] = median(coalesced)
	if forwarded == nil {
		return
	}
	v["cluster.forwarded"] = median(forwarded)
	v["cluster.fetched"] = median(fetched)
	v["cluster.repl_sent"] = median(replSent)
	v["cluster.stolen"] = median(stolen)
	v["cluster.reclaimed"] = median(reclaimed)
	v["cluster.local_fallback"] = median(fallback)
	v["cluster.overhead_share"] = 1 - ratio(running, latency)
}

// peakRSSMB is the process's peak resident set: getrusage's ru_maxrss,
// which Linux reports in KiB and which is the VmHWM of /proc/self/status.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}
