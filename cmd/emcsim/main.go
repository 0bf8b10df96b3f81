// Command emcsim runs one workload on one system configuration and prints a
// summary: per-core IPC, memory-system behaviour, EMC activity, and energy.
//
// Examples:
//
//	emcsim -bench mcf,sphinx3,soplex,libquantum -emc -n 50000
//	emcsim -bench mcf,mcf,mcf,mcf -pf ghb -emc
//	emcsim -bench mcf,mcf,mcf,mcf,mcf,mcf,mcf,mcf -mcs 2 -emc
//	emcsim -emc -trace trace.json            # lifecycle trace (Perfetto)
//	emcsim -emc -http 127.0.0.1:0 -http-linger 30s   # live /metrics
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	emcsim "repro"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/report"
)

func main() {
	bench := flag.String("bench", "mcf,sphinx3,soplex,libquantum", "comma-separated benchmarks, one per core (4 or 8)")
	pf := flag.String("pf", "none", "prefetcher: none|ghb|stream|markov+stream")
	emc := flag.Bool("emc", false, "enable the Enhanced Memory Controller")
	mcs := flag.Int("mcs", 1, "memory controllers (8-core only: 1 or 2)")
	n := flag.Uint64("n", 30000, "instructions per core")
	seed := flag.Uint64("seed", 1, "trace seed")
	ideal := flag.Bool("ideal-dep-hits", false, "serve dependent misses at LLC-hit latency (Fig. 2 idealization)")
	runahead := flag.Bool("runahead", false, "enable the runahead-execution baseline")
	chains := flag.Int("chains", 0, "print the first N dependence chains shipped to the EMC")
	hist := flag.Bool("hist", false, "print miss-latency histograms")
	jsonOut := flag.Bool("json", false, "emit the full result as JSON instead of text")
	list := flag.Bool("list", false, "list available benchmarks and exit")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of sampled request lifecycles to this file")
	traceSample := flag.Uint64("trace-sample", 1, "trace one in N memory requests (deterministic)")
	attr := flag.Bool("attr", false, "collect and print the latency-attribution breakdown (implied by -trace)")
	counters := flag.String("counters", "", "write an interval counter time series (JSON) to this file")
	countersInterval := flag.Uint64("counters-interval", 10000, "counter sampling interval in cycles")
	httpAddr := flag.String("http", "", "serve /metrics and /debug/pprof on this address (e.g. 127.0.0.1:0)")
	httpLinger := flag.Duration("http-linger", 0, "keep the -http server up this long after the run finishes")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	stopProfiling, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emcsim:", err)
		os.Exit(1)
	}
	defer stopProfiling()

	if *list {
		fmt.Println("high intensity:", strings.Join(emcsim.HighIntensityBenchmarks(), " "))
		fmt.Println("all:", strings.Join(emcsim.Benchmarks(), " "))
		return
	}

	benchmarks := strings.Split(*bench, ",")
	var cfg emcsim.SystemConfig
	if len(benchmarks) >= 8 {
		cfg = emcsim.EightCore(emcsim.PrefetcherKind(*pf), *emc, *mcs)
	} else {
		cfg = emcsim.QuadCore(emcsim.PrefetcherKind(*pf), *emc)
	}
	cfg.IdealDependentHits = *ideal
	cfg.RunaheadEnabled = *runahead
	if *traceOut != "" || *attr {
		cfg.Obs = obs.Config{Enabled: true, SampleEvery: *traceSample, Retain: *traceOut != ""}
	}
	if *counters != "" {
		cfg.CounterInterval = *countersInterval
	}
	var srv *obs.Server
	if *httpAddr != "" {
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		cfg.MetricsLabels = map[string]string{"run": *bench}
		srv, err = obs.StartServer(*httpAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "emcsim:", err)
			stopProfiling()
			os.Exit(1)
		}
		defer srv.Close()
		// The bound address line is parsed by scripts (make trace-smoke);
		// keep its shape stable.
		fmt.Printf("debug server listening on http://%s (/metrics, /debug/pprof)\n", srv.Addr())
	}

	sys, err := emcsim.NewSystem(cfg, emcsim.Workload{
		Name: "cli", Benchmarks: benchmarks, InstrPerCore: *n, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "emcsim:", err)
		stopProfiling()
		os.Exit(1)
	}
	if *chains > 0 {
		left := *chains
		sys.ObserveChains(func(ch *cpu.Chain) {
			if left <= 0 {
				return
			}
			left--
			fmt.Printf("chain core%d srcPC=%#x line=%#x uops=%d live-ins=%d mispredict=%v\n",
				ch.CoreID, ch.SourcePC, ch.SourceLine, len(ch.Uops), len(ch.LiveIns), ch.HasMispredict)
			for i, cu := range ch.Uops {
				fmt.Printf("  [%2d] E%-2d <- %v\n", i, cu.DstEPR, cu.U.String())
			}
		})
	}
	// SIGINT/SIGTERM cancel the run at the next cycle boundary; the partial
	// statistics are still summarized and the exit status is non-zero. A
	// second signal kills the process immediately.
	h := sys.NewRunHandle(0, nil)
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "emcsim: signal received, cancelling at next cycle boundary (repeat to kill)")
		h.Cancel()
		<-sigc
		os.Exit(130)
	}()
	res, err := h.Run()
	signal.Stop(sigc)
	cancelled := errors.Is(err, emcsim.ErrCancelled)
	if err != nil && !cancelled {
		fmt.Fprintln(os.Stderr, "emcsim:", err)
		stopProfiling()
		os.Exit(1)
	}

	if *traceOut != "" {
		exp := &obs.ChromeExport{}
		exp.Add(*bench, sys.Tracer())
		if err := exp.WriteFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "emcsim: write trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d records)\n", *traceOut, len(sys.Tracer().Records()))
	}
	if *counters != "" {
		if err := sys.CounterLog().WriteFile(*counters); err != nil {
			fmt.Fprintln(os.Stderr, "emcsim: write counters:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *counters)
	}
	linger := func() {
		if srv != nil && *httpLinger > 0 {
			fmt.Printf("lingering %s for debug-server scrapes\n", *httpLinger)
			time.Sleep(*httpLinger)
		}
	}

	if *jsonOut {
		out := report.New(res)
		out.Cancelled = cancelled
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "emcsim:", err)
			os.Exit(1)
		}
		linger()
		if cancelled {
			stopProfiling()
			os.Exit(1)
		}
		return
	}

	fmt.Printf("workload: %s   pf=%s emc=%v mcs=%d n=%d\n", *bench, *pf, *emc, *mcs, *n)
	if cancelled {
		fmt.Printf("run cancelled by signal: partial statistics follow\n")
	}
	fmt.Printf("cycles: %d   avg IPC: %.4f\n\n", res.Cycles, res.AvgIPC())
	for _, c := range res.Cores {
		fmt.Printf("  core %-12s IPC %.4f  loads %-6d LLCmiss %-5d dep %-5d chains %d\n",
			c.Benchmark, c.IPC, c.Stats.Loads, c.Stats.LLCMissLoads,
			c.Stats.DependentMissLoads, c.Stats.ChainsGenerated)
	}
	fmt.Printf("\nmemory: demandReads=%d prefetchReads=%d emcReads=%d writes=%d rowConflict=%.1f%%\n",
		res.Sys.DRAMDemandReads, res.Sys.DRAMPrefetch, res.Sys.DRAMEMCReads,
		res.Sys.DRAMWrites, 100*res.RowConflictRate())
	fmt.Printf("latency: core-miss=%.1f cycles", res.CoreMissLatency())
	if res.Sys.EMCMissCount > 0 {
		fmt.Printf("  emc-miss=%.1f cycles (%.1f%% lower)",
			res.EMCMissLatency(), 100*(1-res.EMCMissLatency()/res.CoreMissLatency()))
	}
	fmt.Println()
	if *emc {
		var done, aborted, rejected uint64
		for _, e := range res.EMC {
			done += e.ChainsDone
			aborted += e.ChainsAborted
			rejected += e.ChainsRejected
		}
		fmt.Printf("emc: chainsDone=%d aborted=%d rejected=%d missFraction=%.1f%% cacheHit=%.1f%% avgChainLen=%.1f\n",
			done, aborted, rejected, 100*res.EMCMissFraction(),
			100*res.EMCCacheHitRate(), res.AvgChainLength())
	}
	if res.PrefetchIssued > 0 {
		fmt.Printf("prefetch: issued=%d useful=%d accuracy=%.1f%%\n",
			res.PrefetchIssued, res.PrefetchUseful,
			100*float64(res.PrefetchUseful)/float64(res.PrefetchIssued))
	}
	e := res.Energy
	fmt.Printf("energy: total=%.3g J (chip %.3g, dram %.3g)\n", e.Total(), e.Chip(), e.DRAMStatic+e.DRAMDynamic)
	if res.Obs != nil {
		fmt.Printf("\n%s", res.Obs.Table())
	}
	if *hist {
		fmt.Printf("\ncore-miss latency: %s\n  density: [%s]\n",
			res.Sys.CoreMissHist.String(), res.Sys.CoreMissHist.Bar(48))
		if res.Sys.EMCMissHist.Count() > 0 {
			fmt.Printf("emc-miss latency:  %s\n  density: [%s]\n",
				res.Sys.EMCMissHist.String(), res.Sys.EMCMissHist.Bar(48))
		}
	}
	linger()
	if cancelled {
		stopProfiling()
		os.Exit(1)
	}
}
