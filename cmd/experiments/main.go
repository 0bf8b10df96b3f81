// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints them as ASCII tables (optionally writing a
// markdown report).
//
//	experiments                    # all figures at CI-sized run lengths
//	experiments -n 100000          # longer runs (closer to the paper's scale)
//	experiments -only Fig12,Fig18  # a subset
//	experiments -md results.md     # also write a markdown report
//	experiments -only Obs -trace t.json   # lifecycle traces (Perfetto)
//	experiments -http 127.0.0.1:8080      # live /metrics while the suite runs
//	experiments -jobs 4                   # route runs through the job scheduler
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/service"
	"repro/internal/sim"
)

func main() {
	n := flag.Uint64("n", 24000, "instructions per core (quad-core runs)")
	n8 := flag.Uint64("n8", 12000, "instructions per core (eight-core runs)")
	seed := flag.Uint64("seed", 1, "trace seed")
	parallel := flag.Int("parallel", runtime.NumCPU(), "concurrent simulations")
	only := flag.String("only", "", "comma-separated figure ids (e.g. Fig12,Fig18); empty = all")
	md := flag.String("md", "", "write a markdown report to this file")
	traceOut := flag.String("trace", "", "write a merged Chrome trace_event JSON of every run to this file")
	traceSample := flag.Uint64("trace-sample", 64, "with -trace, trace one in N requests per run")
	httpAddr := flag.String("http", "", "serve /metrics and /debug/pprof on this address while the suite runs")
	jobs := flag.Int("jobs", 0, "route every run through the service scheduler with this many workers (coalesces and caches duplicate configs)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *jobs > 0 && *traceOut != "" {
		fmt.Fprintln(os.Stderr, "experiments: -jobs cannot retain lifecycle traces; drop -trace or -jobs")
		os.Exit(1)
	}

	stopProfiling, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	opts := figures.DefaultOptions()
	opts.InstrPerCore = *n
	opts.InstrPerCore8 = *n8
	opts.Seed = *seed
	opts.Parallel = *parallel
	if *traceOut != "" {
		opts.Trace = obs.Config{Enabled: true, SampleEvery: *traceSample, Retain: true}
	}
	var srv *obs.Server
	if *httpAddr != "" {
		opts.Metrics = obs.NewRegistry()
		srv, err = obs.StartServer(*httpAddr, opts.Metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("debug server listening on http://%s (/metrics, /debug/pprof)\n", srv.Addr())
	}
	var svc *service.Service
	if *jobs > 0 {
		svc = service.New(service.Config{
			Workers:  *jobs,
			QueueCap: 4096, // the suite fans out from Parallel goroutines; never backpressure it
			CacheCap: 1024,
			Metrics:  opts.Metrics,
		})
		opts.Runner = func(cfg sim.Config) (*sim.Result, error) {
			return svc.Run(context.Background(), "experiments", cfg)
		}
	}
	suite := figures.NewSuite(opts)

	runners := []struct {
		id  string
		run func() (*figures.Table, error)
	}{
		{"Fig1", suite.Fig1},
		{"Fig2", suite.Fig2},
		{"Fig3", suite.Fig3},
		{"Fig6", suite.Fig6},
		{"Fig12", suite.Fig12},
		{"Fig13", suite.Fig13},
		{"Fig14", suite.Fig14},
		{"Fig15", suite.Fig15},
		{"Fig16", suite.Fig16},
		{"Fig17", suite.Fig17},
		{"Fig18", suite.Fig18},
		{"Fig19", suite.Fig19},
		{"Fig20", suite.Fig20},
		{"Fig21", suite.Fig21},
		{"Fig22", suite.Fig22},
		{"Sec6.5", suite.Overhead},
		{"Fig23", suite.Fig23},
		{"Fig24", suite.Fig24},
		{"ExtRA", suite.ExtRunahead},
		{"WS", suite.WeightedSpeedup},
		{"Obs", suite.FigObs},
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	var report strings.Builder
	report.WriteString("# Reproduction results\n\n")
	fmt.Fprintf(&report, "Run: n=%d (quad), n8=%d (eight), seed=%d, %s\n\n",
		*n, *n8, *seed, time.Now().Format(time.RFC3339))

	start := time.Now()
	for _, r := range runners {
		if len(want) > 0 && !want[r.id] {
			continue
		}
		t0 := time.Now()
		tab, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.id, err)
			stopProfiling()
			os.Exit(1)
		}
		fmt.Println(tab.String())
		fmt.Printf("(%s in %.1fs)\n\n", r.id, time.Since(t0).Seconds())
		report.WriteString(tab.Markdown())
		report.WriteString("\n")
	}
	fmt.Printf("total: %.1fs\n", time.Since(start).Seconds())
	if svc != nil {
		drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if err := svc.Drain(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: drain:", err)
		}
		cancel()
		st := svc.Stats()
		fmt.Printf("scheduler: %d submitted, %d simulated, %d coalesced, %d cache hits\n",
			st.Submitted, st.Done-st.CacheHits, st.Coalesced, st.CacheHits)
	}
	stopProfiling()

	if *traceOut != "" {
		if err := suite.TraceExport().WriteFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "write trace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d runs)\n", *traceOut, suite.TraceExport().Runs())
	}

	if *md != "" {
		if err := os.WriteFile(*md, []byte(report.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "write report:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *md)
	}
}
