package span

import (
	"fmt"
	"io"
	"sync"
)

// phaseBuckets are the cumulative upper bounds (seconds) of the phase
// histograms — roughly log-spaced from "instant" to "minutes", matching the
// spread between cache hits (~µs) and long detailed sweeps. +Inf is
// implicit.
var phaseBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// phaseMetric is the exported histogram name (seconds spent per lifecycle
// phase, labelled by phase and shard, the worker lane that ran the job).
const phaseMetric = "emcsim_service_phase_seconds"

// PhaseHist is the per-phase, per-lane duration histogram set exported on
// /metrics. It implements obs.Collector; the service registers it with its
// metrics Registry so the span pipeline and the gauge groups share one
// exposition endpoint.
type PhaseHist struct {
	mu     sync.Mutex
	shards int
	counts [][]uint64 // [phase*shards+shard][bucket]
	sums   []float64
	totals []uint64
}

// NewPhaseHist builds histograms for shards worker lanes.
func NewPhaseHist(shards int) *PhaseHist {
	if shards < 1 {
		shards = 1
	}
	n := int(NumPhases) * shards
	h := &PhaseHist{
		shards: shards,
		counts: make([][]uint64, n),
		sums:   make([]float64, n),
		totals: make([]uint64, n),
	}
	for i := range h.counts {
		h.counts[i] = make([]uint64, len(phaseBuckets))
	}
	return h
}

// Observe records one phase duration in seconds.
func (h *PhaseHist) Observe(p Phase, shard int, seconds float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if shard < 0 || shard >= h.shards || p >= NumPhases {
		return
	}
	i := int(p)*h.shards + shard
	for b, le := range phaseBuckets {
		if seconds <= le {
			h.counts[i][b]++
		}
	}
	h.sums[i] += seconds
	h.totals[i]++
}

// WritePrometheus renders the histograms in Prometheus text exposition
// format (cumulative _bucket series with le labels, plus _sum and _count).
// Lanes with no observations for a phase are omitted to keep the scrape
// small. Implements obs.Collector.
func (h *PhaseHist) WritePrometheus(w io.Writer) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", phaseMetric); err != nil {
		return err
	}
	for p := Phase(0); p < NumPhases; p++ {
		for shard := 0; shard < h.shards; shard++ {
			i := int(p)*h.shards + shard
			if h.totals[i] == 0 {
				continue
			}
			labels := fmt.Sprintf(`phase=%q,shard="%d"`, p.String(), shard)
			for b, le := range phaseBuckets {
				if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=\"%g\"} %d\n",
					phaseMetric, labels, le, h.counts[i][b]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n",
				phaseMetric, labels, h.totals[i]); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum{%s} %g\n", phaseMetric, labels, h.sums[i]); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count{%s} %d\n", phaseMetric, labels, h.totals[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
