package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
)

// Registry is the live metric registry: gauge groups and histograms, read
// by the /metrics exporter while the simulation or service is in flight.
//
// A gauge group holds either published values or a read function. The
// simulator publishes snapshots every few thousand cycles under the group
// mutex, because its state is confined to its own goroutine; the service and
// the cluster register read functions, which the registry calls at scrape
// time outside its own lock, so a scrape always sees current values.
type Registry struct {
	mu     sync.Mutex
	groups []*Group
	hists  []*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// NewGroup registers a metric group. Labels (e.g. run="H4/emc") tag every
// metric the group exports; names fixes the metric set up front so Publish
// is a plain value copy.
func (r *Registry) NewGroup(labels map[string]string, names []string) *Group {
	return r.addGroup(&Group{labels: renderLabels(labels), names: append([]string(nil), names...),
		vals: make([]float64, len(names))})
}

// NewGroupFunc registers a metric group whose values read returns at scrape
// time, in names order. read must be safe for concurrent use; the registry
// calls it without holding any lock of its own.
func (r *Registry) NewGroupFunc(labels map[string]string, names []string, read func() []float64) {
	r.addGroup(&Group{labels: renderLabels(labels), names: append([]string(nil), names...), read: read})
}

func (r *Registry) addGroup(g *Group) *Group {
	r.mu.Lock()
	r.groups = append(r.groups, g)
	r.mu.Unlock()
	return g
}

func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}

// Group is one run's slot set within a Registry.
type Group struct {
	mu     sync.Mutex
	labels string
	names  []string
	vals   []float64
	read   func() []float64 // set by NewGroupFunc; vals is then unused
}

// Publish copies a full snapshot of values (same order as the group's
// names) into the group.
func (g *Group) Publish(vals []float64) {
	g.mu.Lock()
	copy(g.vals, vals)
	g.mu.Unlock()
}

// Snapshot appends the group's current values to dst and returns it.
func (g *Group) Snapshot(dst []float64) []float64 {
	if g.read != nil {
		return append(dst, g.read()...)
	}
	g.mu.Lock()
	dst = append(dst, g.vals...)
	g.mu.Unlock()
	return dst
}

// Histogram is one histogram family in a Registry: fixed cumulative bucket
// bounds (+Inf implicit) and one series per label set.
type Histogram struct {
	name    string
	buckets []float64
	mu      sync.Mutex
	series  []*HistogramSeries
}

// HistogramSeries is one label set of a Histogram.
type HistogramSeries struct {
	h      *Histogram
	labels string
	counts []uint64 // cumulative: counts[b] observations <= buckets[b]
	sum    float64
	count  uint64
}

// NewHistogram registers a histogram family named name (exported as
// emcsim_<name>) with the given bucket upper bounds.
func (r *Registry) NewHistogram(name string, buckets []float64) *Histogram {
	h := &Histogram{name: promName(name), buckets: append([]float64(nil), buckets...)}
	r.mu.Lock()
	r.hists = append(r.hists, h)
	r.mu.Unlock()
	return h
}

// With adds a series for labels. Series render in the order they are added;
// one with no observations is left out of the exposition.
func (h *Histogram) With(labels map[string]string) *HistogramSeries {
	s := &HistogramSeries{h: h, labels: renderLabels(labels), counts: make([]uint64, len(h.buckets))}
	h.mu.Lock()
	h.series = append(h.series, s)
	h.mu.Unlock()
	return s
}

// Observe records one value.
func (s *HistogramSeries) Observe(v float64) {
	s.h.mu.Lock()
	for b, le := range s.h.buckets {
		if v <= le {
			s.counts[b]++
		}
	}
	s.sum += v
	s.count++
	s.h.mu.Unlock()
}

// MetricPrefix is prepended to every exported metric name.
const MetricPrefix = "emcsim_"

// promName sanitizes a registry name into a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString(MetricPrefix)
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		case c >= 'A' && c <= 'Z':
			b.WriteRune(c - 'A' + 'a')
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format: every gauge family, then every histogram family. Each family has
// one # TYPE line followed by all of its series, however many groups share
// the name. Metric names follow the scheme emcsim_<counter>, all lowercase
// snake_case, with the group's labels attached (see DESIGN.md §9.5).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	groups := append([]*Group(nil), r.groups...)
	hists := append([]*Histogram(nil), r.hists...)
	r.mu.Unlock()
	type series struct {
		labels string
		v      float64
	}
	var names []string
	families := map[string][]series{}
	for _, g := range groups {
		vals := g.Snapshot(nil)
		for i, n := range g.names {
			pn := promName(n)
			if _, ok := families[pn]; !ok {
				names = append(names, pn)
			}
			families[pn] = append(families[pn], series{g.labels, vals[i]})
		}
	}
	var b strings.Builder
	sample := func(name, labels string, v any) {
		if labels != "" {
			name += "{" + labels + "}"
		}
		fmt.Fprintf(&b, "%s %v\n", name, v)
	}
	for _, pn := range names {
		fmt.Fprintf(&b, "# TYPE %s gauge\n", pn)
		for _, s := range families[pn] {
			sample(pn, s.labels, s.v)
		}
	}
	for _, h := range hists {
		fmt.Fprintf(&b, "# TYPE %s histogram\n", h.name)
		h.mu.Lock()
		for _, s := range h.series {
			if s.count == 0 {
				continue
			}
			le := s.labels
			if le != "" {
				le += ","
			}
			for i, bound := range h.buckets {
				sample(h.name+"_bucket", fmt.Sprintf("%sle=\"%g\"", le, bound), s.counts[i])
			}
			sample(h.name+"_bucket", le+`le="+Inf"`, s.count)
			sample(h.name+"_sum", s.labels, s.sum)
			sample(h.name+"_count", s.labels, s.count)
		}
		h.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CounterLog is an in-memory time series of counter snapshots, sampled by
// the owning System every Interval cycles and serialized to JSON at the end
// of the run (IPC over time, queue depths, ring occupancy, EMC accept/
// reject rates, ... — everything the System publishes).
type CounterLog struct {
	Interval uint64
	Names    []string
	Samples  []CounterSample

	next uint64 // next cycle to sample at (managed by the System)
}

// CounterSample is one interval snapshot.
type CounterSample struct {
	Cycle  uint64
	Values []float64
}

// NewCounterLog builds a log sampling every interval cycles.
func NewCounterLog(interval uint64, names []string) *CounterLog {
	if interval == 0 {
		interval = 10000
	}
	return &CounterLog{Interval: interval, Names: append([]string(nil), names...)}
}

// Due reports whether a sample is due at cycle now. Under the event-horizon
// scheduler cycles are skipped wholesale, so Due fires on the first cycle
// at or after each interval boundary.
func (l *CounterLog) Due(now uint64) bool { return now >= l.next }

// Record appends one snapshot (copying vals) and advances the deadline.
func (l *CounterLog) Record(now uint64, vals []float64) {
	l.Samples = append(l.Samples, CounterSample{
		Cycle:  now,
		Values: append([]float64(nil), vals...),
	})
	l.next = now - now%l.Interval + l.Interval
}

// WriteJSON serializes the time series.
func (l *CounterLog) WriteJSON(w io.Writer) error {
	type sample struct {
		Cycle  uint64    `json:"cycle"`
		Values []float64 `json:"values"`
	}
	out := struct {
		Interval uint64   `json:"intervalCycles"`
		Names    []string `json:"names"`
		Samples  []sample `json:"samples"`
	}{Interval: l.Interval, Names: l.Names}
	for _, s := range l.Samples {
		out.Samples = append(out.Samples, sample{Cycle: s.Cycle, Values: s.Values})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// WriteFile writes the time series to path.
func (l *CounterLog) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
