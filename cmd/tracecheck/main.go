// Command tracecheck validates a Chrome trace_event JSON file of the shape
// emcsim and experiments emit (-trace): the "JSON Object Format" with a
// traceEvents array of metadata (M) and async nestable (b/n/e) events. It is
// the schema gate behind make trace-smoke.
//
//	tracecheck trace.json
//	tracecheck -metrics-url http://127.0.0.1:8080/metrics trace.json
//	tracecheck -counters counters.json trace.json
//	tracecheck -flight dump.emfr [more.emfr ...]
//
// -flight switches to flight-recorder mode: each argument is a CRC-framed
// .emfr dump (internal/obs/span), decoded and semantically verified — the
// exact-sum phase invariant, monotonic event timeline, known kinds/phases.
//
// Exit status is non-zero on any schema violation (missing fields, unknown
// phases, unbalanced b/e pairs, negative timestamps, spans that end before
// they begin, non-monotonic timestamps within a record, two process_name
// events on one pid — a pid collision).
//
// -metrics-url also checks the exposition's structure: each metric family
// has exactly one # TYPE line and its lines are contiguous, and every
// histogram series has cumulative buckets whose le="+Inf" count equals its
// _count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"repro/internal/obs/span"
)

type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Ts   *float64        `json:"ts"`
	Pid  *int            `json:"pid"`
	Tid  *int            `json:"tid"`
	ID   string          `json:"id"`
	Args json.RawMessage `json:"args"`
}

func main() {
	metricsURL := flag.String("metrics-url", "", "also fetch this /metrics endpoint, require emcsim_ metrics and check the exposition's structure")
	countersPath := flag.String("counters", "", "also validate this interval counter log (emcsim -counters output)")
	flight := flag.Bool("flight", false, "arguments are flight-recorder dumps (.emfr), not a Chrome trace")
	flag.Parse()
	if *flight {
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: tracecheck -flight dump.emfr [more.emfr ...]")
			os.Exit(2)
		}
		for _, path := range flag.Args() {
			if err := checkFlight(path); err != nil {
				fmt.Fprintln(os.Stderr, "tracecheck:", err)
				os.Exit(1)
			}
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-metrics-url URL] [-counters FILE] trace.json")
		os.Exit(2)
	}
	if err := checkTrace(flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
	if *metricsURL != "" {
		if err := checkMetrics(*metricsURL); err != nil {
			fmt.Fprintln(os.Stderr, "tracecheck:", err)
			os.Exit(1)
		}
	}
	if *countersPath != "" {
		if err := checkCounters(*countersPath); err != nil {
			fmt.Fprintln(os.Stderr, "tracecheck:", err)
			os.Exit(1)
		}
	}
}

func checkTrace(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf traceFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("%s: no traceEvents", path)
	}
	// Track open async spans per (pid, cat, id) — Chrome's nestable-event
	// matching key — and per-span timestamp monotonicity.
	type spanKey struct {
		pid int
		cat string
		id  string
	}
	type openSpan struct {
		begin float64 // begin timestamp, for the end<begin duration check
		last  float64 // latest timestamp seen, for per-span monotonicity
	}
	open := map[spanKey]openSpan{}
	named := map[int]bool{} // pids that carry a process_name
	var spans, steps int
	for i, ev := range tf.TraceEvents {
		at := func(msg string, args ...any) error {
			return fmt.Errorf("%s: event %d (%s %q): %s", path, i, ev.Ph, ev.Name, fmt.Sprintf(msg, args...))
		}
		if ev.Pid == nil {
			return at("missing pid")
		}
		switch ev.Ph {
		case "M":
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				return at("unknown metadata name")
			}
			if len(ev.Args) == 0 {
				return at("metadata without args")
			}
			if ev.Name == "process_name" {
				if named[*ev.Pid] {
					return at("pid %d already has a process_name (pid collision)", *ev.Pid)
				}
				named[*ev.Pid] = true
			}
		case "b", "n", "e":
			if ev.Ts == nil || ev.Tid == nil || ev.ID == "" {
				return at("async event missing ts/tid/id")
			}
			if *ev.Ts < 0 {
				return at("negative timestamp %v", *ev.Ts)
			}
			k := spanKey{*ev.Pid, ev.Cat, ev.ID}
			switch ev.Ph {
			case "b":
				if _, ok := open[k]; ok {
					return at("duplicate begin for id %s", ev.ID)
				}
				if ev.Name == "" {
					return at("begin without name")
				}
				open[k] = openSpan{begin: *ev.Ts, last: *ev.Ts}
				spans++
			case "n", "e":
				sp, ok := open[k]
				if !ok {
					return at("%s without begin for id %s", ev.Ph, ev.ID)
				}
				if ev.Ph == "e" && *ev.Ts < sp.begin {
					return at("span has negative duration: ends at %v, began at %v", *ev.Ts, sp.begin)
				}
				if *ev.Ts < sp.last {
					return at("timestamp moved backwards (%v < %v)", *ev.Ts, sp.last)
				}
				sp.last = *ev.Ts
				open[k] = sp
				if ev.Ph == "e" {
					delete(open, k)
				} else {
					steps++
				}
			}
		default:
			return at("unknown phase")
		}
	}
	if len(open) > 0 {
		return fmt.Errorf("%s: %d async spans never ended", path, len(open))
	}
	if spans == 0 {
		return fmt.Errorf("%s: no request spans", path)
	}
	fmt.Printf("%s: ok (%d events, %d request spans, %d stage steps)\n",
		path, len(tf.TraceEvents), spans, steps)
	return nil
}

// checkFlight decodes one flight-recorder dump (CRC-framed .emfr) and runs
// the semantic verification: exact-sum phases, monotonic event timeline.
func checkFlight(path string) error {
	d, err := span.ReadDumpFile(path)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := d.Verify(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: ok (job %s, reason %s, %d events, %d phases over %dns)\n",
		path, d.JobID, d.Reason, len(d.Events), len(d.PhasesNS), d.WallNS)
	return nil
}

func checkMetrics(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %s", url, resp.Status)
	}
	samples, families, err := checkExposition(string(body))
	if err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	fmt.Printf("%s: ok (%d emcsim_ metric lines in %d families)\n", url, samples, families)
	return nil
}

// checkExposition checks the structure of a Prometheus text exposition:
// each family has exactly one # TYPE line, a family's lines are contiguous,
// and every histogram series has cumulative buckets whose le="+Inf" count
// equals its _count. It returns the number of emcsim_ sample lines and of
// families, and fails when there are no emcsim_ samples.
func checkExposition(body string) (samples, families int, err error) {
	types := map[string]string{} // family -> declared type
	closed := map[string]bool{}  // families whose lines have ended
	cur := ""
	enter := func(fam string) error {
		if fam == cur {
			return nil
		}
		if closed[fam] {
			return fmt.Errorf("family %s: lines are not contiguous", fam)
		}
		if cur != "" {
			closed[cur] = true
		}
		cur = fam
		families++
		return nil
	}
	type hist struct {
		last, inf, count float64
		hasInf, hasCount bool
	}
	hists := map[string]*hist{} // histogram series (name + labels without le)
	var order []string
	for n, line := range strings.Split(body, "\n") {
		at := func(msg string, args ...any) error {
			return fmt.Errorf("line %d %q: %s", n+1, line, fmt.Sprintf(msg, args...))
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				return 0, 0, at("malformed # TYPE line")
			}
			if _, dup := types[f[2]]; dup {
				return 0, 0, at("family %s has a second # TYPE line", f[2])
			}
			types[f[2]] = f[3]
			if err := enter(f[2]); err != nil {
				return 0, 0, at("%v", err)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return 0, 0, at("%v", err)
		}
		if strings.HasPrefix(name, "emcsim_") {
			samples++
		}
		fam, suffix := name, ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, sfx); base != name && types[base] == "histogram" {
				fam, suffix = base, sfx
			}
		}
		if err := enter(fam); err != nil {
			return 0, 0, at("%v", err)
		}
		if suffix == "" || suffix == "_sum" {
			continue
		}
		var le string
		var rest []string
		for _, l := range labels {
			if strings.HasPrefix(l, "le=") {
				le = l
			} else {
				rest = append(rest, l)
			}
		}
		key := fam + "{" + strings.Join(rest, ",") + "}"
		h := hists[key]
		if h == nil {
			h = &hist{}
			hists[key] = h
			order = append(order, key)
		}
		switch {
		case suffix == "_count":
			h.count, h.hasCount = value, true
		case le == "":
			return 0, 0, at("histogram bucket without le label")
		case value < h.last:
			return 0, 0, at("bucket count %v below the previous bucket's %v: buckets must be cumulative", value, h.last)
		default:
			h.last = value
			if le == `le="+Inf"` {
				h.inf, h.hasInf = value, true
			}
		}
	}
	for _, key := range order {
		h := hists[key]
		if !h.hasInf || !h.hasCount || h.inf != h.count {
			return 0, 0, fmt.Errorf("histogram %s: le=\"+Inf\" bucket (%v) must equal _count (%v)", key, h.inf, h.count)
		}
	}
	if samples == 0 {
		return 0, 0, fmt.Errorf("no emcsim_ metrics in response")
	}
	return samples, families, nil
}

// parseSample splits one exposition sample line, name{k="v",...} value,
// into its name, its label pairs (as written) and its value.
func parseSample(line string) (name string, labels []string, value float64, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("no value")
	}
	name, rest := line[:i], line[i:]
	if strings.HasPrefix(rest, "{") {
		start, end, quoted := 1, -1, false
		for i := 1; i < len(rest) && end < 0; i++ {
			switch c := rest[i]; {
			case quoted && c == '\\':
				i++
			case c == '"':
				quoted = !quoted
			case !quoted && (c == ',' || c == '}'):
				if i > start {
					labels = append(labels, rest[start:i])
				}
				start = i + 1
				if c == '}' {
					end = i
				}
			}
		}
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label set")
		}
		rest = rest[end+1:]
	}
	f := strings.Fields(rest)
	if len(f) == 0 {
		return "", nil, 0, fmt.Errorf("no value")
	}
	value, err = strconv.ParseFloat(f[0], 64)
	return name, labels, value, err
}

func checkCounters(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var log struct {
		Interval uint64   `json:"intervalCycles"`
		Names    []string `json:"names"`
		Samples  []struct {
			Cycle  uint64    `json:"cycle"`
			Values []float64 `json:"values"`
		} `json:"samples"`
	}
	if err := json.Unmarshal(raw, &log); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if log.Interval == 0 || len(log.Names) == 0 || len(log.Samples) == 0 {
		return fmt.Errorf("%s: empty counter log", path)
	}
	for i, s := range log.Samples {
		if len(s.Values) != len(log.Names) {
			return fmt.Errorf("%s: sample %d has %d values for %d names", path, i, len(s.Values), len(log.Names))
		}
		if i > 0 && s.Cycle <= log.Samples[i-1].Cycle {
			return fmt.Errorf("%s: sample cycles not increasing at %d", path, i)
		}
	}
	fmt.Printf("%s: ok (%d counters x %d samples every %d cycles)\n",
		path, len(log.Names), len(log.Samples), log.Interval)
	return nil
}
