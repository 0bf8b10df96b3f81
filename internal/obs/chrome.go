package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// ChromeExport is the one Chrome trace_event writer: it merges processes —
// simulator runs (Add) and any other timeline laid out by AddProcess, such
// as the service's job spans — into a single trace_event JSON file (the
// "JSON Object Format" with a traceEvents wrapper), viewable in Perfetto /
// chrome://tracing and validated by cmd/tracecheck.
//
// The export owns the envelope, the process/thread metadata events and the
// async nestable b/n/e events. It numbers processes 0, 1, 2, ... in the
// order they are added, so a file combining several sources never has two
// processes on one pid. Async events keep the many overlapping spans of one
// thread from being forced into a nesting hierarchy.
type ChromeExport struct {
	mu    sync.Mutex
	procs []chromeProc
}

// chromeProc is one process of an export: its label and the mapping that
// lays its data out as threads and spans.
type chromeProc struct {
	label  string
	tracks func(*TraceProcess)
}

// Add appends one finished run's retained records as a process. Safe for
// concurrent use (figure suites finish runs on many goroutines).
func (e *ChromeExport) Add(label string, t *Tracer) {
	if t == nil || len(t.Records()) == 0 {
		return
	}
	recs := t.Records()
	e.AddProcess(label, func(p *TraceProcess) { recordTracks(p, recs) })
}

// AddProcess appends one process; tracks writes its threads and spans when
// the export is written. Safe for concurrent use.
func (e *ChromeExport) AddProcess(label string, tracks func(*TraceProcess)) {
	e.mu.Lock()
	e.procs = append(e.procs, chromeProc{label: label, tracks: tracks})
	e.mu.Unlock()
}

// Runs returns the number of processes added.
func (e *ChromeExport) Runs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.procs)
}

// TraceProcess writes the events of one process under the pid the export
// assigned it.
type TraceProcess struct {
	w   *traceWriter
	pid int
}

type traceMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceAsync struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id"`
	Args map[string]any `json:"args,omitempty"`
}

// Thread names thread tid.
func (p *TraceProcess) Thread(tid int, name string) {
	p.w.emit(traceMeta{Name: "thread_name", Ph: "M", Pid: p.pid, Tid: tid,
		Args: map[string]any{"name": name}})
}

// Event emits one async nestable event of span id on thread tid: ph is "b"
// (begin), "n" (an instant step) or "e" (end). ts is in microseconds.
func (p *TraceProcess) Event(ph, cat, name, id string, tid int, ts float64, args map[string]any) {
	p.w.emit(traceAsync{Name: name, Cat: cat, Ph: ph, Ts: ts, Pid: p.pid, Tid: tid, ID: id, Args: args})
}

// traceWriter streams the traceEvents array. bufio.Writer keeps the first
// write error and returns it from Flush; err holds a marshal failure.
type traceWriter struct {
	bw    *bufio.Writer
	first bool
	err   error
}

func (w *traceWriter) emit(v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	if !w.first {
		w.bw.WriteByte(',')
	}
	w.first = false
	w.bw.WriteByte('\n')
	w.bw.Write(raw)
}

// WriteJSON streams the export as trace-event JSON.
func (e *ChromeExport) WriteJSON(w io.Writer) error {
	e.mu.Lock()
	procs := append([]chromeProc(nil), e.procs...)
	e.mu.Unlock()
	tw := &traceWriter{bw: bufio.NewWriterSize(w, 1<<16), first: true}
	tw.bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for pid, proc := range procs {
		tw.emit(traceMeta{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": proc.label}})
		proc.tracks(&TraceProcess{w: tw, pid: pid})
	}
	tw.bw.WriteString("\n]}\n")
	if err := tw.bw.Flush(); err != nil {
		return err
	}
	return tw.err
}

// WriteFile writes the export to path.
func (e *ChromeExport) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recordTracks lays out one simulator run: one thread per requester (core
// i, or 1000+mc for EMC-issued requests) and one span per request, from
// issue to its last stage with a step at every stage. Cycles are written as
// microseconds (1 cycle = 1us).
func recordTracks(p *TraceProcess, recs []*Record) {
	threads := map[int]bool{}
	for _, r := range recs {
		if len(r.Events) == 0 {
			continue
		}
		tid := r.Core
		if r.Source == SrcEMC {
			tid = 1000 + r.Core
		}
		if !threads[tid] {
			threads[tid] = true
			name := fmt.Sprintf("core %d", r.Core)
			if r.Source == SrcEMC {
				name = fmt.Sprintf("emc (core %d chains)", r.Core)
			}
			p.Thread(tid, name)
		}
		id := fmt.Sprintf("%#x", r.ID)
		name := r.Source.String() + " miss"
		if r.Dependent {
			name = r.Source.String() + " dependent miss"
		}
		// Stamps arrive in stamp order, not time order: dram_issue is
		// backdated to the DRAM request's issue cycle, which precedes
		// this waiter's own arrival when it merged onto an in-flight
		// line. The span's timeline must be monotonic, so emit the
		// stages sorted by cycle (every stage becomes a step).
		evs := append([]Event(nil), r.Events...)
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		p.Event("b", "miss", name, id, tid, float64(evs[0].At),
			map[string]any{"line": fmt.Sprintf("%#x", r.Line), "pc": fmt.Sprintf("%#x", r.PC)})
		for _, ev := range evs {
			p.Event("n", "miss", ev.Stage.String(), id, tid, float64(ev.At), nil)
		}
		p.Event("e", "miss", name, id, tid, float64(evs[len(evs)-1].At), nil)
	}
}
