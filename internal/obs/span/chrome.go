package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ChromePidBase is the process id the service timeline exports under.
// Simulator traces (internal/obs.ChromeExport) number their processes from
// 0, one per run; starting the service pid here keeps a merged file — one
// timeline showing service queueing above simulated cycles — collision-free.
const ChromePidBase = 10000

// WriteChrome exports finished job spans as Chrome trace_event JSON (the
// same "JSON Object Format" envelope as the simulator's trace export, so
// cmd/tracecheck validates both and the traceEvents arrays merge cleanly).
//
// Mapping: one process for the service (label), one thread per worker lane
// (named "shard N"), and one async nestable event per job: "b" at submit, an
// instant "n" step at each recorded phase boundary, "e" at finish.
// Timestamps are microseconds on the recorder's monotonic base. Running jobs
// are not exported — an unterminated async span would fail validation;
// snapshot again after the sweep drains.
func WriteChrome(w io.Writer, label string, spans []Span) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(v any) error {
		raw, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		bw.WriteByte('\n')
		_, err = bw.Write(raw)
		return err
	}
	type meta struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	type async struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		ID   string         `json:"id"`
		Args map[string]any `json:"args,omitempty"`
	}
	pid := ChromePidBase
	if err := emit(meta{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": label}}); err != nil {
		return err
	}
	shards := map[int]bool{}
	for _, sp := range spans {
		if !shards[sp.Shard] {
			shards[sp.Shard] = true
		}
	}
	ordered := make([]int, 0, len(shards))
	for s := range shards {
		ordered = append(ordered, s)
	}
	sort.Ints(ordered)
	for _, s := range ordered {
		if err := emit(meta{Name: "thread_name", Ph: "M", Pid: pid, Tid: s,
			Args: map[string]any{"name": fmt.Sprintf("shard %d", s)}}); err != nil {
			return err
		}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, sp := range spans {
		name := "job " + sp.Outcome
		if sp.Cached {
			name = "job cache-hit"
		}
		args := map[string]any{"client": sp.Client, "attempts": sp.Attempts}
		if sp.Hung {
			args["hung"] = true
		}
		if sp.Coalesced > 0 {
			args["coalesced"] = sp.Coalesced
		}
		if err := emit(async{Name: name, Cat: "job", Ph: "b", Ts: us(sp.SubmitAt),
			Pid: pid, Tid: sp.Shard, ID: sp.JobID, Args: args}); err != nil {
			return err
		}
		if sp.AdmitAt != NoAdmit {
			if err := emit(async{Name: "admitted", Cat: "job", Ph: "n", Ts: us(sp.AdmitAt),
				Pid: pid, Tid: sp.Shard, ID: sp.JobID}); err != nil {
				return err
			}
		}
		if err := emit(async{Name: name, Cat: "job", Ph: "e", Ts: us(sp.FinishAt),
			Pid: pid, Tid: sp.Shard, ID: sp.JobID}); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
