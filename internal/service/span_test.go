package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/sim"
)

// TestServiceSpansReconcile: every job the scheduler finishes leaves a span
// whose phase durations exact-sum to its wall clock, with the right outcome
// and cached flag — the service-layer mirror of TestAttributionReconciles.
func TestServiceSpansReconcile(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 2, QueueCap: 8, Metrics: reg})
	defer s.Close()

	cfg := tinyCfg(1)
	if _, err := s.Run(context.Background(), "t", cfg); err != nil {
		t.Fatal(err)
	}
	// Resubmit: the cache hit must produce its own span, marked Cached.
	j2, err := s.Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()

	spans := s.Recorder().Spans()
	if len(spans) != 2 {
		t.Fatalf("recorder retained %d spans, want 2", len(spans))
	}
	var sawCached bool
	for _, sp := range spans {
		ph := sp.Phases()
		var sum int64
		for p := span.Phase(0); p < span.NumPhases; p++ {
			if ph[p] < 0 {
				t.Fatalf("span %s phase %s negative: %d", sp.JobID, p, ph[p])
			}
			sum += ph[p]
		}
		if sum != sp.Total() {
			t.Fatalf("span %s phases sum to %d, wall clock %d (exact-sum violated)", sp.JobID, sum, sp.Total())
		}
		if sp.Outcome != string(StateDone) {
			t.Fatalf("span %s outcome %q, want done", sp.JobID, sp.Outcome)
		}
		if sp.Cached {
			sawCached = true
			if sp.AdmitAt != span.NoAdmit {
				t.Fatalf("cached span has AdmitAt %d, want NoAdmit", sp.AdmitAt)
			}
		}
	}
	if !sawCached {
		t.Fatal("no cached span recorded for the resubmission")
	}

	// The phase histograms must have landed on /metrics.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE emcsim_service_phase_seconds histogram",
		`emcsim_service_phase_seconds_count{phase="running"`,
		`emcsim_service_phase_seconds_count{phase="cache_hit"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHungJobFlightDump is the induced-hang acceptance path: a job that
// stalls under the watchdog produces a flight-recorder dump whose phases
// exact-sum to the job's wall clock at dump time, plus a goroutine profile
// capturing the stalled stack.
func TestHungJobFlightDump(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueCap: 4, HungTimeout: 50 * time.Millisecond, FlightDir: dir, AttemptHook: parkBlockers})
	defer s.Close()
	defer close(release)

	j, err := s.Submit("t", blockerCfg(release))
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, func(st Stats) bool { return st.Hung == 1 && st.FlightDumps >= 1 })

	matches, err := filepath.Glob(filepath.Join(dir, j.ID()+"-hung-*"+span.DumpExt))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no hung dump for %s in %s (err=%v)", j.ID(), dir, err)
	}
	d, err := span.ReadDumpFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("dump fails verification: %v", err)
	}
	if d.Reason != "hung" || d.JobID != j.ID() {
		t.Fatalf("dump identity: reason %q job %q", d.Reason, d.JobID)
	}
	var sum int64
	for _, v := range d.PhasesNS {
		sum += v
	}
	if sum != d.WallNS || d.WallNS != d.DumpAtNS-d.SubmitAtNS {
		t.Fatalf("phases sum %d, wall %d, dump-submit %d: exact-sum broken",
			sum, d.WallNS, d.DumpAtNS-d.SubmitAtNS)
	}
	var sawHung bool
	for _, ev := range d.Events {
		if ev.Kind == "hung" {
			sawHung = true
		}
	}
	if !sawHung {
		t.Fatalf("dump events missing the hung verdict: %+v", d.Events)
	}

	prof, err := os.ReadFile(matches[0] + span.GoroutinesExt)
	if err != nil {
		t.Fatalf("no goroutine profile alongside the dump: %v", err)
	}
	if !strings.Contains(string(prof), "goroutine") {
		t.Fatal("goroutine profile is empty or malformed")
	}

	// Per-lane stats must attribute the hang to the blocked job's lane.
	st := s.Stats()
	if len(st.Shards) != 1 || st.Shards[0].Hung != 1 || st.Shards[0].Running != 1 {
		t.Fatalf("shard stats = %+v, want 1 running+hung on shard 0", st.Shards)
	}
}

// TestPanicFlightDump: a panicking attempt writes a "panic" dump for every
// attempt, carrying the panic text, before the retry budget verdict.
func TestPanicFlightDump(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, QueueCap: 4, MaxRetries: 1, FlightDir: dir,
		AttemptHook: func(sim.Config) { panic("induced test panic") }})
	defer s.Close()

	j, err := s.Submit("t", tinyCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err == nil {
		t.Fatal("panicking job reported success")
	}

	matches, _ := filepath.Glob(filepath.Join(dir, j.ID()+"-panic-*"+span.DumpExt))
	if len(matches) != 2 { // first attempt + the retry
		t.Fatalf("%d panic dumps, want 2: %v", len(matches), matches)
	}
	for _, m := range matches {
		d, err := span.ReadDumpFile(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Verify(); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if !strings.Contains(d.Error, "induced test panic") {
			t.Fatalf("%s: dump error %q does not carry the panic text", m, d.Error)
		}
	}
}

// TestProgressStreamChunkedFraming: the NDJSON progress stream stays
// line-framed no matter how the client's reads chunk it — every
// newline-delimited record parses on its own, ending with a terminal one.
func TestProgressStreamChunkedFraming(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 4})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s, nil))
	defer srv.Close()

	j, err := s.Submit("t", tinyCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Get(srv.URL + "/api/v1/jobs/" + j.ID() + "/progress?poll=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}

	// Read the stream 7 bytes at a time: records must reassemble across
	// chunk boundaries purely via the newline framing.
	var acc []byte
	var lines []string
	buf := make([]byte, 7)
	for {
		n, err := resp.Body.Read(buf)
		acc = append(acc, buf[:n]...)
		for {
			i := strings.IndexByte(string(acc), '\n')
			if i < 0 {
				break
			}
			lines = append(lines, string(acc[:i]))
			acc = acc[i+1:]
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(acc) != 0 {
		t.Fatalf("stream ended mid-record: %q", acc)
	}
	if len(lines) == 0 {
		t.Fatal("no records on the progress stream")
	}
	var last Status
	for i, line := range lines {
		var st Status
		if err := json.Unmarshal([]byte(line), &st); err != nil {
			t.Fatalf("record %d is not standalone JSON: %v\n%q", i, err, line)
		}
		if st.ID != j.ID() {
			t.Fatalf("record %d for job %q, want %q", i, st.ID, j.ID())
		}
		last = st
	}
	if !last.State.Terminal() {
		t.Fatalf("final record state %q, want terminal", last.State)
	}
}

// TestStatsStreamAndTraceEndpoints: the dashboard stream frames parse and
// carry per-lane stats; /api/v1/trace 409s when empty, then exports
// balanced Chrome spans.
func TestStatsStreamAndTraceEndpoints(t *testing.T) {
	s := New(Config{Workers: 2, QueueCap: 8})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s, nil))
	defer srv.Close()

	if resp, err := srv.Client().Get(srv.URL + "/api/v1/trace"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 409 {
			t.Fatalf("empty trace status %d, want 409", resp.StatusCode)
		}
	}

	if _, err := s.Run(context.Background(), "t", tinyCfg(5)); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/api/v1/stats/stream?poll=10&frames=2")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 {
		t.Fatalf("stats stream sent %d frames, want 2", len(lines))
	}
	for i, line := range lines {
		var f StatsFrame
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(f.Stats.Shards) != 2 {
			t.Fatalf("frame %d has %d shards, want 2", i, len(f.Stats.Shards))
		}
	}

	resp, err = srv.Client().Get(srv.URL + "/api/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("trace status %d err %v", resp.StatusCode, err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &tf); err != nil {
		t.Fatalf("trace export not JSON: %v", err)
	}
	begins, ends := 0, 0
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "b":
			begins++
		case "e":
			ends++
		}
	}
	if begins == 0 || begins != ends {
		t.Fatalf("trace has %d begins / %d ends", begins, ends)
	}
}
