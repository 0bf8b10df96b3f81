package span

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestSpanPhasesReconcile pins the exact-sum invariant for every lifecycle
// shape: the phase durations partition the span's wall clock with no
// remainder, the same discipline TestAttributionReconciles enforces for
// simulated miss latency.
func TestSpanPhasesReconcile(t *testing.T) {
	cases := []struct {
		name string
		sp   Span
		want map[Phase]int64
	}{
		{
			name: "ran normally",
			sp:   Span{SubmitAt: 100, AdmitAt: 350, FinishAt: 1000},
			want: map[Phase]int64{PhaseQueued: 250, PhaseRunning: 650},
		},
		{
			name: "cache hit",
			sp:   Span{SubmitAt: 100, AdmitAt: NoAdmit, FinishAt: 140, Cached: true},
			want: map[Phase]int64{PhaseCacheHit: 40},
		},
		{
			name: "cancelled while queued",
			sp:   Span{SubmitAt: 100, AdmitAt: NoAdmit, FinishAt: 900},
			want: map[Phase]int64{PhaseQueued: 800},
		},
		{
			name: "zero-duration cache hit",
			sp:   Span{SubmitAt: 100, AdmitAt: NoAdmit, FinishAt: 100, Cached: true},
			want: map[Phase]int64{},
		},
		{
			name: "admitted instantly",
			sp:   Span{SubmitAt: 100, AdmitAt: 100, FinishAt: 500},
			want: map[Phase]int64{PhaseRunning: 400},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ph := tc.sp.Phases()
			var sum int64
			for p := Phase(0); p < NumPhases; p++ {
				sum += ph[p]
				if ph[p] != tc.want[p] {
					t.Errorf("phase %s = %d, want %d", p, ph[p], tc.want[p])
				}
			}
			if sum != tc.sp.Total() {
				t.Errorf("phases sum to %d, wall clock is %d", sum, tc.sp.Total())
			}
		})
	}
}

// TestRingWrap: the ring keeps the newest events, reports the truncation
// count, and returns events oldest-first.
func TestRingWrap(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 20; i++ {
		r.Record(int64(i), EvProgress, uint64(i), 0)
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
	if r.Truncated() != 12 {
		t.Fatalf("Truncated = %d, want 12", r.Truncated())
	}
	evs := r.Events(nil)
	for i, ev := range evs {
		if want := int64(12 + i); ev.At != want {
			t.Fatalf("event %d At = %d, want %d (oldest-first order broken)", i, ev.At, want)
		}
	}
}

// TestRecorderPoolRecycles: rings released by FinishSpan come back from the
// pool cleared.
func TestRecorderPoolRecycles(t *testing.T) {
	rec := NewRecorder()
	r1 := rec.AcquireRing()
	r1.Record(1, EvSubmit, 0, 0)
	rec.FinishSpan(Span{JobID: "j1", Outcome: "done", SubmitAt: 0, AdmitAt: 1, FinishAt: 2}, r1)
	r2 := rec.AcquireRing()
	if r2 != r1 {
		t.Fatal("ring was not recycled through the pool")
	}
	if r2.Len() != 0 {
		t.Fatalf("recycled ring not reset: %d events", r2.Len())
	}
}

// TestRecorderRetentionBound: the finished-span retention stays bounded and
// counts what it drops.
func TestRecorderRetentionBound(t *testing.T) {
	rec := NewRecorder()
	const finished = 3 * retainSpans
	for i := 0; i < finished; i++ {
		rec.FinishSpan(Span{JobID: "j", Outcome: "done"}, nil)
	}
	n := len(rec.Spans())
	if n > retainSpans {
		t.Fatalf("retained %d spans, want <= %d", n, retainSpans)
	}
	if d := rec.Dropped(); d == 0 || uint64(n)+d != finished {
		t.Fatalf("retained %d and dropped %d of %d spans", n, d, finished)
	}
}

// TestDumpRoundTrip: encode → decode → verify preserves everything and the
// CRC catches corruption.
func TestDumpRoundTrip(t *testing.T) {
	d := &Dump{
		JobID: "j7", Key: "k", Client: "t", Shard: 1,
		Reason: "hung", State: "running", Attempts: 2,
		SubmitAtNS: 100, AdmitAtNS: 400, DumpAtNS: 1100, WallNS: 1000,
		PhasesNS: map[string]int64{"queued": 300, "running": 700},
		Cycles:   5000, Retired: 1200, TargetInstrs: 4000,
		Events: []DumpEvent{
			{AtNS: 100, Kind: "submit"},
			{AtNS: 400, Kind: "admit"},
			{AtNS: 900, Kind: "progress", Arg: 5000, Arg2: 1200},
		},
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	path := filepath.Join(t.TempDir(), "j7-hung"+DumpExt)
	if err := WriteDumpFile(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDumpFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("Verify after round trip: %v", err)
	}
	a, _ := json.Marshal(d)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip changed the dump:\n%s\n%s", a, b)
	}

	// Flip one payload byte: the CRC must reject it.
	frame, err := EncodeDump(d)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)/2] ^= 0xff
	if _, err := DecodeDump(frame); err == nil {
		t.Fatal("corrupted frame decoded without error")
	}
}

// TestDumpVerifyRejects: the semantic gate catches broken exact-sums,
// negative durations, and non-monotonic events.
func TestDumpVerifyRejects(t *testing.T) {
	base := func() *Dump {
		return &Dump{
			JobID: "j", Reason: "failed", WallNS: 100,
			PhasesNS: map[string]int64{"queued": 40, "running": 60},
			Events:   []DumpEvent{{AtNS: 1, Kind: "submit"}, {AtNS: 2, Kind: "admit"}},
		}
	}
	cases := []struct {
		name  string
		mutat func(*Dump)
		want  string
	}{
		{"sum mismatch", func(d *Dump) { d.PhasesNS["running"] = 61 }, "exact-sum"},
		{"negative phase", func(d *Dump) { d.PhasesNS["queued"] = -1; d.PhasesNS["running"] = 101 }, "negative"},
		{"negative wall", func(d *Dump) { d.WallNS = -5 }, "negative wall"},
		{"backwards events", func(d *Dump) { d.Events[1].AtNS = 0 }, "backwards"},
		{"unknown kind", func(d *Dump) { d.Events[0].Kind = "nope" }, "unknown kind"},
		{"unknown phase", func(d *Dump) { d.PhasesNS["warp"] = 0 }, "unknown phase"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := base()
			tc.mutat(d)
			err := d.Verify()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Verify = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestAddTraceShape: the job timeline exports balanced async events with
// monotonic timestamps (the same contract cmd/tracecheck enforces).
func TestAddTraceShape(t *testing.T) {
	spans := []Span{
		{JobID: "j1", Client: "a", Shard: 0, Outcome: "done", SubmitAt: 0, AdmitAt: 1000, FinishAt: 9000},
		{JobID: "j2", Client: "a", Shard: 1, Outcome: "failed", Attempts: 3, SubmitAt: 500, AdmitAt: 700, FinishAt: 1200},
		{JobID: "j3", Client: "b", Shard: 0, Outcome: "done", Cached: true, SubmitAt: 2000, AdmitAt: NoAdmit, FinishAt: 2001},
	}
	var exp obs.ChromeExport
	AddTrace(&exp, "test-service", spans)
	var buf bytes.Buffer
	if err := exp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph string   `json:"ph"`
			Ts *float64 `json:"ts"`
			ID string   `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	begins, ends := 0, 0
	last := map[string]float64{}
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "b":
			begins++
			last[ev.ID] = *ev.Ts
		case "n", "e":
			if *ev.Ts < last[ev.ID] {
				t.Fatalf("span %s timestamp moved backwards", ev.ID)
			}
			last[ev.ID] = *ev.Ts
			if ev.Ph == "e" {
				ends++
			}
		}
	}
	if begins != 3 || ends != 3 {
		t.Fatalf("want 3 balanced spans, got %d begins / %d ends", begins, ends)
	}
}

// TestRecorderHistogramExposition: finished spans land in the right cumulative
// buckets of the registry's phase histograms, which render as a well-formed
// Prometheus histogram.
func TestRecorderHistogramExposition(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRecorder()
	r.Register(reg, 2)
	r.FinishSpan(Span{Shard: 0, SubmitAt: 0, AdmitAt: 400_000, FinishAt: 400_000}, nil)       // queued 0.0004: le=0.001
	r.FinishSpan(Span{Shard: 0, SubmitAt: 0, AdmitAt: 50_000_000, FinishAt: 50_000_000}, nil) // queued 0.05: le=0.1
	r.FinishSpan(Span{Shard: 1, SubmitAt: 0, AdmitAt: 0, FinishAt: 120_000_000_000}, nil)     // running 120: only +Inf
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`# TYPE emcsim_service_phase_seconds histogram`,
		`emcsim_service_phase_seconds_bucket{phase="queued",shard="0",le="0.001"} 1`,
		`emcsim_service_phase_seconds_bucket{phase="queued",shard="0",le="+Inf"} 2`,
		`emcsim_service_phase_seconds_count{phase="queued",shard="0"} 2`,
		`emcsim_service_phase_seconds_bucket{phase="running",shard="1",le="60"} 0`,
		`emcsim_service_phase_seconds_bucket{phase="running",shard="1",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `phase="cache_hit"`) {
		t.Error("unobserved phase/shard pairs should be omitted")
	}
}
