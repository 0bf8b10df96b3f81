package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/sim"
)

// writeTrace writes a trace file whose traceEvents array is the given JSON
// event objects.
func writeTrace(t *testing.T, events ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	body := fmt.Sprintf(`{"displayTimeUnit":"ms","traceEvents":[%s]}`, strings.Join(events, ","))
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const meta = `{"name":"process_name","ph":"M","pid":1,"args":{"name":"t"}}`

// TestCheckTraceRejectsNegativeDuration: a span that ends before it begins
// must fail with a distinct error (the fix this test pins — before it, only
// intermediate "n" steps enforced ordering).
func TestCheckTraceRejectsNegativeDuration(t *testing.T) {
	path := writeTrace(t, meta,
		`{"name":"job","cat":"svc","ph":"b","ts":500,"pid":1,"tid":0,"id":"0x1"}`,
		`{"cat":"svc","ph":"e","ts":400,"pid":1,"tid":0,"id":"0x1"}`,
	)
	err := checkTrace(path)
	if err == nil || !strings.Contains(err.Error(), "negative duration") {
		t.Fatalf("checkTrace = %v, want negative-duration error", err)
	}
}

// TestCheckTraceRejectsNegativeTimestamp: raw negative timestamps are
// invalid in our exports (all times are offsets from a run base).
func TestCheckTraceRejectsNegativeTimestamp(t *testing.T) {
	path := writeTrace(t, meta,
		`{"name":"job","cat":"svc","ph":"b","ts":-3,"pid":1,"tid":0,"id":"0x1"}`,
		`{"cat":"svc","ph":"e","ts":10,"pid":1,"tid":0,"id":"0x1"}`,
	)
	err := checkTrace(path)
	if err == nil || !strings.Contains(err.Error(), "negative timestamp") {
		t.Fatalf("checkTrace = %v, want negative-timestamp error", err)
	}
}

// TestCheckTraceRejectsBackwardsStep: an "n" step older than the span's
// latest timestamp still fails with the monotonicity error.
func TestCheckTraceRejectsBackwardsStep(t *testing.T) {
	path := writeTrace(t, meta,
		`{"name":"job","cat":"svc","ph":"b","ts":100,"pid":1,"tid":0,"id":"0x1"}`,
		`{"name":"s1","cat":"svc","ph":"n","ts":300,"pid":1,"tid":0,"id":"0x1"}`,
		`{"name":"s2","cat":"svc","ph":"n","ts":200,"pid":1,"tid":0,"id":"0x1"}`,
		`{"cat":"svc","ph":"e","ts":400,"pid":1,"tid":0,"id":"0x1"}`,
	)
	err := checkTrace(path)
	if err == nil || !strings.Contains(err.Error(), "moved backwards") {
		t.Fatalf("checkTrace = %v, want moved-backwards error", err)
	}
}

// TestCheckTraceAcceptsValid: a balanced span with in-order steps passes.
func TestCheckTraceAcceptsValid(t *testing.T) {
	path := writeTrace(t, meta,
		`{"name":"job","cat":"svc","ph":"b","ts":100,"pid":1,"tid":0,"id":"0x1"}`,
		`{"name":"s1","cat":"svc","ph":"n","ts":200,"pid":1,"tid":0,"id":"0x1"}`,
		`{"cat":"svc","ph":"e","ts":400,"pid":1,"tid":0,"id":"0x1"}`,
	)
	if err := checkTrace(path); err != nil {
		t.Fatalf("checkTrace: %v", err)
	}
}

// TestCheckFlight: -flight mode accepts a valid dump, rejects a corrupted
// frame, and rejects a dump whose phases break the exact-sum invariant.
func TestCheckFlight(t *testing.T) {
	dir := t.TempDir()
	good := &span.Dump{
		JobID: "j1", Reason: "panic", State: "running", Attempts: 1,
		SubmitAtNS: 0, AdmitAtNS: 10, DumpAtNS: 100, WallNS: 100,
		PhasesNS: map[string]int64{"queued": 10, "running": 90},
		Events:   []span.DumpEvent{{AtNS: 0, Kind: "submit"}, {AtNS: 10, Kind: "admit"}},
	}
	goodPath := filepath.Join(dir, "good.emfr")
	if err := span.WriteDumpFile(goodPath, good); err != nil {
		t.Fatal(err)
	}
	if err := checkFlight(goodPath); err != nil {
		t.Fatalf("checkFlight(good): %v", err)
	}

	frame, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)/2] ^= 0x55
	badCRC := filepath.Join(dir, "badcrc.emfr")
	if err := os.WriteFile(badCRC, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkFlight(badCRC); err == nil {
		t.Fatal("checkFlight accepted a corrupted frame")
	}

	bad := *good
	bad.PhasesNS = map[string]int64{"queued": 10, "running": 80} // sums to 90, not 100
	badSum := filepath.Join(dir, "badsum.emfr")
	if err := span.WriteDumpFile(badSum, &bad); err != nil {
		t.Fatal(err)
	}
	err = checkFlight(badSum)
	if err == nil || !strings.Contains(err.Error(), "exact-sum") {
		t.Fatalf("checkFlight(badsum) = %v, want exact-sum error", err)
	}
}

// TestCheckTraceRejectsPidCollision: two processes named on one pid are
// what a pid collision between merged exports looks like.
func TestCheckTraceRejectsPidCollision(t *testing.T) {
	path := writeTrace(t, meta,
		`{"name":"process_name","ph":"M","pid":1,"args":{"name":"u"}}`,
		`{"name":"job","cat":"svc","ph":"b","ts":100,"pid":1,"tid":0,"id":"0x1"}`,
		`{"cat":"svc","ph":"e","ts":400,"pid":1,"tid":0,"id":"0x1"}`,
	)
	err := checkTrace(path)
	if err == nil || !strings.Contains(err.Error(), "pid collision") {
		t.Fatalf("checkTrace = %v, want pid-collision error", err)
	}
}

// TestCheckTraceCombinedExport: one writer exports a traced simulator run
// and a job timeline into one file; it validates, and the two processes
// sit on distinct pids.
func TestCheckTraceCombinedExport(t *testing.T) {
	cfg := sim.Default([]string{"mcf", "sphinx3", "soplex", "libquantum"})
	cfg.InstrPerCore = 1000
	cfg.EMCEnabled = true
	cfg.Obs = obs.Config{Enabled: true, SampleEvery: 1, Retain: true}
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var exp obs.ChromeExport
	exp.Add("sim", sys.Tracer())
	span.AddTrace(&exp, "service", []span.Span{
		{JobID: "j1", Client: "a", Shard: 0, Outcome: "done", SubmitAt: 0, AdmitAt: 1000, FinishAt: 9000},
		{JobID: "j2", Client: "b", Shard: 1, Outcome: "done", Cached: true, SubmitAt: 2000, AdmitAt: span.NoAdmit, FinishAt: 2001},
	})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := exp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := checkTrace(path); err != nil {
		t.Fatalf("checkTrace: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	pids := map[string]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Name == "process_name" {
			var args struct{ Name string }
			if err := json.Unmarshal(ev.Args, &args); err != nil {
				t.Fatal(err)
			}
			pids[args.Name] = *ev.Pid
		}
	}
	if len(pids) != 2 || pids["sim"] == pids["service"] {
		t.Fatalf("process pids %v, want two distinct", pids)
	}
}

// TestCheckExposition: a registry's own exposition passes; a second # TYPE,
// a split family, a non-cumulative bucket and a +Inf bucket that disagrees
// with _count each fail.
func TestCheckExposition(t *testing.T) {
	reg := obs.NewRegistry()
	reg.NewGroup(map[string]string{"run": "a"}, []string{"cycles", "ipc"}).Publish([]float64{1, 2})
	reg.NewGroup(map[string]string{"run": `b "quoted", comma`}, []string{"cycles", "ipc"}).Publish([]float64{3, 4})
	h := reg.NewHistogram("lat_seconds", []float64{0.1, 1})
	h.With(map[string]string{"phase": "q"}).Observe(0.5)
	h.With(map[string]string{"phase": "r"}).Observe(5)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if samples, families, err := checkExposition(b.String()); err != nil || samples != 14 || families != 3 {
		t.Fatalf("checkExposition(registry) = %d samples, %d families, %v; want 14, 3, nil\n%s", samples, families, err, b.String())
	}

	for _, tc := range []struct{ name, body, want string }{
		{"second TYPE", "# TYPE emcsim_x gauge\nemcsim_x 1\n# TYPE emcsim_x gauge\n", "second # TYPE"},
		{"split family", "# TYPE emcsim_x gauge\nemcsim_x{r=\"a\"} 1\n# TYPE emcsim_y gauge\nemcsim_y 2\nemcsim_x{r=\"b\"} 3\n", "not contiguous"},
		{"not cumulative", "# TYPE emcsim_h histogram\nemcsim_h_bucket{le=\"1\"} 2\nemcsim_h_bucket{le=\"+Inf\"} 1\nemcsim_h_count 1\n", "cumulative"},
		{"+Inf != count", "# TYPE emcsim_h histogram\nemcsim_h_bucket{le=\"1\"} 1\nemcsim_h_bucket{le=\"+Inf\"} 2\nemcsim_h_count 3\n", "must equal _count"},
		{"no emcsim_", "# TYPE other gauge\nother 1\n", "no emcsim_"},
	} {
		if _, _, err := checkExposition(tc.body); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: checkExposition = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}
