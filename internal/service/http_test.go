package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
)

func testServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	s := New(cfg)
	ts := httptest.NewServer(NewHandler(s, reg))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func submitReq(t *testing.T, ts *httptest.Server, req JobRequest) (Status, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

func tinyReq(seed uint64) JobRequest {
	return JobRequest{
		Client:       "test",
		Benchmarks:   []string{"mcf", "sphinx3", "soplex", "libquantum"},
		InstrPerCore: 1000,
		Seed:         seed,
	}
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// TestHTTPSubmitLifecycle drives a job through submit -> status -> result
// and then checks the cached resubmit path returns 200 instead of 202.
func TestHTTPSubmitLifecycle(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, QueueCap: 8})

	st, resp := submitReq(t, ts, tinyReq(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: want 202, got %d", resp.StatusCode)
	}
	if st.ID == "" || st.State.Terminal() {
		t.Fatalf("unexpected submit status: %+v", st)
	}

	// Poll status until terminal.
	var cur Status
	for !cur.State.Terminal() {
		if resp := getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID, &cur); resp.StatusCode != http.StatusOK {
			t.Fatalf("status: got %d", resp.StatusCode)
		}
	}
	if cur.State != StateDone {
		t.Fatalf("job did not finish: %+v", cur)
	}

	var res report.Result
	if resp := getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID+"/result", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: got %d", resp.StatusCode)
	}
	if res.Cycles == 0 || len(res.Cores) != 4 {
		t.Fatalf("implausible result: %+v", res)
	}

	// Identical resubmission: cache hit, already done, 200.
	st2, resp2 := submitReq(t, ts, tinyReq(1))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached resubmit: want 200, got %d", resp2.StatusCode)
	}
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("cached resubmit: %+v", st2)
	}

	// The jobs listing shows both submissions.
	var all []Status
	getJSON(t, ts.URL+"/api/v1/jobs", &all)
	if len(all) != 2 {
		t.Fatalf("want 2 jobs listed, got %d", len(all))
	}

	// Metrics export the cache hit.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(mresp.Body) //nolint:errcheck
	if !strings.Contains(b.String(), `emcsim_service_cache_hits{component="service"} 1`) {
		t.Fatalf("metrics missing cache hit:\n%s", b.String())
	}
}

// TestHTTPValidation: malformed bodies and unknown jobs produce 4xx JSON
// errors.
func TestHTTPValidation(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueCap: 2})

	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: want 400, got %d", resp.StatusCode)
	}

	_, resp = submitReq(t, ts, JobRequest{Client: "t"}) // no benchmarks
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty benchmarks: want 400, got %d", resp.StatusCode)
	}

	bad := tinyReq(1)
	bad.Prefetcher = "nonsense"
	_, resp = submitReq(t, ts, bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad prefetcher: want 400, got %d", resp.StatusCode)
	}

	if resp := getJSON(t, ts.URL+"/api/v1/jobs/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: want 404, got %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/api/v1/jobs/nope/result", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown result: want 404, got %d", resp.StatusCode)
	}
}

// TestHTTPResultConflictWhileRunning: asking for the result of an unfinished
// job is a 409, not a hang.
func TestHTTPResultConflictWhileRunning(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, ts := testServer(t, Config{Workers: 1, QueueCap: 8, AttemptHook: parkBlockers})

	j, err := s.Submit("t", blockerCfg(release))
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, func(st Stats) bool { return st.Running == 1 })
	if resp := getJSON(t, ts.URL+"/api/v1/jobs/"+j.ID()+"/result", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("want 409 for running job, got %d", resp.StatusCode)
	}
}

// TestHTTPCancel: POST cancel on a queued job finalizes it as cancelled.
func TestHTTPCancel(t *testing.T) {
	release := make(chan struct{})
	s, ts := testServer(t, Config{Workers: 1, QueueCap: 8, AttemptHook: parkBlockers})

	if _, err := s.Submit("t", blockerCfg(release)); err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, func(st Stats) bool { return st.Running == 1 })
	j, err := s.Submit("t", tinyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs/"+j.ID()+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: want 202, got %d", resp.StatusCode)
	}
	close(release)
	var st Status
	for !st.State.Terminal() {
		getJSON(t, ts.URL+"/api/v1/jobs/"+j.ID(), &st)
	}
	if st.State != StateCancelled {
		t.Fatalf("want cancelled, got %+v", st)
	}
}

// TestHTTPBackpressure: a full queue surfaces as 429 with Retry-After.
func TestHTTPBackpressure(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, ts := testServer(t, Config{Workers: 1, QueueCap: 1, AttemptHook: parkBlockers})

	if _, err := s.Submit("t", blockerCfg(release)); err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, func(st Stats) bool { return st.Running == 1 && st.QueueDepth == 0 })
	if _, resp := submitReq(t, ts, tinyReq(1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first queued submit: want 202, got %d", resp.StatusCode)
	}
	_, resp := submitReq(t, ts, tinyReq(2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 should carry Retry-After")
	}
}

// TestHTTPProgressStream: the NDJSON stream ends with a terminal status and
// every line parses.
func TestHTTPProgressStream(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueCap: 8, ProgressInterval: 500})

	cfg := tinyCfg(1)
	cfg.InstrPerCore = 50_000
	j, err := s.Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%s/progress?poll=10", ts.URL, j.ID()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var last Status
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d: %v: %s", lines, err, sc.Text())
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("no progress lines")
	}
	if last.State != StateDone {
		t.Fatalf("stream should end terminal, got %+v", last)
	}
	if last.Retired == 0 || last.TargetInstrs != 4*cfg.InstrPerCore {
		t.Fatalf("final snapshot incomplete: %+v", last)
	}
}

// TestHTTPStatsAndHealth: the stats and health endpoints respond.
func TestHTTPStatsAndHealth(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueCap: 2})
	var st Stats
	if resp := getJSON(t, ts.URL+"/api/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: got %d", resp.StatusCode)
	}
	if st.Workers != 1 {
		t.Fatalf("stats: %+v", st)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: got %d", resp.StatusCode)
	}
}

// TestHTTPStatusWaitReturnsOnCompletion: a status long-poll answers as soon
// as the job finishes, not when its 30 s wait runs out.
func TestHTTPStatusWaitReturnsOnCompletion(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, QueueCap: 8})
	st, _ := submitReq(t, ts, tinyReq(1))
	start := time.Now()
	var cur Status
	if resp := getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID+"?wait=30000", &cur); resp.StatusCode != http.StatusOK {
		t.Fatalf("status wait: got %d", resp.StatusCode)
	}
	if cur.State != StateDone {
		t.Fatalf("status wait returned %+v, want a done job", cur)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("status wait took %v: it did not wake on completion", d)
	}
}

// TestHTTPStatusWaitExpires: a job that cannot finish yields its
// non-terminal status once the wait expires; a malformed wait is a 400.
func TestHTTPStatusWaitExpires(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueCap: 8, AttemptHook: parkBlockers})
	release := make(chan struct{})
	defer close(release)
	j, err := s.Submit("t", blockerCfg(release))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var cur Status
	if resp := getJSON(t, ts.URL+"/api/v1/jobs/"+j.ID()+"?wait=50", &cur); resp.StatusCode != http.StatusOK {
		t.Fatalf("status wait: got %d", resp.StatusCode)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("status wait returned after %v, before its 50ms wait expired", d)
	}
	if cur.ID != j.ID() || cur.State.Terminal() {
		t.Fatalf("expired wait returned %+v, want job %s still pending", cur, j.ID())
	}
	for _, bad := range []string{"x", "-1"} {
		if resp := getJSON(t, ts.URL+"/api/v1/jobs/"+j.ID()+"?wait="+bad, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("wait=%s: got %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestHTTPStatusWaitClientGone: a status long-poll whose client disconnects
// returns at once instead of holding the handler for the rest of its wait.
func TestHTTPStatusWaitClientGone(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 8, AttemptHook: parkBlockers})
	t.Cleanup(func() { s.Close() })
	release := make(chan struct{})
	defer close(release)
	j, err := s.Submit("t", blockerCfg(release))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+j.ID()+"?wait=30000", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewHandler(s, nil).ServeHTTP(rec, req)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("status wait still blocked 5s after its client went away")
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("handler wrote %q to a client that was gone", rec.Body.String())
	}
}
