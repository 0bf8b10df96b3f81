package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestListenAddr(t *testing.T) {
	for _, tc := range []struct{ log, want string }{
		{"emcserve listening on http://127.0.0.1:43127\n", "127.0.0.1:43127"},
		{"debug server listening on http://127.0.0.1:8080 (/metrics, /debug/vars, /debug/pprof)\n", "127.0.0.1:8080"},
		{"emcserve: durable cache c: 0 results loaded, 0 quarantined\nemcserve listening on http://10.0.0.2:9\n", "10.0.0.2:9"},
	} {
		if got, ok := listenAddr(tc.log); !ok || got != tc.want {
			t.Errorf("listenAddr(%q) = %q, %v; want %q", tc.log, got, ok, tc.want)
		}
	}
	if got, ok := listenAddr("emcserve: durable cache c: 2 results loaded, 0 quarantined\n"); ok {
		t.Errorf("listenAddr found %q in a log with no listen line", got)
	}
}

func TestResultsLoaded(t *testing.T) {
	if n, ok := resultsLoaded("emcserve: durable cache /tmp/x/cache: 12 results loaded, 1 quarantined\n"); !ok || n != 12 {
		t.Errorf("resultsLoaded = %d, %v; want 12", n, ok)
	}
	if _, ok := resultsLoaded("emcserve listening on http://127.0.0.1:1\n"); ok {
		t.Error("resultsLoaded matched a log with no durable cache line")
	}
}

func TestSample(t *testing.T) {
	expo := strings.Join([]string{
		"# TYPE emcsim_service_cache_hits_total counter",
		"emcsim_service_cache_hits_total 7",
		"# TYPE emcsim_service_cache_hits gauge",
		`emcsim_service_cache_hits{component="service",note="a b"} 3`,
		"emcsim_up 1",
	}, "\n")
	for _, tc := range []struct {
		name string
		want float64
	}{
		{"emcsim_service_cache_hits", 3},
		{"emcsim_service_cache_hits_total", 7},
		{"emcsim_up", 1},
	} {
		if got, ok := sample(expo, tc.name); !ok || got != tc.want {
			t.Errorf("sample(%s) = %v, %v; want %v", tc.name, got, ok, tc.want)
		}
	}
	if got, ok := sample(expo, "emcsim_service"); ok {
		t.Errorf("sample matched a name prefix: %v", got)
	}
}

// TestFailedCheckExits runs a failing check in a child copy of the test
// binary: it must exit non-zero and name its scenario and its check.
func TestFailedCheckExits(t *testing.T) {
	if os.Getenv("SMOKE_TEST_FAIL_CHECK") == "1" {
		scenario = "demo"
		check(false, "deliberate failure", "extra log line")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailedCheckExits$")
	cmd.Env = append(os.Environ(), "SMOKE_TEST_FAIL_CHECK=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("failed check: err %v, want a non-zero exit\n%s", err, out)
	}
	for _, want := range []string{"demo-smoke: FAIL: deliberate failure", "extra log line"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("failed check output lacks %q:\n%s", want, out)
		}
	}
}
