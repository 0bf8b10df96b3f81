package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	g := reg.NewGroup(map[string]string{"run": "t"}, []string{"cycles"})
	g.Publish([]float64{42})
	srv, err := StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(body)
	}

	if m := get("/metrics"); !strings.Contains(m, `emcsim_cycles{run="t"} 42`) {
		t.Errorf("/metrics missing gauge:\n%s", m)
	}
	if p := get("/debug/pprof/cmdline"); len(p) == 0 {
		t.Error("/debug/pprof/cmdline empty")
	}
}
