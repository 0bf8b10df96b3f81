package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/service"
)

// TestSubmitWaitPrintsOneDocument: submit -wait prints only the final
// status, so stdout decodes to exactly one JSON value — the terminal one.
func TestSubmitWaitPrintsOneDocument(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/api/v1/jobs":
			json.NewEncoder(w).Encode(service.Status{ID: "j1", State: service.StateQueued}) //nolint:errcheck
		case r.Method == http.MethodGet && r.URL.Path == "/api/v1/jobs/j1":
			json.NewEncoder(w).Encode(service.Status{ID: "j1", State: service.StateDone, Cycles: 42}) //nolint:errcheck
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	c := &client{base: srv.URL, http: srv.Client(), retries: 1, retryBase: time.Millisecond}
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	old := os.Stdout
	os.Stdout = out
	c.submit([]string{"-bench", "mcf", "-n", "100", "-wait"})
	os.Stdout = old

	if _, err := out.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(out)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var st service.Status
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, data)
	}
	if !st.State.Terminal() || st.Cycles != 42 {
		t.Fatalf("printed status %+v, want the terminal one", st)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		t.Fatalf("stdout holds more than one JSON value (next: %s, err %v):\n%s", extra, err, data)
	}
}
