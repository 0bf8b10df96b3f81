// Command emcctl is the thin client for emcserve.
//
//	emcctl [-server URL] submit -bench mcf,mcf,mcf,mcf -emc [-wait]
//	emcctl [-server URL] status  <job-id>
//	emcctl [-server URL] result  <job-id>
//	emcctl [-server URL] watch   <job-id>     # NDJSON progress stream
//	emcctl [-server URL] cancel  <job-id>
//	emcctl [-server URL] jobs
//	emcctl [-server URL] stats
//	emcctl [-server URL] top [-interval 1s] [-frames N] [-plain]
//	emcctl [-server URL] trace > trace.json   # Chrome trace of finished jobs
//	emcctl [-server URL] metrics              # raw Prometheus text
//
// Requests carry a deadline (-timeout) and retry transient failures —
// connection errors and 429/502/503/504 — with jittered exponential backoff
// (-retries, -retry-base). Retrying a submit is safe: jobs are
// content-addressed, so a resubmission of the same configuration coalesces
// with or cache-hits the first instead of running twice. Other 4xx statuses
// are permanent and never retried.
//
// Exit codes: 0 success, 1 permanent server error (or failed job with
// -wait), 2 usage, 3 server unreachable after all retries.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/service"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: emcctl [flags] <submit|status|result|watch|cancel|jobs|stats|top|trace|metrics> [args]")
	flag.PrintDefaults()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "emcctl:", err)
	os.Exit(1)
}

// client wraps HTTP access with deadlines and transient-failure retries.
type client struct {
	base      string
	http      *http.Client
	retries   int
	retryBase time.Duration
}

func main() {
	server := flag.String("server", "http://127.0.0.1:8080", "emcserve base URL")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline (watch: connect deadline)")
	retries := flag.Int("retries", 4, "retries for connection errors and retryable statuses (429/502/503/504)")
	retryBase := flag.Duration("retry-base", 200*time.Millisecond, "initial backoff; doubles per retry with jitter")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	c := &client{
		base:      strings.TrimRight(*server, "/"),
		http:      &http.Client{Timeout: *timeout},
		retries:   *retries,
		retryBase: *retryBase,
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]

	switch cmd {
	case "submit":
		c.submit(args)
	case "status":
		c.getJSON("/api/v1/jobs/" + one(args, cmd))
	case "result":
		c.getJSON("/api/v1/jobs/" + one(args, cmd) + "/result")
	case "watch":
		c.watch(one(args, cmd))
	case "cancel":
		pretty(c.post("/api/v1/jobs/"+one(args, cmd)+"/cancel", nil))
	case "jobs":
		c.getJSON("/api/v1/jobs")
	case "stats":
		c.getJSON("/api/v1/stats")
	case "top":
		c.top(args)
	case "trace":
		c.raw("/api/v1/trace")
	case "metrics":
		c.raw("/metrics")
	default:
		usage()
	}
}

func one(args []string, cmd string) string {
	if len(args) != 1 {
		fmt.Fprintf(os.Stderr, "emcctl: %s takes exactly one job id\n", cmd)
		os.Exit(2)
	}
	return args[0]
}

// retryableStatus reports whether a response status is worth retrying:
// backpressure and gateway hiccups are; every other 4xx is a permanent
// verdict about the request itself.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do performs one request with retries. It returns the response body and
// status code; permanent HTTP errors and exhausted retries exit directly
// (code 1 for server verdicts, 3 when the server was never reachable).
func (c *client) do(method, path string, body []byte) ([]byte, int) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			fatal(err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.http.Do(req)
		if err != nil {
			// Transport-level failure: connection refused, DNS, timeout.
			// The server may just not be up yet — retryable, but with its
			// own exit code so scripts can tell "down" from "said no".
			lastErr = err
			if attempt >= c.retries {
				fmt.Fprintf(os.Stderr, "emcctl: server unreachable after %d attempts: %v\n", attempt+1, lastErr)
				os.Exit(3)
			}
			c.backoff(attempt)
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			if attempt >= c.retries {
				fmt.Fprintf(os.Stderr, "emcctl: server unreachable after %d attempts: %v\n", attempt+1, lastErr)
				os.Exit(3)
			}
			c.backoff(attempt)
			continue
		}
		if retryableStatus(resp.StatusCode) && attempt < c.retries {
			c.backoff(attempt)
			continue
		}
		if resp.StatusCode >= 400 {
			fmt.Fprintf(os.Stderr, "emcctl: %s: %s\n", resp.Status, strings.TrimSpace(string(data)))
			os.Exit(1)
		}
		return data, resp.StatusCode
	}
}

// backoff sleeps for retryBase*2^attempt, scaled by a jitter in [0.5, 1.5)
// so a herd of retrying clients decorrelates.
func (c *client) backoff(attempt int) {
	d := c.retryBase << uint(attempt)
	time.Sleep(time.Duration(float64(d) * (0.5 + rand.Float64())))
}

func (c *client) get(path string) []byte {
	data, _ := c.do(http.MethodGet, path, nil)
	return data
}

func (c *client) getJSON(path string) {
	pretty(c.get(path))
}

func (c *client) post(path string, body []byte) []byte {
	data, _ := c.do(http.MethodPost, path, body)
	return data
}

func (c *client) submit(args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	bench := fs.String("bench", "mcf,sphinx3,soplex,libquantum", "comma-separated benchmarks, one per core")
	n := fs.Uint64("n", 30000, "instructions per core")
	seed := fs.Uint64("seed", 1, "trace seed")
	pf := fs.String("pf", "none", "prefetcher: none|ghb|stream|markov+stream")
	emc := fs.Bool("emc", false, "enable the Enhanced Memory Controller")
	runahead := fs.Bool("runahead", false, "enable the runahead baseline")
	bp := fs.Bool("bp", false, "enable the branch predictor")
	mcs := fs.Int("mcs", 0, "memory controllers (8-core only)")
	ideal := fs.Bool("ideal-dep-hits", false, "serve dependent misses at LLC-hit latency")
	client := fs.String("client", "emcctl", "client name for queue fairness")
	wait := fs.Bool("wait", false, "wait until the job is terminal, then print its status")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	req := service.JobRequest{
		Client:             *client,
		Benchmarks:         strings.Split(*bench, ","),
		InstrPerCore:       *n,
		Seed:               *seed,
		Prefetcher:         *pf,
		EMC:                *emc,
		Runahead:           *runahead,
		UseBranchPredictor: *bp,
		MCs:                *mcs,
		IdealDependentHits: *ideal,
	}
	body, err := json.Marshal(req)
	if err != nil {
		fatal(err)
	}
	// Submission is idempotent (content-addressed), so do's retry loop may
	// safely resubmit: a duplicate coalesces with the in-flight job or hits
	// the result cache.
	// With -wait only the final status is printed, so stdout stays one JSON
	// document.
	data := c.post("/api/v1/jobs", body)
	if !*wait {
		pretty(data)
		return
	}
	var st service.Status
	if err := json.Unmarshal(data, &st); err != nil {
		fatal(err)
	}
	// Follow the job by long-poll: each status request returns as soon as
	// the job is terminal, or after half the request deadline (the server
	// caps it at 30 s) with a status that is not, and the next is sent at
	// once.
	waitMS := (c.http.Timeout / 2).Milliseconds()
	if c.http.Timeout <= 0 {
		waitMS = 30_000 // no deadline: wait as long as the server allows
	}
	path := fmt.Sprintf("/api/v1/jobs/%s?wait=%d", st.ID, waitMS)
	for !st.State.Terminal() {
		data = c.get(path)
		if err := json.Unmarshal(data, &st); err != nil {
			fatal(err)
		}
	}
	pretty(data)
	if st.State != service.StateDone {
		os.Exit(1)
	}
}

// watch streams NDJSON progress. The connect itself goes through the retry
// policy; once streaming, EOF ends the watch (no mid-stream resume).
func (c *client) watch(id string) {
	path := "/api/v1/jobs/" + id + "/progress?poll=200"
	for attempt := 0; ; attempt++ {
		// Streams must not carry the client-wide deadline: a long job would
		// be cut off mid-watch. Connection errors still retry.
		resp, err := (&http.Client{}).Get(c.base + path)
		if err != nil {
			if attempt >= c.retries {
				fmt.Fprintf(os.Stderr, "emcctl: server unreachable after %d attempts: %v\n", attempt+1, err)
				os.Exit(3)
			}
			c.backoff(attempt)
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fatalStatus(resp)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			fmt.Println(sc.Text())
		}
		return
	}
}

func (c *client) raw(path string) {
	data, _ := c.do(http.MethodGet, path, nil)
	os.Stdout.Write(data) //nolint:errcheck // best-effort dump
}

func fatalStatus(resp *http.Response) {
	data, _ := io.ReadAll(resp.Body)
	fmt.Fprintf(os.Stderr, "emcctl: %s: %s\n", resp.Status, strings.TrimSpace(string(data)))
	os.Exit(1)
}

// pretty prints data re-indented when it is JSON, verbatim otherwise.
func pretty(data []byte) {
	var buf bytes.Buffer
	if json.Indent(&buf, bytes.TrimSpace(data), "", "  ") == nil {
		fmt.Println(buf.String())
		return
	}
	os.Stdout.Write(data) //nolint:errcheck
}
