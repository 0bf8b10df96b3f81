// Command smoke runs the process smokes: end-to-end scenarios over the real
// emcserve, emcctl, emcsim and tracecheck binaries, built once into a
// temporary directory. Each scenario is one row of the scenarios table;
// with no names it runs them all, in table order.
//
//	go run ./cmd/smoke trace serve dashboard kill cluster heal
//
// A failed check prints the scenario, the check and every child's log,
// kills every child, and exits 1. Unknown names exit 2.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

var scenarios = []struct {
	name string
	run  func()
}{
	{"trace", traceSmoke},
	{"serve", serveSmoke},
	{"dashboard", dashboardSmoke},
	{"kill", killSmoke},
	{"cluster", clusterSmoke},
	{"heal", healSmoke},
}

// Harness state. Scenarios run one at a time on the main goroutine.
var (
	scenario string  // the running scenario, named by every failure
	tmp      string  // the temporary directory, removed on exit
	bin      string  // the built binaries, under tmp
	work     string  // the running scenario's directory, under tmp
	procs    []*proc // the running scenario's children
)

func main() {
	var fns []func()
	var names []string
	for _, s := range scenarios {
		names = append(names, s.name)
	}
	args := os.Args[1:]
	if len(args) == 0 {
		args = names
	}
	for _, arg := range args {
		i := slices.Index(names, arg)
		if i < 0 {
			fmt.Fprintf(os.Stderr, "usage: smoke [%s]...\n", strings.Join(names, "|"))
			os.Exit(2)
		}
		fns = append(fns, scenarios[i].run)
	}

	scenario = "build"
	var err error
	tmp, err = os.MkdirTemp("", "smoke-")
	check(err == nil, fmt.Sprint("temp dir: ", err))
	bin = filepath.Join(tmp, "bin")
	// The harness builds with the toolchain that built it (go run), falling
	// back to the go on PATH. Without symbol tables and DWARF the four
	// binaries link in about half the time.
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		goTool = "go"
	}
	out, err := exec.Command(goTool, "build", "-ldflags=-s -w", "-o", bin+string(filepath.Separator),
		"./cmd/emcserve", "./cmd/emcctl", "./cmd/emcsim", "./cmd/tracecheck").CombinedOutput()
	check(err == nil, fmt.Sprint("go build: ", err), string(out))

	for i, fn := range fns {
		scenario, work = args[i], filepath.Join(tmp, args[i])
		check(os.Mkdir(work, 0o755) == nil, "scenario dir")
		start := time.Now()
		fn()
		stopAll()
		fmt.Printf("%s-smoke: ok (%.1fs)\n", scenario, time.Since(start).Seconds())
	}
	os.RemoveAll(tmp)
}

// check fails the scenario unless ok: it prints the scenario, msg, logs
// and every child's log, kills every child, and exits 1.
func check(ok bool, msg string, logs ...string) {
	if ok {
		return
	}
	fmt.Fprintf(os.Stderr, "%s-smoke: FAIL: %s\n", scenario, msg)
	for _, l := range logs {
		fmt.Fprintln(os.Stderr, strings.TrimRight(l, "\n"))
	}
	for _, p := range procs {
		fmt.Fprintf(os.Stderr, "--- %s log:\n%s\n", p.name, strings.TrimRight(p.log(), "\n"))
	}
	stopAll()
	os.RemoveAll(tmp)
	os.Exit(1)
}

// waitFor polls cond every 100 ms until it holds; after timeout the
// scenario fails.
func waitFor(what string, timeout time.Duration, cond func() bool) {
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(100 * time.Millisecond) {
		check(time.Now().Before(deadline), fmt.Sprintf("timed out after %v waiting for %s", timeout, what))
	}
}

// proc is one child process. Its stdout and stderr both go to one log
// file in the scenario's directory.
type proc struct {
	name string
	url  string // http://ADDR from its "listening on" line
	cmd  *exec.Cmd
	logf string
	done chan struct{} // closed once the child has exited and been reaped
}

func (p *proc) log() string {
	b, _ := os.ReadFile(p.logf) // a missing log prints as empty
	return string(b)
}

// boot starts tool with args and env added to the harness's environment,
// and waits for its "listening on http://ADDR" line.
func boot(name, tool string, env []string, args ...string) *proc {
	f, err := os.Create(filepath.Join(work, name+".log"))
	check(err == nil, fmt.Sprint("log file: ", err))
	defer f.Close() // the child holds its own descriptor
	p := &proc{name: name, logf: f.Name(), done: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(bin, tool), args...)
	p.cmd.Env = append(os.Environ(), env...)
	p.cmd.Stdout, p.cmd.Stderr = f, f
	check(p.cmd.Start() == nil, "start "+name)
	procs = append(procs, p)
	go func() {
		p.cmd.Wait() //nolint:errcheck // exit status is not part of any check
		close(p.done)
	}()
	waitFor(name+"'s listen address", 10*time.Second, func() bool {
		addr, ok := listenAddr(p.log())
		p.url = "http://" + addr
		return ok
	})
	return p
}

// serve boots emcserve on an ephemeral port with two workers.
func serve(name string, env []string, args ...string) *proc {
	return boot(name, "emcserve", env, append([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, args...)...)
}

// term stops ps with SIGTERM and waits up to 10 s for all to exit.
func term(ps ...*proc) {
	for _, p := range ps {
		p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited child is stopped already
	}
	deadline := time.After(10 * time.Second)
	for _, p := range ps {
		select {
		case <-p.done:
		case <-deadline:
			check(false, p.name+" did not exit after SIGTERM")
		}
	}
}

// kill stops p with SIGKILL: the crash nobody drains from.
func kill(p *proc) {
	p.cmd.Process.Kill() //nolint:errcheck // an exited child is stopped already
	<-p.done
}

// stopAll kills every child still running.
func stopAll() {
	for _, p := range procs {
		kill(p)
	}
	procs = nil
}

// run runs a built tool to completion and returns its stdout; a non-zero
// exit fails the scenario.
func run(tool string, args ...string) []byte {
	var stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(bin, tool), args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	check(err == nil, fmt.Sprintf("%s %s: %v", tool, strings.Join(args, " "), err), string(out), stderr.String())
	return out
}

func emcctl(p *proc, cmd string, args ...string) []byte {
	return run("emcctl", append([]string{"-server", p.url, cmd}, args...)...)
}

// submit submits a job to p through emcctl, waits for it, and returns its
// final status, which must be done.
func submit(p *proc, args ...string) service.Status {
	out := emcctl(p, "submit", append([]string{"-wait"}, args...)...)
	st, err := lastStatus(out)
	check(err == nil && st.State == service.StateDone, "job on "+p.name+" did not finish", string(out))
	return st
}

// resultOf submits and waits like submit, then returns the job's status and
// its result as emcctl prints it.
func resultOf(p *proc, args ...string) (service.Status, []byte) {
	st := submit(p, args...)
	return st, emcctl(p, "result", st.ID)
}

func stats(p *proc) service.Stats {
	var st service.Stats
	out := emcctl(p, "stats")
	check(json.Unmarshal(out, &st) == nil, "stats of "+p.name+" are not JSON", string(out))
	return st
}

func waitMembers(p *proc, n int) {
	waitFor(fmt.Sprintf("%d member rows on %s", n, p.name), 10*time.Second, func() bool {
		return len(stats(p).Nodes) == n
	})
}

func sameBytes(what string, a, b []byte) {
	check(bytes.Equal(a, b), what+" differ", string(a), string(b))
}

// job is emcctl submit's workload arguments.
func job(bench string, n int, extra ...string) []string {
	return append([]string{"-bench", bench, "-n", strconv.Itoa(n)}, extra...)
}

// sweep is one seed of the fabric smokes' sweep.
func sweep(seed string) []string { return job(mcf4, 50000, "-seed", seed, "-emc") }

const (
	mix  = "mcf,sphinx3,soplex,libquantum"
	mcf4 = "mcf,mcf,mcf,mcf"
)

// lastStatus decodes the last of the JSON documents emcctl submit prints:
// with -wait, the job's final status.
func lastStatus(out []byte) (service.Status, error) {
	var st service.Status
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		st = service.Status{}
		if err := dec.Decode(&st); err != nil {
			return st, err
		}
	}
	return st, nil
}

var (
	listenRE = regexp.MustCompile(`listening on http://([0-9.:]+)`)
	loadedRE = regexp.MustCompile(`durable cache .*: (\d+) results loaded`)
)

// listenAddr finds the address in a "listening on http://ADDR" log line.
func listenAddr(log string) (string, bool) {
	m := listenRE.FindStringSubmatch(log)
	if m == nil {
		return "", false
	}
	return m[1], true
}

// resultsLoaded reads N from emcserve's "durable cache DIR: N results
// loaded, M quarantined" boot line.
func resultsLoaded(log string) (int, bool) {
	m := loadedRE.FindStringSubmatch(log)
	if m == nil {
		return 0, false
	}
	n, err := strconv.Atoi(m[1])
	return n, err == nil
}

// sample returns the value of the first sample of metric name, labelled or
// not, in a Prometheus text exposition.
func sample(expo, name string) (float64, bool) {
	for _, line := range strings.Split(expo, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		if rest[0] == '{' {
			i := strings.IndexByte(rest, '}')
			if i < 0 {
				continue
			}
			rest = rest[i+1:]
		}
		if f := strings.Fields(rest); len(f) > 0 {
			v, err := strconv.ParseFloat(f[0], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// traceSmoke runs a tiny traced workload with the debug server up, then
// validates the Chrome trace, the /metrics exposition (scraped while the
// server lingers) and the interval counter log.
func traceSmoke() {
	trace, counters := filepath.Join(work, "trace.json"), filepath.Join(work, "counters.json")
	sim := boot("emcsim", "emcsim", nil, "-bench", mix, "-emc", "-n", "4000",
		"-trace", trace, "-trace-sample", "1",
		"-counters", counters, "-counters-interval", "5000",
		"-http", "127.0.0.1:0", "-http-linger", "20s")
	waitFor("the trace file", 20*time.Second, func() bool { return strings.Contains(sim.log(), "wrote "+trace) })

	resp, err := http.Get(sim.url + "/metrics")
	check(err == nil, fmt.Sprint("scrape /metrics: ", err))
	expo, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	check(err == nil && resp.StatusCode == http.StatusOK, fmt.Sprintf("scrape /metrics: %s %v", resp.Status, err))
	check(strings.Contains("\n"+string(expo), "\nemcsim_"), "/metrics has no emcsim_ gauges", string(expo))
	run("tracecheck", "-metrics-url", sim.url+"/metrics", trace)
	run("tracecheck", "-counters", counters, trace)
	term(sim)
}

// serveSmoke submits a job, resubmits it as a cache hit confirmed by the
// cache-hit metric, and drains the server with SIGTERM.
func serveSmoke() {
	srv := serve("emcserve", nil)
	st := submit(srv, job(mix, 2000, "-emc")...)
	check(!st.Cached, "first job should not be a cache hit")
	st = submit(srv, job(mix, 2000, "-emc")...)
	check(st.Cached, "resubmit was not served from the cache")
	expo := string(emcctl(srv, "metrics"))
	hits, _ := sample(expo, "emcsim_service_cache_hits")
	check(hits >= 1, "emcsim_service_cache_hits not incremented", expo)
	term(srv)
	check(strings.Contains(srv.log(), "shutdown:"), "no shutdown summary in server output")
}

// dashboardSmoke runs a small sweep whose first attempt panics (a oneshot
// failpoint) with the flight recorder armed, then checks the stats, the
// emcctl top dashboard, the flight dump and the span trace export.
func dashboardSmoke() {
	flight := filepath.Join(work, "flight")
	srv := serve("emcserve", []string{"EMCSIM_FAILPOINTS=service/worker.prerun=oneshot"}, "-flight-dir", flight)
	submit(srv, job(mix, 2000, "-emc")...)
	submit(srv, job(mix, 2000)...)

	st := stats(srv)
	check(len(st.Shards) > 0, "/api/v1/stats has no per-shard breakdown")
	check(st.FlightDumps >= 1, "no flight dump counted")

	top := string(emcctl(srv, "top", "-frames", "2", "-interval", "200ms", "-plain"))
	check(strings.Contains(top, "emcserve top"), "emcctl top rendered no header", top)
	check(strings.Contains(top, "SHARD"), "emcctl top rendered no shard table", top)

	dumps, _ := filepath.Glob(filepath.Join(flight, "*-panic-*.emfr"))
	check(len(dumps) > 0, "no panic flight dump in "+flight)
	run("tracecheck", append([]string{"-flight"}, dumps...)...)

	trace := filepath.Join(work, "trace.json")
	check(os.WriteFile(trace, emcctl(srv, "trace"), 0o644) == nil, "write the span trace")
	run("tracecheck", "-metrics-url", srv.url+"/metrics", trace)
	term(srv)
}

// killSmoke SIGKILLs a server with a durable cache mid-sweep, restarts it
// over the same directory, and checks the reloaded result is served from
// the cache with the pre-crash bytes.
func killSmoke() {
	cache := filepath.Join(work, "cache")
	srv := serve("emcserve", nil, "-cache-dir", cache)
	_, before := resultOf(srv, job(mix, 2000, "-emc")...)
	emcctl(srv, "submit", job(mcf4, 200000, "-emc")...)
	kill(srv)

	srv = serve("emcserve-restarted", nil, "-cache-dir", cache)
	n, _ := resultsLoaded(srv.log())
	check(n >= 1, "restart loaded no durable results")
	st, after := resultOf(srv, job(mix, 2000, "-emc")...)
	check(st.Cached, "resubmit after the crash was not served from the durable cache")
	sameBytes("pre- and post-crash results", before, after)
	term(srv)
}

// clusterSmoke boots three nodes, checks one result through two entry
// nodes, and runs a sweep through a SIGKILL of one node: every job
// completes on the survivors with the same bytes through either.
func clusterSmoke() {
	node := func(id, join string) *proc {
		return serve(id, nil, "-node-id", id, "-heartbeat", "100ms", "-suspect-after", "500ms", "-join", join)
	}
	a := node("a", "")
	b := node("b", a.url)
	c := node("c", a.url)
	for _, p := range []*proc{a, b, c} {
		waitMembers(p, 3)
	}

	_, viaA := resultOf(a, job(mix, 2000, "-emc")...)
	_, viaB := resultOf(b, job(mix, 2000, "-emc")...)
	sameBytes("results of one config through a and b", viaA, viaB)

	seeds := []string{"11", "12", "13", "14"}
	for _, s := range seeds {
		emcctl(a, "submit", sweep(s)...)
	}
	kill(c)
	for _, s := range seeds {
		_, ra := resultOf(a, sweep(s)...)
		_, rb := resultOf(b, sweep(s)...)
		sameBytes("seed "+s+" results through a and b after the kill", ra, rb)
	}
	term(a, b)
}

// healSmoke boots a token-authenticated fabric where node c joins during a
// sweep and is SIGKILLed during a second one, then restarts c over its
// durable cache: anti-entropy alone must converge its record files
// byte-for-byte with node a's, and c must serve the survivors' bytes.
func healSmoke() {
	cacheOf := func(id string) string { return filepath.Join(work, "cache-"+id) }
	node := func(name, id, join string) *proc {
		return serve(name, nil, "-node-id", id, "-cache-dir", cacheOf(id), "-cluster-token", "heal-smoke-token",
			"-heartbeat", "100ms", "-suspect-after", "500ms",
			"-anti-entropy-interval", "250ms", "-join", join)
	}
	a := node("a", "a", "")
	b := node("b", "b", a.url)
	waitMembers(a, 2)

	// Node c joins while sweep 1 is queued and, idle, may steal from it.
	for _, s := range []string{"31", "32", "33"} {
		emcctl(a, "submit", sweep(s)...)
	}
	c := node("c", "c", a.url)
	for _, p := range []*proc{a, b, c} {
		waitMembers(p, 3)
	}
	ref := map[string][]byte{}
	for _, s := range []string{"31", "32", "33"} {
		_, ref[s] = resultOf(a, sweep(s)...)
	}

	for _, s := range []string{"34", "35", "36"} {
		emcctl(a, "submit", sweep(s)...)
	}
	kill(c)
	for _, s := range []string{"34", "35", "36"} {
		_, ref[s] = resultOf(a, sweep(s)...)
		_, rb := resultOf(b, sweep(s)...)
		sameBytes("seed "+s+" results through a and b after the kill", ref[s], rb)
	}

	// Record file names are a function of the key and frames encode
	// deterministic results, so byte equality is the contract.
	c = node("c-restarted", "c", a.url)
	waitMembers(c, 3)
	waitFor("c's durable cache to converge with a's", 30*time.Second, func() bool {
		files, err := os.ReadDir(cacheOf("a"))
		check(err == nil, fmt.Sprint("read a's cache: ", err))
		for _, f := range files {
			if !f.Type().IsRegular() {
				continue
			}
			want, _ := os.ReadFile(filepath.Join(cacheOf("a"), f.Name())) // a vanished file compares unequal
			got, err := os.ReadFile(filepath.Join(cacheOf("c"), f.Name()))
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	})
	for _, s := range []string{"31", "34"} {
		_, rc := resultOf(c, sweep(s)...)
		sameBytes("seed "+s+" results of the restarted node and a", ref[s], rc)
	}
	term(a, b, c)
}
