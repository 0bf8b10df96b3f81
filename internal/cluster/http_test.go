// HTTP fabric end-to-end: three real HTTP servers (the same wiring
// cmd/emcserve uses), bootstrap via the join endpoint, client submissions
// through POST /api/v1/jobs on a non-owner, and byte-identical result
// bodies regardless of which node served the request.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/service"
)

// httpNode is one emcserve-shaped process: listener, service, node, server.
type httpNode struct {
	node *cluster.Node
	url  string
}

func startHTTPNode(t *testing.T, id string) *httpNode {
	return startHTTPNodeAuth(t, id, "")
}

// startHTTPNodeAuth is startHTTPNode with a shared cluster token: the
// handler guards /api/v1/cluster/* and the node's own transport presents
// the token, exactly like emcserve -cluster-token wires it.
func startHTTPNodeAuth(t *testing.T, id, token string) *httpNode {
	return startHTTPNodeOpts(t, id, token, cluster.Options{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      60 * time.Millisecond,
		PollInterval:      2 * time.Millisecond,
	})
}

// startHTTPNodeOpts is startHTTPNodeAuth with explicit cluster options (ID
// and Addr are filled in).
func startHTTPNodeOpts(t *testing.T, id, token string, opts cluster.Options) *httpNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	reg := obs.NewRegistry()
	svc, err := service.Open(service.Config{Workers: 2, QueueCap: 64, Metrics: reg, AttemptHook: parkBlockers})
	if err != nil {
		t.Fatal(err)
	}
	opts.ID, opts.Addr = id, url
	n := cluster.New(svc, opts)
	tr := cluster.NewHTTPTransport(n.MemberAddr)
	tr.Token = token
	tr.Self = id
	n.SetTransport(tr)
	srv := &http.Server{Handler: cluster.NewHandler(n, reg, token)}
	go srv.Serve(ln) //nolint:errcheck // closed by cleanup
	t.Cleanup(func() {
		n.Close()
		svc.Close()
		srv.Close()
	})
	return &httpNode{node: n, url: url}
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("GET %s: %v (%s)", url, err, data)
		}
	}
	return resp.StatusCode
}

func TestHTTPFabricEndToEnd(t *testing.T) {
	fault.DisableAll()
	a := startHTTPNode(t, "a")
	b := startHTTPNode(t, "b")
	c := startHTTPNode(t, "c")

	// Bootstrap: b and c join through a, like emcserve -join does.
	tr := cluster.NewHTTPTransport(func(string) (string, bool) { return "", false })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, n := range []*httpNode{b, c} {
		members, err := tr.JoinAddr(ctx, a.url, cluster.Member{ID: n.node.ID(), Addr: n.url})
		if err != nil {
			t.Fatalf("join %s via a: %v", n.node.ID(), err)
		}
		for _, m := range members {
			n.node.AddMember(m)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range []*httpNode{a, b, c} {
		for len(n.node.Members()) < 3 {
			if time.Now().After(deadline) {
				t.Fatalf("membership never converged on %s: %+v", n.node.ID(), n.node.Members())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Find a request whose key is owned by c, so a and b both must route.
	ring := cluster.NewRing(0)
	ring.Add("a")
	ring.Add("b")
	ring.Add("c")
	var seed uint64
	for s := uint64(1); s < 4096; s++ {
		cfg := tinyCfg(s)
		key := service.CacheKey(&cfg)
		if ring.Owner(key, nil) == "c" {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("no c-owned seed")
	}
	ref := runTiny(t, tinyCfg(seed)).Hash()

	submit := func(base string) string {
		body, _ := json.Marshal(map[string]any{
			"client":       "e2e",
			"benchmarks":   []string{"mcf", "sphinx3", "soplex", "libquantum"},
			"instrPerCore": 1000,
			"seed":         seed,
		})
		resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			data, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST %s/api/v1/jobs: %d %s", base, resp.StatusCode, data)
		}
		var st service.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.ID
	}

	// Same fingerprint submitted to two different nodes, neither the owner.
	idA := submit(a.url)
	idB := submit(b.url)

	waitDone := func(base, id string) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			var st service.Status
			getJSON(t, fmt.Sprintf("%s/api/v1/jobs/%s", base, id), &st)
			if st.State.Terminal() {
				if st.State != service.StateDone {
					t.Fatalf("job %s on %s ended %s: %s", id, base, st.State, st.Error)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s on %s never finished", id, base)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitDone(a.url, idA)
	waitDone(b.url, idB)

	// Byte-identical result bodies from both entry nodes.
	fetch := func(base, id string) []byte {
		resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%s/result", base, id))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET result on %s: %d %s", base, resp.StatusCode, data)
		}
		return data
	}
	resA, resB := fetch(a.url, idA), fetch(b.url, idB)
	if !bytes.Equal(resA, resB) {
		t.Fatal("result bytes differ between entry nodes")
	}

	// Exactly one execution fabric-wide, and it happened on the owner.
	var executed uint64
	for _, n := range []*httpNode{a, b, c} {
		executed += n.node.Service().Stats().Executed
	}
	if executed != 1 {
		t.Fatalf("%d executions across the HTTP fabric, want 1", executed)
	}
	if got := c.node.Service().Stats().Executed; got != 1 {
		t.Fatalf("owner executed %d, want 1", got)
	}
	if res, ok := c.node.Service().PeekResult(func() string {
		cfg := tinyCfg(seed)
		k := service.CacheKey(&cfg)
		return k
	}()); !ok || res.Hash() != ref {
		t.Fatal("owner cache missing or wrong reference result")
	}

	// The per-node stats rows crossed the HTTP boundary too.
	var st service.Stats
	getJSON(t, a.url+"/api/v1/stats", &st)
	if len(st.Nodes) != 3 || st.Nodes[0].State != "self" {
		t.Fatalf("stats rows wrong over HTTP: %+v", st.Nodes)
	}
	if st.Nodes[0].Forwarded == 0 {
		t.Fatalf("entry node self row shows no forwards: %+v", st.Nodes[0])
	}
}

// TestHTTPTransportErrorClassification: the HTTP status codes map back to
// the three transport buckets.
func TestHTTPTransportErrorClassification(t *testing.T) {
	fault.DisableAll()
	a := startHTTPNode(t, "a")
	tr := cluster.NewHTTPTransport(func(id string) (string, bool) {
		if id == "a" {
			return a.url, true
		}
		if id == "gone" {
			return "http://127.0.0.1:1", true // nothing listens here
		}
		return "", false
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, err := tr.Ping(ctx, "a"); err != nil {
		t.Fatalf("ping a live node: %v", err)
	}
	if _, err := tr.Ping(ctx, "gone"); err != cluster.ErrUnreachable {
		t.Fatalf("dead endpoint classified %v, want ErrUnreachable", err)
	}
	if _, err := tr.Ping(ctx, "unknown"); err != cluster.ErrUnreachable {
		t.Fatalf("unresolvable node classified %v, want ErrUnreachable", err)
	}
	if _, err := tr.Fetch(ctx, "a", "no-such-key"); err != cluster.ErrNoRecord {
		t.Fatalf("missing record classified %v, want ErrNoRecord", err)
	}
	// A steal against an idle node declines with (false, nil) over 204.
	ok, err := tr.Steal(ctx, "a")
	if err != nil || ok {
		t.Fatalf("idle steal = (%v, %v), want (false, nil)", ok, err)
	}
}

// TestHTTPClusterAuth: with -cluster-token set, every inter-node endpoint
// rejects missing and wrong tokens with 401 (counted in the Prometheus
// gauge), accepts the right bearer token, and leaves the client-facing
// API open. Two token-bearing nodes still form a working fabric.
func TestHTTPClusterAuth(t *testing.T) {
	fault.DisableAll()
	const token = "sweep-fabric-secret"
	a := startHTTPNodeAuth(t, "a", token)
	b := startHTTPNodeAuth(t, "b", token)

	get := func(path, auth string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, a.url+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
		resp.Body.Close()
		return resp.StatusCode
	}

	guarded := []string{
		"/api/v1/cluster/ping",
		"/api/v1/cluster/keys",
		"/api/v1/cluster/record?key=x",
	}
	for _, path := range guarded {
		if code := get(path, ""); code != http.StatusUnauthorized {
			t.Errorf("GET %s without token: %d, want 401", path, code)
		}
		if code := get(path, "Bearer wrong-token"); code != http.StatusUnauthorized {
			t.Errorf("GET %s with wrong token: %d, want 401", path, code)
		}
	}
	if code := get("/api/v1/cluster/keys", "Bearer "+token); code != http.StatusOK {
		t.Fatalf("GET keys with the right token: %d, want 200", code)
	}
	// The client-facing API is not behind the token.
	for _, path := range []string{"/api/v1/stats", "/healthz"} {
		if code := get(path, ""); code != http.StatusOK {
			t.Errorf("GET %s (client API) without token: %d, want 200", path, code)
		}
	}

	// The rejections reached the Prometheus gauge.
	resp, err := http.Get(a.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(metrics, []byte("emcsim_cluster_auth_rejected")) {
		t.Fatal("auth_rejected gauge missing from /metrics")
	}

	// A transport without the token is shut out with a permanent error (the
	// endpoint answered, so this must NOT classify as unreachable — a
	// misconfigured token must not read as a network partition).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	bare := cluster.NewHTTPTransport(func(id string) (string, bool) {
		if id == "a" {
			return a.url, true
		}
		return "", false
	})
	if _, err := bare.Ping(ctx, "a"); err == nil || err == cluster.ErrUnreachable {
		t.Fatalf("unauthenticated ping classified %v, want permanent error", err)
	}

	// Token-bearing nodes still form a fabric: join b through a and let the
	// authenticated heartbeats converge membership.
	authed := cluster.NewHTTPTransport(func(string) (string, bool) { return "", false })
	authed.Token = token
	authed.Self = "b"
	members, err := authed.JoinAddr(ctx, a.url, cluster.Member{ID: "b", Addr: b.url})
	if err != nil {
		t.Fatalf("authenticated join: %v", err)
	}
	for _, m := range members {
		b.node.AddMember(m)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range []*httpNode{a, b} {
		for len(n.node.Members()) < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("authed membership never converged on %s", n.node.ID())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// A running node whose transport carries the wrong token gets 401 on
	// every heartbeat, and an answer is liveness: it must still see its peer
	// alive long after the suspect window (60ms) has passed.
	w := startHTTPNodeAuth(t, "w", "wrong-token")
	w.node.AddMember(cluster.Member{ID: "a", Addr: a.url})
	w.node.Start()
	time.Sleep(500 * time.Millisecond)
	if row, ok := peerRow(w.node, "a"); !ok || row.State != "alive" {
		t.Fatalf("a on the wrong-token node: %+v, want alive — a 401 read as a partition", row)
	}
}

// TestPingSkipsStatsHook: a heartbeat answer reads the node's load from
// the service's counters and never runs the stats hook, which builds every
// node row.
func TestPingSkipsStatsHook(t *testing.T) {
	fault.DisableAll()
	a := startHTTPNode(t, "a")
	var calls atomic.Int64
	a.node.Service().SetClusterStats(func(*service.Stats) []service.NodeStat {
		calls.Add(1)
		return nil
	})
	const pings = 5
	for i := 0; i < pings; i++ {
		var h cluster.Health
		if code := getJSON(t, a.url+"/api/v1/cluster/ping", &h); code != http.StatusOK || h.ID != "a" {
			t.Fatalf("ping: %d %+v", code, h)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("%d pings ran the stats hook %d times, want 0", pings, n)
	}
}

// TestHTTPTransportStatusWaits: the HTTP transport's status call is a
// long-poll on the owner — it returns a pending job's status only once its
// wait expires, and a finishing job's as soon as it is done.
func TestHTTPTransportStatusWaits(t *testing.T) {
	fault.DisableAll()
	a := startHTTPNode(t, "a")
	tr := cluster.NewHTTPTransport(func(string) (string, bool) { return a.url, true })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	release := make(chan struct{})
	bj, err := a.node.Service().Submit("t", blockerCfg(release))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	st, err := tr.Status(ctx, "a", bj.ID(), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 50*time.Millisecond || st.State.Terminal() {
		t.Fatalf("status wait returned %s after %v, want a pending job after >= 50ms", st.State, d)
	}
	close(release)

	j, err := a.node.Service().Submit("t", tinyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	st, err = tr.Status(ctx, "a", j.ID(), 8*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); st.State != service.StateDone || d > 5*time.Second {
		t.Fatalf("status wait returned %s after %v, want done as soon as the job finished", st.State, d)
	}
}

// TestHTTPClusterSubmitRejectsKeyMismatch: the owner recomputes a forwarded
// job's key from its config. A key that does not match — here another
// config's — is answered 400 and creates no job; the matching key is
// accepted.
func TestHTTPClusterSubmitRejectsKeyMismatch(t *testing.T) {
	fault.DisableAll()
	a := startHTTPNode(t, "a")
	cfg, other := tinyCfg(1), tinyCfg(2)
	post := func(key string) int {
		t.Helper()
		body, err := json.Marshal(cluster.SubmitRequest{Client: "t", Key: key, Cfg: cfg})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(a.url+"/api/v1/cluster/submit", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	svc := a.node.Service()
	if code := post(service.CacheKey(&other)); code != http.StatusBadRequest {
		t.Fatalf("mismatched key: got %d, want 400", code)
	}
	if n := svc.Stats().Submitted; n != 0 {
		t.Fatalf("mismatched key created %d jobs, want 0", n)
	}
	if code := post(service.CacheKey(&cfg)); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("matching key: got %d, want 202", code)
	}
	if n := svc.Stats().Submitted; n != 1 {
		t.Fatalf("matching key created %d jobs, want 1", n)
	}
}

// TestHTTPStatusWaitsCreditPeer: over real sockets, the status long-polls an
// entry node sends to follow a forwarded job credit it on the owner. With
// every heartbeat probe suppressed and the job outliving SuspectAfter
// several times over, those waits alone must keep the entry node alive
// there.
func TestHTTPStatusWaitsCreditPeer(t *testing.T) {
	fault.DisableAll()
	t.Cleanup(fault.DisableAll)
	const suspect = 200 * time.Millisecond
	opts := cluster.Options{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      suspect,
		PollInterval:      2 * time.Millisecond,
	}
	entry := startHTTPNodeOpts(t, "node0", "", opts)
	owner := startHTTPNodeOpts(t, "node1", "", opts)
	entry.node.AddMember(cluster.Member{ID: "node1", Addr: owner.url})
	owner.node.AddMember(cluster.Member{ID: "node0", Addr: entry.url})
	entry.node.Start()
	owner.node.Start()
	waitFor(t, 10*time.Second, "both peers alive", func() bool {
		a, okA := peerRow(entry.node, "node1")
		b, okB := peerRow(owner.node, "node0")
		return okA && okB && a.State == "alive" && b.State == "alive"
	})

	armSite(t, fault.SiteClusterHeartbeat, fault.Trigger{}) // no probes at all
	j, err := entry.node.Submit("t", ownedCfg(t, 2, 1, 30_000_000))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = entry.node.Service().Cancel(j.ID())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _ = j.Wait(ctx)
	}()
	waitFor(t, 10*time.Second, "owner to run the forwarded job", func() bool {
		return owner.node.Service().Stats().Running == 1
	})
	for end := time.Now().Add(5 * suspect); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if row, _ := peerRow(owner.node, "node0"); row.State != "alive" {
			t.Fatalf("entry node on the owner: %+v — status waits did not credit it", row)
		}
	}
	if j.Status().State.Terminal() {
		t.Fatal("job ended inside the window: nothing was waiting on the owner")
	}
}
