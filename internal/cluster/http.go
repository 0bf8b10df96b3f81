package cluster

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// peerIDHeader carries the calling node's id on inter-node requests, so the
// receiver can credit the caller's suspect timer (any successful RPC from a
// peer is liveness evidence as good as a heartbeat) and knows whom to
// forward a stolen job to.
const peerIDHeader = "X-Emc-Node"

// NewHandler wraps the service HTTP API with the fabric protocol. Client
// submissions (POST /api/v1/jobs) go through the service's submit handler
// with the node's Submit — so any node accepts any submission and forwards
// it to the key's owner — and the inter-node endpoints live under
// /api/v1/cluster/:
//
//	POST /api/v1/cluster/submit     forwarded job intake (SubmitRequest)
//	GET  /api/v1/cluster/record     ?key= -> durable EMCR frame bytes
//	GET  /api/v1/cluster/ping       Health JSON
//	POST /api/v1/cluster/steal      200 when a job is forwarded to the caller
//	                                (named by X-Emc-Node), 204 when declined
//	POST /api/v1/cluster/join       Member JSON -> member list JSON
//	GET  /api/v1/cluster/keys       every cached result key, sorted (JSON)
//
// A non-empty token shields every /api/v1/cluster/* endpoint behind a
// shared bearer token (constant-time compare, 401 on mismatch, rejections
// counted in the emcsim_cluster_auth_rejected gauge). The client-facing
// endpoints stay open — the token authenticates nodes to each other, not
// users to the service.
//
// Every request that names a peer in X-Emc-Node, and passes the token check
// when one is set, credits that peer's suspect timer, whatever its route:
// the status waits and cancels that follow a forwarded job count too.
//
// Everything else (status, results, stats, trace, metrics) falls through to
// the wrapped service handler unchanged, except that a peer's status wait
// answers 503 once this node begins closing (peerStatus).
func NewHandler(n *Node, reg *obs.Registry, token string) http.Handler {
	inner := service.NewHandler(n.Service(), reg)
	var rejected atomic.Uint64
	if reg != nil {
		reg.NewGroupFunc(map[string]string{"component": "cluster"}, []string{"cluster_auth_rejected"},
			func() []float64 { return []float64{float64(rejected.Load())} })
	}
	want := []byte("Bearer " + token)
	authorized := func(r *http.Request) bool {
		return token == "" || subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), want) == 1
	}
	guard := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if !authorized(r) {
				rejected.Add(1)
				httpJSON(w, http.StatusUnauthorized, httpError{Error: "cluster: invalid or missing cluster token"})
				return
			}
			h(w, r)
		}
	}
	mux := http.NewServeMux()
	mux.Handle("/", inner)
	mux.HandleFunc("POST /api/v1/jobs", service.SubmitHandler(n.Submit))
	mux.HandleFunc("GET /api/v1/jobs/{id}", n.peerStatus(inner))
	mux.HandleFunc("POST /api/v1/cluster/submit", guard(n.httpClusterSubmit))
	mux.HandleFunc("GET /api/v1/cluster/record", guard(n.httpRecord))
	mux.HandleFunc("GET /api/v1/cluster/ping", guard(n.httpPing))
	mux.HandleFunc("POST /api/v1/cluster/steal", guard(n.httpSteal))
	mux.HandleFunc("POST /api/v1/cluster/join", guard(n.httpJoin))
	mux.HandleFunc("GET /api/v1/cluster/keys", guard(func(w http.ResponseWriter, _ *http.Request) {
		httpJSON(w, http.StatusOK, n.svc.ResultKeys())
	}))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if peer := r.Header.Get(peerIDHeader); peer != "" && authorized(r) {
			n.MarkPeerSeen(peer)
		}
		mux.ServeHTTP(w, r)
	})
}

// peerStatus serves a peer's status wait on a job it forwarded here. A
// closing node answers 503, which the peer treats like an unreachable
// owner: it fails over rather than read the cancellation this node's
// closing service is about to report. Close also ends a wait in progress:
// the service then writes nothing, and the 503 follows. Clients' status
// requests pass straight through.
func (n *Node) peerStatus(inner http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(peerIDHeader) == "" {
			inner.ServeHTTP(w, r)
			return
		}
		tw := &trackingWriter{ResponseWriter: w}
		if n.ctx.Err() == nil {
			ctx, cancel := context.WithCancel(r.Context())
			defer cancel()
			defer context.AfterFunc(n.ctx, cancel)()
			inner.ServeHTTP(tw, r.WithContext(ctx))
		}
		if !tw.wrote {
			httpJSON(w, http.StatusServiceUnavailable, httpError{Error: ErrNodeClosed.Error()})
		}
	}
}

// trackingWriter records whether a handler answered at all.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *trackingWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *trackingWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

type httpError struct {
	Error string `json:"error"`
}

func httpJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone is the only failure here
}

// httpClusterSubmit is the owner-side intake for a forwarded job. The key is
// recomputed from the config and must match the sender's — a mismatch means
// the config did not survive its encoding and the job must not run under
// the forwarded identity. The job never coalesces onto one this node follows
// on a peer (service.SubmitForwarded), so a forward cannot close a wait
// cycle. The answer is the client submit's: 429 on a full queue is what the
// sender reads as ErrBusy.
func (n *Node) httpClusterSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpJSON(w, http.StatusBadRequest, httpError{Error: "bad request body: " + err.Error()})
		return
	}
	if key := service.CacheKey(&req.Cfg); key != req.Key {
		httpJSON(w, http.StatusBadRequest, httpError{Error: fmt.Sprintf("cluster: forwarded key %q does not match config (computed %q)", req.Key, key)})
		return
	}
	j, err := n.svc.SubmitForwarded(req.Client, req.Cfg)
	service.WriteSubmit(w, j, err)
}

// httpRecord serves the durable frame for ?key= from the local cache.
func (n *Node) httpRecord(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	res, ok := n.svc.PeekResult(key)
	if !ok {
		httpJSON(w, http.StatusNotFound, httpError{Error: ErrNoRecord.Error()})
		return
	}
	frame, err := service.EncodeRecord(key, res)
	if err != nil {
		httpJSON(w, http.StatusInternalServerError, httpError{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(frame) //nolint:errcheck // client gone is the only failure here
}

// httpPing answers a heartbeat with this node's load and sync state.
func (n *Node) httpPing(w http.ResponseWriter, _ *http.Request) {
	queued, running, hung := n.svc.Load()
	httpJSON(w, http.StatusOK, Health{
		ID: n.id, Queued: queued, Running: running, Hung: hung,
		Stealable: n.svc.Stealable(), Syncing: n.syncing.Load(),
	})
}

// httpSteal answers a steal from the thief the peer-id header names: it
// takes one queued job and forwards it to the thief through routeJob, the
// path every forwarded job takes, so the victim follows it by status wait
// and fetches its result (200). It declines (204) when the thief is unnamed,
// a worker here is free, nothing is stealable, or the node is closing. The
// free-worker rule keeps a job that a worker is about to pick up from
// moving, and keeps a thief, idle when it stole, from handing its stolen
// job straight back.
func (n *Node) httpSteal(w http.ResponseWriter, r *http.Request) {
	thief := r.Header.Get(peerIDHeader)
	if fpSteal.Fire() || thief == "" || !n.svc.Saturated() || !n.enter() {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	j, ok := n.svc.TakeQueued()
	if !ok {
		n.wg.Done()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	n.stolenOut.Add(1)
	go n.routeJob(j, thief, true)
	w.WriteHeader(http.StatusOK)
}

func (n *Node) httpJoin(w http.ResponseWriter, r *http.Request) {
	var mem Member
	if err := json.NewDecoder(r.Body).Decode(&mem); err != nil {
		httpJSON(w, http.StatusBadRequest, httpError{Error: "bad request body: " + err.Error()})
		return
	}
	httpJSON(w, http.StatusOK, n.HandleJoin(mem))
}

// ---------------------------------------------------------------------------
// HTTP transport (the dialing side).

// HTTPTransport is the dialing side of the fabric protocol, the only one:
// emcserve nodes dial each other over TCP, resolving node ids to advertised
// base URLs through the membership table (the node's MemberAddr method),
// and an in-process fabric dials through a LocalTransport.
type HTTPTransport struct {
	// Client is the underlying HTTP client; NewHTTPTransport sets a
	// 10-second timeout so a dead TCP peer fails fast enough for the
	// heartbeat sweep.
	Client *http.Client
	// Resolve maps a node id to its advertised base URL.
	Resolve func(node string) (string, bool)
	// Token, when non-empty, is sent as a bearer token on every request —
	// the counterpart of the handler's -cluster-token guard.
	Token string
	// Self is this node's id, announced in the peer-id header so receivers
	// credit our suspect timer on any successful RPC and can forward a
	// stolen job back to us.
	Self string
}

// NewHTTPTransport builds the transport with resolve as its address book.
func NewHTTPTransport(resolve func(node string) (string, bool)) *HTTPTransport {
	return &HTTPTransport{Client: &http.Client{Timeout: 10 * time.Second}, Resolve: resolve}
}

// call performs one fabric request against node; see do.
func (t *HTTPTransport) call(ctx context.Context, node, method, path string, in, out any) (int, error) {
	addr, ok := t.Resolve(node)
	if !ok || addr == "" {
		return 0, ErrUnreachable
	}
	return t.do(ctx, method, strings.TrimSuffix(addr, "/")+path, in, out)
}

// do performs one fabric request, sending in (when non-nil) as JSON and
// classifying the response: 2xx decodes into out (when non-nil; a *[]byte
// takes the raw body), 429 is ErrBusy, 503 and transport failures are
// ErrUnreachable, everything else is a permanent error carrying the body.
func (t *HTTPTransport) do(ctx context.Context, method, url string, in, out any) (int, error) {
	var rd io.Reader
	if in != nil {
		body, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if t.Token != "" {
		req.Header.Set("Authorization", "Bearer "+t.Token)
	}
	if t.Self != "" {
		req.Header.Set(peerIDHeader, t.Self)
	}
	resp, err := t.Client.Do(req)
	if err != nil {
		return 0, ErrUnreachable
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, ErrUnreachable
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return resp.StatusCode, ErrBusy
	case resp.StatusCode == http.StatusServiceUnavailable:
		return resp.StatusCode, ErrUnreachable
	case resp.StatusCode >= 400:
		var apiErr httpError
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			return resp.StatusCode, fmt.Errorf("cluster: %s: %s", url, apiErr.Error)
		}
		return resp.StatusCode, fmt.Errorf("cluster: %s: HTTP %d", url, resp.StatusCode)
	}
	if out != nil {
		if b, ok := out.(*[]byte); ok {
			*b = data
			return resp.StatusCode, nil
		}
		if len(data) == 0 {
			return resp.StatusCode, nil // 204 and friends
		}
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("cluster: %s: bad response: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

// Submit hands a forwarded job to its owner and returns the owner's job
// status (which may already be terminal on a cache hit).
func (t *HTTPTransport) Submit(ctx context.Context, node string, req SubmitRequest) (service.Status, error) {
	var st service.Status
	_, err := t.call(ctx, node, http.MethodPost, "/api/v1/cluster/submit", req, &st)
	return st, err
}

// Status long-polls the owner's job endpoint with ?wait= in milliseconds,
// rounded up so a sub-millisecond wait still waits.
func (t *HTTPTransport) Status(ctx context.Context, node, jobID string, wait time.Duration) (service.Status, error) {
	ms := (wait + time.Millisecond - 1) / time.Millisecond
	var st service.Status
	_, err := t.call(ctx, node, http.MethodGet, "/api/v1/jobs/"+url.PathEscape(jobID)+"?wait="+strconv.FormatInt(int64(ms), 10), nil, &st)
	return st, err
}

// Cancel propagates a cancellation to the owner. Best effort.
func (t *HTTPTransport) Cancel(ctx context.Context, node, jobID string) error {
	_, err := t.call(ctx, node, http.MethodPost, "/api/v1/jobs/"+url.PathEscape(jobID)+"/cancel", nil, nil)
	return err
}

// Fetch retrieves the durable EMCR frame for key from a peer's cache.
func (t *HTTPTransport) Fetch(ctx context.Context, node, key string) ([]byte, error) {
	var frame []byte
	code, err := t.call(ctx, node, http.MethodGet, "/api/v1/cluster/record?key="+url.QueryEscape(key), nil, &frame)
	if code == http.StatusNotFound {
		return nil, ErrNoRecord
	}
	return frame, err
}

// Ping probes a peer's liveness and load.
func (t *HTTPTransport) Ping(ctx context.Context, node string) (Health, error) {
	var h Health
	_, err := t.call(ctx, node, http.MethodGet, "/api/v1/cluster/ping", nil, &h)
	return h, err
}

// Steal asks node to forward one of its queued jobs to this node, named
// through the peer-id header (Self); a transport without Self is always
// declined. The reply carries no job: true means the job follows as an
// ordinary forwarded Submit.
func (t *HTTPTransport) Steal(ctx context.Context, node string) (bool, error) {
	code, err := t.call(ctx, node, http.MethodPost, "/api/v1/cluster/steal", nil, nil)
	return err == nil && code == http.StatusOK, err
}

// Join announces mem to a peer and returns the peer's member list.
func (t *HTTPTransport) Join(ctx context.Context, node string, mem Member) ([]Member, error) {
	var members []Member
	_, err := t.call(ctx, node, http.MethodPost, "/api/v1/cluster/join", mem, &members)
	return members, err
}

// Keys lists every durable record key a peer holds, sorted.
func (t *HTTPTransport) Keys(ctx context.Context, node string) ([]string, error) {
	var keys []string
	_, err := t.call(ctx, node, http.MethodGet, "/api/v1/cluster/keys", nil, &keys)
	return keys, err
}

// JoinAddr announces mem to the fabric member at baseURL directly — the
// bootstrap path, used before the target's node id is known (-join flag).
func (t *HTTPTransport) JoinAddr(ctx context.Context, baseURL string, mem Member) ([]Member, error) {
	var members []Member
	_, err := t.do(ctx, http.MethodPost, strings.TrimSuffix(baseURL, "/")+"/api/v1/cluster/join", mem, &members)
	return members, err
}
