package cluster

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
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
// submissions (POST /api/v1/jobs) route through the node — so any node
// accepts any submission and forwards it to the key's owner — and the
// inter-node endpoints live under /api/v1/cluster/:
//
//	POST /api/v1/cluster/submit     forwarded job intake (SubmitRequest)
//	GET  /api/v1/cluster/record     ?key= -> durable EMCR frame bytes
//	GET  /api/v1/cluster/ping       Health JSON
//	POST /api/v1/cluster/steal      200 when a job is forwarded to the caller
//	                                (named by X-Emc-Node), 204 when declined
//	POST /api/v1/cluster/join       Member JSON -> member list JSON
//	GET  /api/v1/cluster/members    member list JSON
//	GET  /api/v1/cluster/digest     anti-entropy Digest JSON
//	GET  /api/v1/cluster/keys       ?bucket=N -> key list JSON
//
// A non-empty token shields every /api/v1/cluster/* endpoint behind a
// shared bearer token (constant-time compare, 401 on mismatch, rejections
// counted in the emcsim_cluster_auth_rejected gauge). The client-facing
// endpoints stay open — the token authenticates nodes to each other, not
// users to the service.
//
// Everything else (status, results, stats, trace, metrics) falls through to
// the wrapped service handler unchanged.
func NewHandler(n *Node, reg *obs.Registry, token string) http.Handler {
	inner := service.NewHandler(n.Service(), reg)
	var rejected atomic.Uint64
	var authGroup *obs.Group
	if reg != nil {
		authGroup = reg.NewGroup(map[string]string{"component": "cluster"}, []string{"cluster_auth_rejected"})
	}
	guard := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if token != "" {
				want := "Bearer " + token
				if subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), []byte(want)) != 1 {
					cnt := rejected.Add(1)
					if authGroup != nil {
						authGroup.Publish([]float64{float64(cnt)})
					}
					httpJSON(w, http.StatusUnauthorized, httpError{Error: "cluster: invalid or missing cluster token"})
					return
				}
			}
			if peer := r.Header.Get(peerIDHeader); peer != "" {
				n.MarkPeerSeen(peer)
			}
			h(w, r)
		}
	}
	mux := http.NewServeMux()
	mux.Handle("/", inner)
	mux.HandleFunc("POST /api/v1/jobs", n.httpSubmit)
	mux.HandleFunc("POST /api/v1/cluster/submit", guard(n.httpClusterSubmit))
	mux.HandleFunc("GET /api/v1/cluster/record", guard(n.httpRecord))
	mux.HandleFunc("GET /api/v1/cluster/ping", guard(n.httpPing))
	mux.HandleFunc("POST /api/v1/cluster/steal", guard(n.httpSteal))
	mux.HandleFunc("POST /api/v1/cluster/join", guard(n.httpJoin))
	mux.HandleFunc("GET /api/v1/cluster/members", guard(func(w http.ResponseWriter, _ *http.Request) {
		httpJSON(w, http.StatusOK, n.Members())
	}))
	mux.HandleFunc("GET /api/v1/cluster/digest", guard(n.httpDigest))
	mux.HandleFunc("GET /api/v1/cluster/keys", guard(n.httpKeys))
	return mux
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

// submitStatus maps a submission outcome onto the same status codes the
// single-process submit endpoint uses, so emcctl works against a fabric
// node unchanged.
func submitStatus(w http.ResponseWriter, st service.Status, err error) {
	switch {
	case errors.Is(err, service.ErrQueueFull), errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		httpJSON(w, http.StatusTooManyRequests, httpError{Error: err.Error()})
	case errors.Is(err, service.ErrDraining):
		httpJSON(w, http.StatusServiceUnavailable, httpError{Error: err.Error()})
	case err != nil:
		httpJSON(w, http.StatusInternalServerError, httpError{Error: err.Error()})
	case st.State.Terminal():
		httpJSON(w, http.StatusOK, st) // cache hit: already done
	default:
		httpJSON(w, http.StatusAccepted, st)
	}
}

// httpSubmit is the client-facing submit, routed cluster-wide.
func (n *Node) httpSubmit(w http.ResponseWriter, r *http.Request) {
	var req service.JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpJSON(w, http.StatusBadRequest, httpError{Error: "bad request body: " + err.Error()})
		return
	}
	cfg, err := req.Config()
	if err != nil {
		httpJSON(w, http.StatusBadRequest, httpError{Error: err.Error()})
		return
	}
	j, err := n.Submit(req.Client, cfg)
	if err != nil {
		submitStatus(w, service.Status{}, err)
		return
	}
	submitStatus(w, j.Status(), nil)
}

// httpClusterSubmit is the owner-side intake for forwarded jobs.
func (n *Node) httpClusterSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpJSON(w, http.StatusBadRequest, httpError{Error: "bad request body: " + err.Error()})
		return
	}
	st, err := n.HandleSubmit(req)
	if err != nil && !errors.Is(err, service.ErrQueueFull) && !errors.Is(err, service.ErrDraining) {
		httpJSON(w, http.StatusBadRequest, httpError{Error: err.Error()})
		return
	}
	submitStatus(w, st, err)
}

func (n *Node) httpRecord(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	frame, err := n.HandleFetch(key)
	switch {
	case errors.Is(err, ErrNoRecord):
		httpJSON(w, http.StatusNotFound, httpError{Error: err.Error()})
	case err != nil:
		httpJSON(w, http.StatusInternalServerError, httpError{Error: err.Error()})
	default:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(frame) //nolint:errcheck // client gone is the only failure here
	}
}

func (n *Node) httpPing(w http.ResponseWriter, _ *http.Request) {
	httpJSON(w, http.StatusOK, n.HandlePing())
}

func (n *Node) httpSteal(w http.ResponseWriter, r *http.Request) {
	if !n.HandleSteal(r.Header.Get(peerIDHeader)) {
		w.WriteHeader(http.StatusNoContent)
		return
	}
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

func (n *Node) httpDigest(w http.ResponseWriter, _ *http.Request) {
	httpJSON(w, http.StatusOK, n.HandleDigest())
}

func (n *Node) httpKeys(w http.ResponseWriter, r *http.Request) {
	bucket, err := strconv.Atoi(r.URL.Query().Get("bucket"))
	if err != nil || bucket < 0 || bucket >= digestBuckets {
		httpJSON(w, http.StatusBadRequest, httpError{Error: "bad bucket"})
		return
	}
	keys := n.HandleKeys(bucket)
	if keys == nil {
		keys = []string{}
	}
	httpJSON(w, http.StatusOK, keys)
}

// ---------------------------------------------------------------------------
// HTTP transport (the dialing side).

// HTTPTransport speaks the fabric protocol between emcserve processes. Node
// ids resolve to advertised base URLs through the membership table (the
// node's MemberAddr method).
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

func (t *HTTPTransport) base(node string) (string, error) {
	addr, ok := t.Resolve(node)
	if !ok || addr == "" {
		return "", ErrUnreachable
	}
	return strings.TrimSuffix(addr, "/"), nil
}

// do performs one fabric request, classifying the response: 2xx decodes
// into out (when non-nil), 429 is ErrBusy, 503 and transport failures are
// ErrUnreachable, everything else is a permanent error carrying the body.
func (t *HTTPTransport) do(ctx context.Context, method, url, contentType string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
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

func (t *HTTPTransport) Submit(ctx context.Context, node string, req SubmitRequest) (service.Status, error) {
	base, err := t.base(node)
	if err != nil {
		return service.Status{}, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return service.Status{}, err
	}
	var st service.Status
	if _, err := t.do(ctx, http.MethodPost, base+"/api/v1/cluster/submit", "application/json", body, &st); err != nil {
		return service.Status{}, err
	}
	return st, nil
}

// Status long-polls the owner's job endpoint with ?wait= in milliseconds,
// rounded up so a sub-millisecond wait still waits.
func (t *HTTPTransport) Status(ctx context.Context, node, jobID string, wait time.Duration) (service.Status, error) {
	base, err := t.base(node)
	if err != nil {
		return service.Status{}, err
	}
	ms := (wait + time.Millisecond - 1) / time.Millisecond
	var st service.Status
	if _, err := t.do(ctx, http.MethodGet, base+"/api/v1/jobs/"+url.PathEscape(jobID)+"?wait="+strconv.FormatInt(int64(ms), 10), "", nil, &st); err != nil {
		return service.Status{}, err
	}
	return st, nil
}

func (t *HTTPTransport) Cancel(ctx context.Context, node, jobID string) error {
	base, err := t.base(node)
	if err != nil {
		return err
	}
	_, err = t.do(ctx, http.MethodPost, base+"/api/v1/jobs/"+url.PathEscape(jobID)+"/cancel", "", nil, nil)
	return err
}

func (t *HTTPTransport) Fetch(ctx context.Context, node, key string) ([]byte, error) {
	base, err := t.base(node)
	if err != nil {
		return nil, err
	}
	var frame []byte
	code, err := t.do(ctx, http.MethodGet, base+"/api/v1/cluster/record?key="+url.QueryEscape(key), "", nil, &frame)
	if code == http.StatusNotFound {
		return nil, ErrNoRecord
	}
	if err != nil {
		return nil, err
	}
	return frame, nil
}

func (t *HTTPTransport) Ping(ctx context.Context, node string) (Health, error) {
	base, err := t.base(node)
	if err != nil {
		return Health{}, err
	}
	var h Health
	if _, err := t.do(ctx, http.MethodGet, base+"/api/v1/cluster/ping", "", nil, &h); err != nil {
		return Health{}, err
	}
	return h, nil
}

// Steal names the caller through the peer-id header (Self); a transport
// without Self is always declined.
func (t *HTTPTransport) Steal(ctx context.Context, node string) (bool, error) {
	base, err := t.base(node)
	if err != nil {
		return false, err
	}
	code, err := t.do(ctx, http.MethodPost, base+"/api/v1/cluster/steal", "", nil, nil)
	return err == nil && code == http.StatusOK, err
}

func (t *HTTPTransport) Join(ctx context.Context, node string, mem Member) ([]Member, error) {
	base, err := t.base(node)
	if err != nil {
		return nil, err
	}
	return t.JoinAddr(ctx, base, mem)
}

func (t *HTTPTransport) Digest(ctx context.Context, node string) (Digest, error) {
	base, err := t.base(node)
	if err != nil {
		return Digest{}, err
	}
	var d Digest
	if _, err := t.do(ctx, http.MethodGet, base+"/api/v1/cluster/digest", "", nil, &d); err != nil {
		return Digest{}, err
	}
	return d, nil
}

func (t *HTTPTransport) Keys(ctx context.Context, node string, bucket int) ([]string, error) {
	base, err := t.base(node)
	if err != nil {
		return nil, err
	}
	var keys []string
	if _, err := t.do(ctx, http.MethodGet, base+"/api/v1/cluster/keys?bucket="+strconv.Itoa(bucket), "", nil, &keys); err != nil {
		return nil, err
	}
	return keys, nil
}

// JoinAddr announces mem to the fabric member at baseURL directly — the
// bootstrap path, used before the target's node id is known (-join flag).
func (t *HTTPTransport) JoinAddr(ctx context.Context, baseURL string, mem Member) ([]Member, error) {
	body, err := json.Marshal(mem)
	if err != nil {
		return nil, err
	}
	var members []Member
	if _, err := t.do(ctx, http.MethodPost, strings.TrimSuffix(baseURL, "/")+"/api/v1/cluster/join", "application/json", body, &members); err != nil {
		return nil, err
	}
	return members, nil
}
