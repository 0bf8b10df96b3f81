package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"

	"repro/internal/service"
)

// LocalTransport is the in-process switchboard: an http.RoundTripper that
// hands each fabric request to the NewHandler of the node its host names,
// so in-process nodes speak the wire protocol through the handlers emcserve
// serves. Kill and partition switches let tests and the chaos suite model
// node failures without processes. Both are symmetric: a down node neither
// receives nor emits, a cut pair is cut both ways. A request to a down node
// or across a cut fails like a failed dial; Kill also fails the requests in
// flight to the node, like a reset connection.
type LocalTransport struct {
	client *http.Client
	mu     sync.Mutex
	nodes  map[string]*endpoint
	cut    map[[2]string]bool
}

// endpoint is one attached node as the switchboard sees it.
type endpoint struct {
	node *Node
	h    http.Handler // built by the first request that reaches the node
	up   context.Context
	kill context.CancelFunc // cancels up: the node is down
}

// NewLocalTransport builds an empty in-process switchboard.
func NewLocalTransport() *LocalTransport {
	lt := &LocalTransport{nodes: map[string]*endpoint{}, cut: map[[2]string]bool{}}
	lt.client = &http.Client{Transport: lt}
	return lt
}

// Attach registers n, replacing any earlier node under its id, and gives
// it an HTTPTransport that dials through the switchboard.
func (lt *LocalTransport) Attach(n *Node) {
	up, kill := context.WithCancel(context.Background())
	lt.mu.Lock()
	lt.nodes[n.ID()] = &endpoint{node: n, up: up, kill: kill}
	lt.mu.Unlock()
	n.SetTransport(&HTTPTransport{Client: lt.client, Resolve: localAddr, Self: n.ID()})
}

// localAddr is the in-process address book: a node's host is its id.
func localAddr(id string) (string, bool) { return "http://" + id, true }

// Kill makes id unreachable in both directions (the node-kill model: the
// process is gone; callers should also Close the node's service).
func (lt *LocalTransport) Kill(id string) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if e, ok := lt.nodes[id]; ok {
		e.kill()
	}
}

// Revive undoes Kill.
func (lt *LocalTransport) Revive(id string) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if e, ok := lt.nodes[id]; ok && e.up.Err() != nil {
		e.up, e.kill = context.WithCancel(context.Background())
	}
}

// Partition cuts the pair a↔b in both directions.
func (lt *LocalTransport) Partition(a, b string) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.cut[pairKey(a, b)] = true
}

// Heal undoes Partition for the pair.
func (lt *LocalTransport) Heal(a, b string) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	delete(lt.cut, pairKey(a, b))
}

// HealAll clears every partition (not kills).
func (lt *LocalTransport) HealAll() {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.cut = map[[2]string]bool{}
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// RoundTrip serves req on the handler of the node its host names, as sent
// by the node its peer-id header names. The handler runs on the caller's
// goroutine under a context that ends with the caller's or when the target
// is killed.
func (lt *LocalTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	from, to := req.Header.Get(peerIDHeader), req.URL.Host
	lt.mu.Lock()
	e, src := lt.nodes[to], lt.nodes[from]
	if e == nil || e.up.Err() != nil || (src != nil && src.up.Err() != nil) || lt.cut[pairKey(from, to)] {
		lt.mu.Unlock()
		return nil, ErrUnreachable
	}
	if e.h == nil {
		e.h = NewHandler(e.node, nil, "")
	}
	h, up := e.h, e.up
	lt.mu.Unlock()

	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	defer context.AfterFunc(up, cancel)()
	in := req.WithContext(ctx)
	if in.Body == nil {
		in.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, in)
	if up.Err() != nil {
		return nil, ErrUnreachable // killed mid-request: the connection reset
	}
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	return rec.Result(), nil
}

// ---------------------------------------------------------------------------
// Fabric: an in-process N-node cluster.

// FabricConfig sizes a local fabric. Node ids are "node0" … "nodeN-1".
type FabricConfig struct {
	// Nodes is the member count (default 3).
	Nodes int
	// Service builds node i's scheduler config (nil = service defaults).
	Service func(i int) service.Config
	// Opts overrides node i's cluster options; ID is filled in afterwards
	// (nil = defaults).
	Opts func(i int) Options
}

// Fabric is an in-process cluster: N services, N nodes, one LocalTransport,
// full-mesh membership. Tests and local experiments drive it directly; the
// golden figure tests prove it is byte-equivalent to one process.
type Fabric struct {
	Transport *LocalTransport
	Nodes     []*Node
	svcs      []*service.Service
	killed    []bool
}

// NewFabric builds and starts an in-process fabric.
func NewFabric(fc FabricConfig) (*Fabric, error) {
	if fc.Nodes <= 0 {
		fc.Nodes = 3
	}
	f := &Fabric{Transport: NewLocalTransport(), killed: make([]bool, fc.Nodes)}
	for i := 0; i < fc.Nodes; i++ {
		var scfg service.Config
		if fc.Service != nil {
			scfg = fc.Service(i)
		}
		svc, err := service.Open(scfg)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("cluster: fabric node %d: %w", i, err)
		}
		var opts Options
		if fc.Opts != nil {
			opts = fc.Opts(i)
		}
		opts.ID = fmt.Sprintf("node%d", i)
		n := New(svc, opts)
		f.Transport.Attach(n)
		f.svcs = append(f.svcs, svc)
		f.Nodes = append(f.Nodes, n)
	}
	for _, n := range f.Nodes {
		for _, m := range f.Nodes {
			if n != m {
				n.AddMember(m.selfMember())
			}
		}
	}
	for _, n := range f.Nodes {
		n.Start()
	}
	return f, nil
}

// AddNode grows a running fabric: it builds "node<len>" with the given
// service config and options, starts it, and joins it through the first
// surviving member, which gossips it to the rest. The newcomer starts idle
// and picks up queued work by stealing.
func (f *Fabric) AddNode(scfg service.Config, opts Options) (*Node, error) {
	i := len(f.Nodes)
	svc, err := service.Open(scfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: fabric node %d: %w", i, err)
	}
	opts.ID = fmt.Sprintf("node%d", i)
	n := New(svc, opts)
	f.Transport.Attach(n)
	f.svcs = append(f.svcs, svc)
	f.Nodes = append(f.Nodes, n)
	f.killed = append(f.killed, false)
	n.Start()
	if seed := f.seedFor(i); seed != "" {
		if err := n.JoinVia(context.Background(), seed); err != nil {
			return n, fmt.Errorf("cluster: fabric node %d join: %w", i, err)
		}
	}
	return n, nil
}

// Restart revives a previously killed slot with a fresh service and node
// under the same id — the crash-recovery model. The restarted node rejoins
// through a surviving member; peers that marked it dead revive it on their
// next successful probe, and anti-entropy backfills whatever its durable
// cache missed while down (point scfg at the same cache directory to model
// a restart with surviving disk state).
func (f *Fabric) Restart(i int, scfg service.Config, opts Options) (*Node, error) {
	if !f.killed[i] {
		return f.Nodes[i], nil
	}
	svc, err := service.Open(scfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: fabric node %d restart: %w", i, err)
	}
	opts.ID = fmt.Sprintf("node%d", i)
	n := New(svc, opts)
	f.Transport.Attach(n) // replaces the dead instance under the same id
	f.svcs[i] = svc
	f.Nodes[i] = n
	f.killed[i] = false
	f.Transport.Revive(n.ID())
	n.Start()
	if seed := f.seedFor(i); seed != "" {
		if err := n.JoinVia(context.Background(), seed); err != nil {
			return n, fmt.Errorf("cluster: fabric node %d rejoin: %w", i, err)
		}
	}
	return n, nil
}

// seedFor picks the first surviving member other than slot i.
func (f *Fabric) seedFor(i int) string {
	for j, m := range f.Nodes {
		if j != i && !f.killed[j] {
			return m.ID()
		}
	}
	return ""
}

// Kill models a node crash: unreachable on the wire, then its service is
// closed (running jobs cancel at the next cycle boundary). Idempotent.
func (f *Fabric) Kill(i int) {
	if f.killed[i] {
		return
	}
	f.killed[i] = true
	f.Transport.Kill(f.Nodes[i].ID())
	f.Nodes[i].Close()
	_ = f.svcs[i].Close()
}

// Close shuts the surviving nodes and services down.
func (f *Fabric) Close() {
	for i := range f.Nodes {
		if !f.killed[i] {
			f.Nodes[i].Close()
		}
	}
	for i, svc := range f.svcs {
		if !f.killed[i] {
			_ = svc.Close()
		}
	}
}
