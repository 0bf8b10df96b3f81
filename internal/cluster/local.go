package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/service"
)

// LocalTransport wires N in-process nodes together by direct method calls,
// with kill and partition switches so tests and the chaos suite can model
// node failures without processes. Kills and partitions are symmetric: a
// down node neither receives nor emits, a cut pair is cut both ways.
type LocalTransport struct {
	mu    sync.Mutex
	nodes map[string]*Node
	down  map[string]bool
	cut   map[[2]string]bool
}

// NewLocalTransport builds an empty in-process switchboard.
func NewLocalTransport() *LocalTransport {
	return &LocalTransport{nodes: map[string]*Node{}, down: map[string]bool{}, cut: map[[2]string]bool{}}
}

// Attach registers n and installs its per-node connection (the transport
// must know the caller to apply partitions).
func (lt *LocalTransport) Attach(n *Node) {
	lt.mu.Lock()
	lt.nodes[n.ID()] = n
	lt.mu.Unlock()
	n.SetTransport(&localConn{lt: lt, from: n.ID()})
}

// Kill makes id unreachable in both directions (the node-kill model: the
// process is gone; callers should also Close the node's service).
func (lt *LocalTransport) Kill(id string) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.down[id] = true
}

// Revive undoes Kill.
func (lt *LocalTransport) Revive(id string) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	delete(lt.down, id)
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

// reach resolves the target node if the path from→to is up.
func (lt *LocalTransport) reach(from, to string) (*Node, error) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.down[from] || lt.down[to] || lt.cut[pairKey(from, to)] {
		return nil, ErrUnreachable
	}
	n, ok := lt.nodes[to]
	if !ok {
		return nil, ErrUnreachable
	}
	return n, nil
}

// localConn is one node's view of the switchboard.
type localConn struct {
	lt   *LocalTransport
	from string
}

// conn resolves the target node and, since a delivered RPC is proof the
// caller is up, resets the receiver's suspect timer for the caller — the
// local-transport form of "any successful RPC from a peer counts as a
// heartbeat".
func (c *localConn) conn(node string) (*Node, error) {
	n, err := c.lt.reach(c.from, node)
	if err != nil {
		return nil, err
	}
	n.MarkPeerSeen(c.from)
	return n, nil
}

// mapLocalErr converts receiver-side service errors into transport-level
// classifications (what an HTTP status code would have carried).
func mapLocalErr(err error) error {
	switch err {
	case nil:
		return nil
	case service.ErrQueueFull:
		return ErrBusy
	case service.ErrDraining, ErrNodeClosed:
		return ErrUnreachable
	default:
		return err
	}
}

func (c *localConn) Submit(ctx context.Context, node string, req SubmitRequest) (service.Status, error) {
	n, err := c.conn(node)
	if err != nil {
		return service.Status{}, err
	}
	st, err := n.HandleSubmit(req)
	if err != nil {
		return service.Status{}, mapLocalErr(err)
	}
	return st, nil
}

func (c *localConn) Status(ctx context.Context, node, jobID string, wait time.Duration) (service.Status, error) {
	n, err := c.conn(node)
	if err != nil {
		return service.Status{}, err
	}
	st, err := n.HandleStatus(ctx, jobID, wait)
	return st, mapLocalErr(err)
}

func (c *localConn) Cancel(ctx context.Context, node, jobID string) error {
	n, err := c.conn(node)
	if err != nil {
		return err
	}
	return n.HandleCancel(jobID)
}

func (c *localConn) Fetch(ctx context.Context, node, key string) ([]byte, error) {
	n, err := c.conn(node)
	if err != nil {
		return nil, err
	}
	return n.HandleFetch(key)
}

func (c *localConn) Ping(ctx context.Context, node string) (Health, error) {
	n, err := c.conn(node)
	if err != nil {
		return Health{}, err
	}
	return n.HandlePing(), nil
}

func (c *localConn) Steal(ctx context.Context, node string) (bool, error) {
	n, err := c.conn(node)
	if err != nil {
		return false, err
	}
	return n.HandleSteal(c.from), nil
}

func (c *localConn) Join(ctx context.Context, node string, mem Member) ([]Member, error) {
	n, err := c.conn(node)
	if err != nil {
		return nil, err
	}
	return n.HandleJoin(mem), nil
}

func (c *localConn) Digest(ctx context.Context, node string) (Digest, error) {
	n, err := c.conn(node)
	if err != nil {
		return Digest{}, err
	}
	return n.HandleDigest(), nil
}

func (c *localConn) Keys(ctx context.Context, node string, bucket int) ([]string, error) {
	n, err := c.conn(node)
	if err != nil {
		return nil, err
	}
	return n.HandleKeys(bucket), nil
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
