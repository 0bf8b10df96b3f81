package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/sim"
)

// Cluster failpoints (see internal/fault): forward makes one routing RPC
// fail as unreachable (the partition model, driving re-dispatch); fetch
// fails a peer-fetch attempt; fetch.recv tears one byte of a fetched or
// backfilled frame (the CRC check must reject it); heartbeat skips one
// probe; steal refuses to hand out a job.
var (
	fpForward   = fault.Register(fault.SiteClusterForward)
	fpFetch     = fault.Register(fault.SiteClusterFetch)
	fpFetchRecv = fault.Register(fault.SiteClusterFetchRecv)
	fpHeartbeat = fault.Register(fault.SiteClusterHeartbeat)
	fpSteal     = fault.Register(fault.SiteClusterSteal)
)

// maxHops bounds re-dispatch hops across dying owners before the job falls
// back to local execution.
const maxHops = 4

// Options tunes one fabric node. The zero value of every field selects a
// production-shaped default; tests shrink the intervals.
type Options struct {
	// ID is the node's stable identity on the ring. Required.
	ID string
	// Addr is the advertised base URL for HTTP fabrics (empty in-process).
	Addr string
	// HeartbeatInterval is the peer probe cadence (default 1s).
	HeartbeatInterval time.Duration
	// SuspectAfter is how stale a peer's heartbeat may be before it is
	// marked dead (default 4 × HeartbeatInterval).
	SuspectAfter time.Duration
	// PollInterval bounds each status wait a routed job follows its owner
	// with: the owner answers as soon as the job is terminal or after this
	// long, and the entry node asks again at once. It is therefore how long a
	// cancel on the entry node, or a partition, can go unnoticed (default
	// 100ms).
	PollInterval time.Duration
	// AntiEntropyInterval is the cadence of the anti-entropy loop: each tick
	// reads the key list of one live peer round-robin and backfills the
	// durable records this node lacks (default 30s).
	AntiEntropyInterval time.Duration
	// Weight is this node's ring weight — the virtual-point multiplier for
	// heterogeneous fabrics (default 1).
	Weight int
}

func (o *Options) defaults() {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 4 * o.HeartbeatInterval
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 100 * time.Millisecond
	}
	if o.AntiEntropyInterval <= 0 {
		o.AntiEntropyInterval = 30 * time.Second
	}
	if o.Weight <= 0 {
		o.Weight = 1
	}
}

// Counters is a node's cluster-counter snapshot (tests, smoke checks).
type Counters struct {
	Forwarded     uint64 // fresh jobs this node routed to a remote owner
	LocalFallback uint64 // routed jobs (not stolen ones) that ended up executing here
	ReplSent      uint64 // stolen-out jobs whose result this victim fetched back
	Torn          uint64 // fetched or backfilled frames rejected by CRC verification
	Fetched       uint64 // records fetched from peers
	StolenIn      uint64 // steals a victim accepted (the job arrives as a forward)
	StolenOut     uint64 // queued jobs forwarded to thieves
	Reclaimed     uint64 // stolen-out jobs that fell back to run on this victim
	Backfilled    uint64 // records backfilled via anti-entropy sync
}

// Node is one fabric member: a service.Service plus the routing, steal,
// peer-fetch, anti-entropy, and health machinery that makes N of them act
// as one scheduler. The service never learns about the cluster — the node
// attaches itself through the service's hook surface (service/cluster.go).
type Node struct {
	id   string
	opts Options
	svc  *service.Service
	tr   *HTTPTransport

	ring    *Ring
	members *membership

	// mu orders Close's cancel against every wg.Add made on behalf of a
	// caller (enter).
	mu sync.Mutex

	syncing atomic.Bool // anti-entropy backfill in progress

	// ctx is cancelled by Close: the loops exit on it, and the status waits
	// of routed jobs carry it so Close cuts them short.
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started bool

	forwarded     atomic.Uint64
	localFallback atomic.Uint64
	replSent      atomic.Uint64
	torn          atomic.Uint64
	fetched       atomic.Uint64
	stolenIn      atomic.Uint64
	stolenOut     atomic.Uint64
	reclaimed     atomic.Uint64
	backfilled    atomic.Uint64
}

// New builds a node around svc. The node installs itself into the service's
// stats hook; call SetTransport, AddMember for the known peers, then Start.
func New(svc *service.Service, opts Options) *Node {
	opts.defaults()
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		id:      opts.ID,
		opts:    opts,
		svc:     svc,
		ring:    NewRing(0),
		members: newMembership(),
		ctx:     ctx,
		cancel:  cancel,
	}
	n.ring.AddWeighted(n.id, opts.Weight)
	n.members.upsert(n.selfMember(), true, time.Now())
	svc.SetClusterStats(n.nodeStats)
	return n
}

// ID returns the node's ring identity.
func (n *Node) ID() string { return n.id }

// Service returns the wrapped scheduler.
func (n *Node) Service() *service.Service { return n.svc }

// SetTransport wires the node's dialing side: over TCP for emcserve, through
// a LocalTransport in-process. Must be called before Start.
func (n *Node) SetTransport(tr *HTTPTransport) { n.tr = tr }

// selfMember is this node's identity as announced through joins: id,
// advertised address, and ring weight (gossip carries the weight so every
// node builds the same weighted ring).
func (n *Node) selfMember() Member {
	return Member{ID: n.id, Addr: n.opts.Addr, Weight: n.opts.Weight}
}

// AddMember registers a peer on the ring and in the membership table.
// Idempotent; safe while running (joins arrive concurrently).
func (n *Node) AddMember(mem Member) { n.admitMember(mem) }

// admitMember is the single funnel every membership source goes through
// (static config, self-join, gossip). A genuinely new member extends the
// ring at its announced weight. Returns true only for new members — the
// gossip-convergence signal.
func (n *Node) admitMember(mem Member) bool {
	if mem.ID == "" || mem.ID == n.id {
		return false
	}
	if !n.members.upsert(mem, false, time.Now()) {
		return false
	}
	n.ring.AddWeighted(mem.ID, mem.Weight)
	return true
}

// JoinVia announces this node to seed (a member id the transport can reach)
// and adopts every member the seed reports — the programmatic join used by
// fabric tests and by nodes entering a running cluster.
func (n *Node) JoinVia(ctx context.Context, seed string) error {
	mems, err := n.tr.Join(ctx, seed, n.selfMember())
	if err != nil {
		return err
	}
	for _, m := range mems {
		n.AddMember(m)
	}
	return nil
}

// MarkPeerSeen records inbound evidence of a peer's liveness: any
// successful RPC *from* id (a forward, a fetch, a steal) resets
// its suspect timer, so a busy-but-healthy peer whose heartbeats are
// delayed is not marked dead while it is demonstrably doing work. Unknown
// ids are ignored (membership is join-driven).
func (n *Node) MarkPeerSeen(id string) {
	if id == "" || id == n.id {
		return
	}
	n.members.markAlive(id, time.Now())
}

// MemberAddr resolves a member id to its advertised address (the HTTP
// transport's resolver).
func (n *Node) MemberAddr(id string) (string, bool) { return n.members.addr(id) }

// Members lists the current membership, sorted by id.
func (n *Node) Members() []Member {
	var out []Member
	for _, r := range n.members.rows(nil) {
		out = append(out, r.Member)
	}
	return out
}

// Counters snapshots the node's cluster counters.
func (n *Node) Counters() Counters {
	return Counters{
		Forwarded:     n.forwarded.Load(),
		LocalFallback: n.localFallback.Load(),
		ReplSent:      n.replSent.Load(),
		Torn:          n.torn.Load(),
		Fetched:       n.fetched.Load(),
		StolenIn:      n.stolenIn.Load(),
		StolenOut:     n.stolenOut.Load(),
		Reclaimed:     n.reclaimed.Load(),
		Backfilled:    n.backfilled.Load(),
	}
}

// Start launches the heartbeat and anti-entropy loops.
func (n *Node) Start() {
	if n.started {
		return
	}
	n.started = true
	n.wg.Add(2)
	go n.heartbeats()
	go n.antiEntropy()
}

// Close stops the loops and waits for every routed job this node drives to
// give up: one still following a peer — a forwarded job or a stolen-out one
// alike — fails with ErrNodeClosed. It does not close the wrapped service —
// the owner does that.
func (n *Node) Close() {
	n.mu.Lock()
	n.cancel()
	n.mu.Unlock()
	n.wg.Wait()
}

// enter adds a goroutine to wg unless Close has begun. Close cancels under
// mu, so no Add can race its Wait.
func (n *Node) enter() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ctx.Err() != nil {
		return false
	}
	n.wg.Add(1)
	return true
}

// ---------------------------------------------------------------------------
// Dispatch: the submission path.

// Submit schedules cfg cluster-wide: keys this node owns go through the
// local scheduler unchanged; everything else becomes a routed job driven to
// completion on the ring owner, with deterministic re-dispatch if the owner
// dies.
func (n *Node) Submit(client string, cfg sim.Config) (*service.Job, error) {
	key := service.CacheKey(&cfg)
	owner := n.owner(key)
	if owner == n.id {
		return n.svc.Submit(client, cfg)
	}
	j, fresh, err := n.svc.NewRoutedJob(client, key, cfg)
	if err != nil {
		return nil, err
	}
	if fresh {
		if !n.enter() {
			n.svc.FinishRouted(j, nil, ErrNodeClosed)
			return j, nil
		}
		n.forwarded.Add(1)
		go n.routeJob(j, owner, false)
	}
	return j, nil
}

// Run submits cfg and blocks until the job is terminal.
func (n *Node) Run(ctx context.Context, client string, cfg sim.Config) (*sim.Result, error) {
	j, err := n.Submit(client, cfg)
	if err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

// owner is the ring owner of key among the members not marked dead; self is
// never dead, so it always resolves.
func (n *Node) owner(key string) string {
	if o := n.ring.Owner(key, n.members.isDead); o != "" {
		return o
	}
	return n.id
}

// call runs one outbound RPC to peer and applies the fabric's one
// peer-health rule to its outcome: an unreachable peer is marked dead at
// once, so routing fails over without waiting for the suspect sweep; any
// answer — ErrBusy and permanent errors included — marks the peer alive
// and resets its suspect timer, as a heartbeat would.
func (n *Node) call(peer string, fn func() error) error {
	err := fn()
	if isUnreachable(err) {
		n.members.markDead(peer)
	} else {
		n.members.markAlive(peer, time.Now())
	}
	return err
}

// routeJob drives a routed job to a terminal state: forward to the owner,
// mirror progress and cancellation, fetch the result bytes; when an owner
// dies, fail over to the next ring owner; when one answers busy, or as the
// last resort, run locally (after trying a peer fetch — an entry node that
// fetched the result before the owner died may hold it). A stolen job takes the same path with
// its thief as the first owner, so a dead thief fails over like a dead owner
// and a thief that never answers falls back to the victim.
func (n *Node) routeJob(j *service.Job, owner string, stolen bool) {
	defer n.wg.Done()
	if !n.svc.StartRouted(j) {
		n.svc.FinishRouted(j, nil, sim.ErrCancelled)
		return
	}
	for hop := 0; hop < maxHops && owner != n.id; hop++ {
		done, next := n.runRemote(j, owner)
		if done {
			if stolen {
				if _, err, _ := j.Result(); err == nil {
					n.replSent.Add(1) // the thief's result reached this victim
				}
			}
			return
		}
		owner = next
	}
	if stolen {
		n.reclaimed.Add(1)
	} else {
		n.localFallback.Add(1)
	}
	if res, ok := n.fetchFromPeers(j.Key()); ok {
		n.svc.FinishRouted(j, res, nil)
		return
	}
	n.svc.ExecuteNow(j)
}

// runRemote forwards j to owner and follows it to a terminal state.
// done=false means the owner was busy or became unreachable; next is the
// ring owner to try (this node for a busy owner).
//
// A forward the owner queues while this node is idle is taken back at once:
// the node asks the owner for a steal, and an owner whose workers are all
// running hands a queued job over. The forward itself stays as it is, and
// when the stolen job was this one, its result is already in the local
// cache by the time the owner reports it done. A steal cannot bounce
// between victim and thief: the owner hands a job over only while all its
// workers are running (httpSteal's Saturated rule), and a thief was idle,
// with a free worker, when it stole.
func (n *Node) runRemote(j *service.Job, owner string) (done bool, next string) {
	ctx := context.Background()
	req := SubmitRequest{Client: n.id + "/" + j.Client(), Key: j.Key(), Cfg: j.Config()}
	st, err := n.rpcSubmit(ctx, owner, req)
	switch {
	case isUnreachable(err):
		return false, n.failOver(owner, j.Key())
	case err == ErrBusy:
		// Owner is saturated: run the job here — determinism makes the
		// potential duplicate execution benign.
		return false, n.id
	case err != nil:
		n.svc.FinishRouted(j, nil, fmt.Errorf("cluster: forward to %s: %w", owner, err))
		return true, ""
	}
	if st.State == service.StateQueued && n.svc.Idle() {
		n.steal(owner)
	}
	// Follow the job by long-poll: each status call returns once the job is
	// terminal on the owner or PollInterval has passed, and the next is
	// issued at once, so the job finishes here one RPC after it finishes
	// there while cancels and partitions are still noticed every interval.
	sentCancel := false
	for {
		if st.State.Terminal() {
			return n.finishRemote(ctx, j, owner, st), ""
		}
		if n.ctx.Err() != nil {
			// Node is closing: fail the waiter rather than hold wg.Wait
			// hostage to a remote job that may never reach a terminal state.
			// If the owner does finish later, its cached record serves a
			// resubmission by fetch or anti-entropy.
			n.svc.FinishRouted(j, nil, ErrNodeClosed)
			return true, ""
		}
		if !sentCancel && j.CancelRequested() {
			_ = n.rpcCancel(ctx, owner, st.ID) // best effort; the waits confirm
			sentCancel = true
		}
		st2, err := n.rpcStatus(n.ctx, owner, st.ID, n.opts.PollInterval)
		if err != nil {
			if n.ctx.Err() != nil {
				continue // Close cut the wait short, not the owner
			}
			// Unreachable or the owner restarted and forgot the job: either
			// way the run is gone there — fail over.
			return false, n.failOver(owner, j.Key())
		}
		st = st2
		j.ReportProgress(sim.Progress{
			Cycles: st.Cycles, Retired: st.Retired,
			TargetInstrs: st.TargetInstrs, IPC: st.IPC,
		})
	}
}

// finishRemote resolves a routed job whose remote run reached a terminal
// state. Returns false (not done) only when the result bytes could not be
// retrieved from anywhere — the caller then re-dispatches.
func (n *Node) finishRemote(ctx context.Context, j *service.Job, owner string, st service.Status) bool {
	switch st.State {
	case service.StateDone:
		// This node holds the result already when it ran the job itself,
		// stolen back from the owner: no round trip for the bytes.
		if res, ok := n.svc.PeekResult(j.Key()); ok {
			n.svc.FinishRouted(j, res, nil)
			return true
		}
		if res, err := n.fetchRecord(ctx, owner, j.Key(), false); err == nil {
			n.svc.FinishRouted(j, res, nil)
			return true
		}
		if res, ok := n.fetchFromPeers(j.Key()); ok {
			n.svc.FinishRouted(j, res, nil)
			return true
		}
		n.members.markDead(owner)
		return false
	case service.StateCancelled:
		n.svc.FinishRouted(j, nil, sim.ErrCancelled)
		return true
	default:
		n.svc.FinishRouted(j, nil, &RemoteError{Node: owner, Msg: st.Error})
		return true
	}
}

// failOver marks owner dead and returns the key's next ring owner.
func (n *Node) failOver(owner, key string) string {
	n.members.markDead(owner)
	return n.owner(key)
}

// rpcSubmit/rpcStatus/rpcCancel wrap the routing RPCs with the forward
// failpoint: it fires inside call, so a firing is indistinguishable from a
// partition and marks the peer dead like real unreachability would.
func (n *Node) rpcSubmit(ctx context.Context, node string, req SubmitRequest) (service.Status, error) {
	var st service.Status
	err := n.call(node, func() error {
		if fpForward.Fire() {
			return ErrUnreachable
		}
		var err error
		st, err = n.tr.Submit(ctx, node, req)
		return err
	})
	return st, err
}

func (n *Node) rpcStatus(ctx context.Context, node, jobID string, wait time.Duration) (service.Status, error) {
	var st service.Status
	err := n.call(node, func() error {
		if fpForward.Fire() {
			return ErrUnreachable
		}
		var err error
		st, err = n.tr.Status(ctx, node, jobID, wait)
		return err
	})
	return st, err
}

func (n *Node) rpcCancel(ctx context.Context, node, jobID string) error {
	return n.call(node, func() error {
		if fpForward.Fire() {
			return ErrUnreachable
		}
		return n.tr.Cancel(ctx, node, jobID)
	})
}

func isUnreachable(err error) bool {
	return err == ErrUnreachable || err == service.ErrDraining
}

// ---------------------------------------------------------------------------
// Peer fetch.

// fetchRecord pulls the durable frame for key from one peer and hands it to
// acceptRecord, which CRC-verifies it and seeds the local cache. A peer fetch
// counts into Fetched, and its failpoint fires inside call, as a partition;
// an anti-entropy backfill counts into Backfilled.
func (n *Node) fetchRecord(ctx context.Context, node, key string, backfill bool) (*sim.Result, error) {
	var frame []byte
	err := n.call(node, func() error {
		if !backfill && fpFetch.Fire() {
			return ErrUnreachable
		}
		var err error
		frame, err = n.tr.Fetch(ctx, node, key)
		return err
	})
	if err != nil {
		return nil, err
	}
	res, err := n.acceptRecord(key, frame)
	if err != nil {
		return nil, err
	}
	if backfill {
		n.backfilled.Add(1)
	} else {
		n.fetched.Add(1)
	}
	return res, nil
}

// fetchFromPeers tries every live peer in id order.
func (n *Node) fetchFromPeers(key string) (*sim.Result, bool) {
	for _, p := range n.members.rows(isLivePeer) {
		if res, err := n.fetchRecord(context.Background(), p.ID, key, false); err == nil {
			return res, true
		}
	}
	return nil, false
}

// acceptRecord is the receive side of every result that crosses nodes —
// peer fetch and anti-entropy backfill: verify the frame end to end, then
// seed the local cache (write-through to disk when configured). A torn frame
// is rejected and counted; a corrupt byte never reaches the cache.
func (n *Node) acceptRecord(key string, frame []byte) (*sim.Result, error) {
	if len(frame) > 0 && fpFetchRecv.Fire() {
		// Tear the copy mid-frame; the verification below must reject it.
		torn := append([]byte(nil), frame...)
		torn[len(torn)/2] ^= 0xFF
		frame = torn
	}
	k, res, err := service.DecodeRecord(frame)
	if err != nil {
		n.torn.Add(1)
		return nil, fmt.Errorf("cluster: record rejected: %w", err)
	}
	if k != key {
		return nil, fmt.Errorf("cluster: fetched record for %q answers key %q", key, k)
	}
	n.svc.SeedResult(key, res)
	return res, nil
}

// ---------------------------------------------------------------------------
// Membership intake.

// HandleJoin admits a member announced by a peer (or by the member itself),
// returns the full member list, and gossips genuinely new members onward so
// every existing node learns of the newcomer. Idempotent upserts make the
// gossip converge.
func (n *Node) HandleJoin(mem Member) []Member {
	// A join announcement is first-hand liveness: a restarted member that
	// re-announces itself comes back from the dead here, not only when its
	// next heartbeat lands.
	n.MarkPeerSeen(mem.ID)
	if n.admitMember(mem) && n.enter() {
		peers := n.members.rows(isLivePeer)
		go func() {
			defer n.wg.Done()
			for _, p := range peers {
				if p.ID == mem.ID {
					continue
				}
				peer := p.ID
				_ = n.call(peer, func() error {
					_, err := n.tr.Join(context.Background(), peer, mem)
					return err
				})
			}
		}()
	}
	return n.Members()
}

// ---------------------------------------------------------------------------
// Health and stealing.

// heartbeats is the node-granularity watchdog loop: probe every peer (dead
// ones too — that is how they revive after a healed partition), sweep for
// stale heartbeats, then consider stealing work if idle.
func (n *Node) heartbeats() {
	defer n.wg.Done()
	t := time.NewTicker(n.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
			n.heartbeatRound()
		}
	}
}

func (n *Node) heartbeatRound() {
	for _, p := range n.members.rows(isPeer) {
		if fpHeartbeat.Fire() {
			continue
		}
		peer := p.ID
		var h Health
		err := n.call(peer, func() error {
			var err error
			h, err = n.tr.Ping(context.Background(), peer)
			return err
		})
		if err == nil {
			n.members.setHealth(peer, h)
		}
	}
	n.members.sweep(time.Now(), n.opts.SuspectAfter)
	n.maybeSteal()
}

// maybeSteal is the heartbeat's steal trigger: when this node has a free
// worker and nothing queued, it asks the live peer whose last heartbeat
// reported the most stealable queued jobs for one. It is how a freshly
// joined node, which owns no in-flight work, picks up queued jobs; the
// other trigger, a forward taken back at once (runRemote), acts within a
// job rather than a heartbeat. A node whose workers are all busy does not
// steal even with an empty queue: the stolen job would only wait here
// instead of there.
func (n *Node) maybeSteal() {
	if !n.svc.Idle() {
		return
	}
	victim, best := "", 0
	for _, p := range n.members.rows(isLivePeer) {
		if p.Health.Stealable > best {
			victim, best = p.ID, p.Health.Stealable
		}
	}
	if victim != "" {
		n.steal(victim)
	}
}

// steal asks victim to forward one of its queued jobs here; the victim
// declines unless every one of its workers is running (httpSteal). An
// accepted steal arrives as an ordinary forwarded Submit from the victim.
func (n *Node) steal(victim string) {
	var accepted bool
	_ = n.call(victim, func() error { // a failed steal is a declined one
		var err error
		accepted, err = n.tr.Steal(context.Background(), victim)
		return err
	})
	if accepted {
		n.stolenIn.Add(1)
	}
}

// nodeStats is the service stats hook: the per-node rows for
// /api/v1/stats/stream and the NODE table in emcctl top.
func (n *Node) nodeStats(local *service.Stats) []service.NodeStat {
	c := n.Counters()
	rows := []service.NodeStat{{
		Node: n.id, Addr: n.opts.Addr, State: "self",
		Queued: local.QueueDepth, Running: local.Running, Hung: local.Hung,
		Syncing:   n.syncing.Load(),
		Forwarded: c.Forwarded, StolenIn: c.StolenIn, StolenOut: c.StolenOut,
		Torn: c.Torn, Fetched: c.Fetched, Backfilled: c.Backfilled,
	}}
	now := time.Now()
	for _, m := range n.members.rows(isPeer) {
		h := m.Health
		row := service.NodeStat{Node: m.ID, Addr: m.Addr, State: "alive", HeartbeatAgeMS: -1,
			Queued: h.Queued, Running: h.Running, Hung: h.Hung, Syncing: h.Syncing}
		if !m.Alive {
			row.State = "dead"
		}
		if !m.LastBeat.IsZero() {
			row.HeartbeatAgeMS = now.Sub(m.LastBeat).Milliseconds()
		}
		rows = append(rows, row)
	}
	return rows
}
