// Fabric unit tests: routing, cluster-wide coalescing, failover, stealing,
// torn-fetch rejection, and membership — all over the in-process LocalTransport.
// Failpoints are process-global, so no t.Parallel anywhere in this package.
package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/sim"
)

func tinyCfg(seed uint64) sim.Config {
	cfg := sim.Default([]string{"mcf", "sphinx3", "soplex", "libquantum"})
	cfg.InstrPerCore = 1000
	cfg.Seed = seed
	return cfg
}

var (
	blockerSeed atomic.Uint64 // last seed handed to a blocker
	blockers    sync.Map      // seed -> release channel (<-chan struct{})
)

// blockerCfg returns a config whose attempts park their worker until release
// is closed: parkBlockers, the AttemptHook of every test node's service,
// waits on it. Each blocker has a seed of its own, far above the seeds
// other configs use, so two blockers never coalesce.
func blockerCfg(release <-chan struct{}) sim.Config {
	cfg := tinyCfg(1<<32 + blockerSeed.Add(1))
	blockers.Store(cfg.Seed, release)
	return cfg
}

func parkBlockers(cfg sim.Config) {
	if release, ok := blockers.Load(cfg.Seed); ok {
		<-release.(<-chan struct{})
	}
}

// parkWorker submits a blocker straight to node's own service (submitted
// to the node, it would route to its key's owner) and waits until one of
// the service's workers runs it.
func parkWorker(t *testing.T, node *cluster.Node, release <-chan struct{}) *service.Job {
	t.Helper()
	svc := node.Service()
	running := svc.Stats().Running
	j, err := svc.Submit("blocker", blockerCfg(release))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "a worker to park on the blocker", func() bool { return svc.Stats().Running > running })
	return j
}

// runTiny runs cfg directly — the ground truth every fabric path is
// compared against.
func runTiny(t *testing.T, cfg sim.Config) *sim.Result {
	t.Helper()
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fastOpts shrinks every fabric interval so tests converge in milliseconds.
func fastOpts(int) cluster.Options {
	return cluster.Options{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      60 * time.Millisecond,
		PollInterval:      2 * time.Millisecond,
	}
}

// quietOpts is fastOpts with heartbeats an hour apart, so no heartbeat steal
// can move a job while the test arranges its nodes' queues.
func quietOpts(i int) cluster.Options {
	o := fastOpts(i)
	o.HeartbeatInterval = time.Hour
	return o
}

func newFabric(t *testing.T, nodes int, scfg func(i int) service.Config) *cluster.Fabric {
	return newFabricOpts(t, nodes, scfg, fastOpts)
}

func newFabricOpts(t *testing.T, nodes int, scfg func(i int) service.Config, opts func(i int) cluster.Options) *cluster.Fabric {
	t.Helper()
	if scfg == nil {
		scfg = func(int) service.Config { return service.Config{Workers: 2, QueueCap: 64} }
	}
	withHook := func(i int) service.Config {
		c := scfg(i)
		c.AttemptHook = parkBlockers
		return c
	}
	f, err := cluster.NewFabric(cluster.FabricConfig{Nodes: nodes, Service: withHook, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// ownerOf mirrors the fabric's ownership function for an undisturbed N-node
// ring (default replicas, ids node0..nodeN-1).
func ownerOf(nodes int, key string) string {
	r := cluster.NewRing(0)
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("node%d", i))
	}
	return r.Owner(key, nil)
}

// cfgOwnedBy searches seeds until a tiny config's cache key lands on the
// wanted node — how tests pin down which node executes.
func cfgOwnedBy(t *testing.T, nodes, ownerIdx int) sim.Config {
	t.Helper()
	return ownedCfg(t, nodes, ownerIdx, 0)
}

// ownedCfg is cfgOwnedBy with instr instructions per core (0 keeps the
// tiny default); 30M gives a run long enough for a test to act on it while
// its owner is still running it.
func ownedCfg(t *testing.T, nodes, ownerIdx int, instr uint64) sim.Config {
	t.Helper()
	want := fmt.Sprintf("node%d", ownerIdx)
	for seed := uint64(1); seed < 4096; seed++ {
		cfg := tinyCfg(seed)
		if instr > 0 {
			cfg.InstrPerCore = instr
		}
		key := service.CacheKey(&cfg)
		if ownerOf(nodes, key) == want {
			return cfg
		}
	}
	t.Fatalf("no seed in [1,4096) hashes to %s", want)
	return sim.Config{}
}

// sumExecuted totals actual simulation executions across the fabric — the
// dedup invariant's ground truth.
func sumExecuted(f *cluster.Fabric) uint64 {
	var total uint64
	for _, n := range f.Nodes {
		total += n.Service().Stats().Executed
	}
	return total
}

// TestRoutedSubmitForwardsToOwner: a submission received by a non-owner is
// driven to completion on the ring owner, and exactly one node executes.
func TestRoutedSubmitForwardsToOwner(t *testing.T) {
	fault.DisableAll()
	f := newFabric(t, 3, nil)
	cfg := cfgOwnedBy(t, 3, 1)
	ref := runTiny(t, cfg).Hash()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := f.Nodes[0].Run(ctx, "t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash() != ref {
		t.Fatalf("routed result hash %#x != direct %#x", res.Hash(), ref)
	}
	if c := f.Nodes[0].Counters(); c.Forwarded != 1 {
		t.Fatalf("entry node forwarded %d jobs, want 1 (%+v)", c.Forwarded, c)
	}
	if n := f.Nodes[1].Service().Stats().Submitted; n != 1 {
		t.Fatalf("owner accepted %d submissions, want the 1 forward", n)
	}
	if m := f.Nodes[1].Service().Stats().Executed; m != 1 {
		t.Fatalf("owner executed %d runs, want 1", m)
	}
	if m := f.Nodes[0].Service().Stats().Executed; m != 0 {
		t.Fatalf("entry node executed %d runs, want 0", m)
	}
	// The fetched result seeds the entry node's cache: resubmitting locally
	// is now a cache hit, no forward.
	j, err := f.Nodes[0].Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if c := f.Nodes[0].Counters(); c.Forwarded != 1 {
		t.Fatalf("resubmit after fetch forwarded again (%d)", c.Forwarded)
	}
}

// TestDuplicateSubmissionsCoalesceClusterWide is the cross-node dedup
// contract: identical fingerprints submitted concurrently to two different
// nodes coalesce into one actual run, and every caller gets byte-identical
// result records.
func TestDuplicateSubmissionsCoalesceClusterWide(t *testing.T) {
	fault.DisableAll()
	f := newFabric(t, 3, nil)
	// Owner is node2, so both entry nodes (0 and 1) must forward and the
	// owner's scheduler is the cluster-wide serialization point.
	cfg := cfgOwnedBy(t, 3, 2)
	key := service.CacheKey(&cfg)
	ref := runTiny(t, cfg).Hash()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const perNode = 3
	results := make([]*sim.Result, 2*perNode)
	errs := make([]error, 2*perNode)
	var wg sync.WaitGroup
	for i := 0; i < 2*perNode; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = f.Nodes[i%2].Run(ctx, fmt.Sprintf("client%d", i), cfg)
		}(i)
	}
	wg.Wait()

	var first []byte
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if res.Hash() != ref {
			t.Fatalf("caller %d: hash %#x != reference %#x", i, res.Hash(), ref)
		}
		frame, err := service.EncodeRecord(key, res)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = frame
		} else if !bytes.Equal(frame, first) {
			t.Fatalf("caller %d: result record bytes differ from caller 0", i)
		}
	}
	if got := sumExecuted(f); got != 1 {
		t.Fatalf("%d actual executions across the fabric, want exactly 1", got)
	}
	if f.Nodes[2].Service().Stats().Submitted == 0 {
		t.Fatal("owner never received a forward")
	}
}

// TestOwnerDeathRedispatch: when a key's owner is dead, the job goes to the
// next ring owner deterministically — whether a heartbeat or the failed
// forward found the owner dead first — and still completes with the
// reference result.
func TestOwnerDeathRedispatch(t *testing.T) {
	fault.DisableAll()
	f := newFabric(t, 3, nil)
	cfg := cfgOwnedBy(t, 3, 1)
	ref := runTiny(t, cfg).Hash()

	f.Kill(1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := f.Nodes[0].Run(ctx, "t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash() != ref {
		t.Fatalf("failover result hash %#x != direct %#x", res.Hash(), ref)
	}
	if row, ok := peerRow(f.Nodes[0], "node1"); !ok || row.State != "dead" {
		t.Fatalf("killed owner node1 on node0: %+v, want dead", row)
	}
	// Exactly one surviving node executed.
	if got := f.Nodes[0].Service().Stats().Executed + f.Nodes[2].Service().Stats().Executed; got != 1 {
		t.Fatalf("%d executions on survivors, want 1", got)
	}
}

// TestBusyOwnerFallsBackLocally: an owner whose queue is full answers 429,
// and the entry node runs the job itself at once rather than wait for the
// owner: the owner's only worker and its one queue slot stay taken by
// blockers until the job is done. Heartbeats are an hour apart, so the idle
// entry node cannot steal the queued blocker and free the slot first.
func TestBusyOwnerFallsBackLocally(t *testing.T) {
	fault.DisableAll()
	release := make(chan struct{})
	defer close(release)
	f := newFabricOpts(t, 2, func(i int) service.Config {
		if i == 1 {
			return service.Config{Workers: 1, QueueCap: 1}
		}
		return service.Config{Workers: 1, QueueCap: 64}
	}, quietOpts)
	owner := f.Nodes[1].Service()
	if _, err := owner.Submit("blocker", blockerCfg(release)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "owner's worker parked", func() bool { return owner.Stats().Running == 1 })
	if _, err := owner.Submit("blocker", blockerCfg(release)); err != nil {
		t.Fatal(err)
	}

	cfg := cfgOwnedBy(t, 2, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := f.Nodes[0].Run(ctx, "t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Hash(), runTiny(t, cfg).Hash(); got != want {
		t.Fatalf("fallback result hash %#x != direct %#x", got, want)
	}
	if c := f.Nodes[0].Counters(); c.Forwarded != 1 || c.LocalFallback != 1 {
		t.Fatalf("want 1 forward ending in 1 local fallback, got %+v", c)
	}
	if got := f.Nodes[0].Service().Stats().Executed; got != 1 {
		t.Fatalf("entry node executed %d jobs, want 1", got)
	}
}

// TestWorkStealing: an idle node pulls queued jobs off a saturated peer,
// runs them, and delivers the results back; the victim's jobs complete
// without its blocked worker ever touching them, and no delegation waits
// out its timeout on either node.
func TestWorkStealing(t *testing.T) {
	fault.DisableAll()
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	f := newFabricOpts(t, 2, func(i int) service.Config {
		if i == 0 {
			return service.Config{Workers: 1, QueueCap: 64}
		}
		return service.Config{Workers: 2, QueueCap: 64}
	}, fastOpts)

	// Park node0's only worker on a blocker.
	bj := parkWorker(t, f.Nodes[0], release)

	// Queue three jobs that node0 owns; with the worker parked they
	// can only finish if node1 steals them. The first enters at node1 and is
	// forwarded, so node1 steals a job its own routed copy is following: the
	// thief must run it rather than wait on that copy.
	cfgs := cfgsOwnedBy(t, 2, 0, 3)
	var jobs []*service.Job
	for i, cfg := range cfgs {
		entry := f.Nodes[0]
		if i == 0 {
			entry = f.Nodes[1]
		}
		j, err := entry.Submit(fmt.Sprintf("c%d", i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, j := range jobs {
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if got, want := res.Hash(), runTiny(t, cfgs[i]).Hash(); got != want {
			t.Fatalf("job %d: stolen result hash %#x != direct %#x", i, got, want)
		}
	}
	if c := f.Nodes[0].Counters(); c.StolenOut == 0 {
		t.Fatalf("victim handed out no jobs (%+v)", c)
	}
	if c := f.Nodes[1].Counters(); c.StolenIn == 0 {
		t.Fatalf("thief ran no stolen jobs (%+v)", c)
	}
	for i, n := range f.Nodes {
		if c := n.Counters(); c.Reclaimed != 0 {
			t.Fatalf("node%d reclaimed %d delegations: a stolen job waited out its timeout (%+v)", i, c.Reclaimed, c)
		}
	}

	close(release)
	if _, err := bj.Wait(ctx); err != nil {
		t.Fatalf("blocker: %v", err)
	}
}

// TestNoStealWhileWorkersBusy: a node whose only worker is busy does not
// steal, even with an empty queue: the stolen job would only wait there
// instead of on the victim, or bounce between two busy nodes as forwarded
// submits. Both nodes park their single worker on a blocker while
// node0 has one job queued; the job stays put and completes on
// node0 once its blocker is released, while node1's worker is still busy.
func TestNoStealWhileWorkersBusy(t *testing.T) {
	fault.DisableAll()
	release := []chan struct{}{make(chan struct{}), make(chan struct{})}
	var once [2]sync.Once
	free := func(i int) { once[i].Do(func() { close(release[i]) }) }
	defer free(0)
	defer free(1)
	f := newFabricOpts(t, 2, func(int) service.Config {
		return service.Config{Workers: 1, QueueCap: 64}
	}, fastOpts)
	var parked []*service.Job
	for i, n := range f.Nodes {
		parked = append(parked, parkWorker(t, n, release[i]))
	}

	cfg := cfgsOwnedBy(t, 2, 0, 1)[0]
	j, err := f.Nodes[0].Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Once node1's heartbeat has seen the queued job, its steal decision
	// follows in the same round; give it several more rounds.
	waitFor(t, 10*time.Second, "node1 to see node0's queued job", func() bool {
		row, ok := peerRow(f.Nodes[1], "node0")
		return ok && row.Queued == 1
	})
	time.Sleep(10 * fastOpts(0).HeartbeatInterval)
	if c := f.Nodes[0].Counters(); c.StolenOut != 0 {
		t.Fatalf("node0 handed its queued job to a thief with no free worker (%+v)", c)
	}

	free(0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Hash(), runTiny(t, cfg).Hash(); got != want {
		t.Fatalf("result hash %#x != direct %#x", got, want)
	}
	free(1)
	for _, bj := range parked {
		if _, err := bj.Wait(ctx); err != nil {
			t.Fatalf("blocker: %v", err)
		}
	}
	for i, n := range f.Nodes {
		if c := n.Counters(); c.Reclaimed != 0 || c.StolenOut != 0 {
			t.Fatalf("node%d: %+v, want no steals and no reclaims", i, c)
		}
	}
}

// TestNoStealFromUnstealableQueue: a peer whose queue holds only jobs that
// cannot leave it (cancel-requested ones, which its own workers finish) is
// never asked for a steal, however deep its queue: the steal signal counts
// stealable jobs only. The steal failpoint, armed to decline, counts the
// steal requests node0 receives.
func TestNoStealFromUnstealableQueue(t *testing.T) {
	fault.DisableAll()
	t.Cleanup(fault.DisableAll)
	release := make(chan struct{})
	defer close(release) // runs before the fabric's Close: unpark node0
	f := newFabricOpts(t, 2, func(i int) service.Config {
		return service.Config{Workers: 1 + i, QueueCap: 64} // node0 has one worker
	}, fastOpts)
	parkWorker(t, f.Nodes[0], release)
	// Queue two jobs behind the blocker and cancel them; node0 is cut off
	// from node1 meanwhile, so no steal can take one in between.
	f.Transport.Partition("node0", "node1")
	for i := 0; i < 2; i++ {
		svc := f.Nodes[0].Service()
		j, err := svc.Submit("t", tinyCfg(uint64(1+i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Cancel(j.ID()); err != nil {
			t.Fatal(err)
		}
	}
	f.Transport.Heal("node0", "node1")
	fp, ok := fault.Lookup(fault.SiteClusterSteal)
	if !ok {
		t.Fatal("steal failpoint not registered")
	}
	before := fp.Fires()
	fp.Enable(fault.Trigger{})
	waitFor(t, 10*time.Second, "node1 to see node0's two queued jobs", func() bool {
		row, ok := peerRow(f.Nodes[1], "node0")
		return ok && row.Queued == 2
	})
	time.Sleep(10 * fastOpts(0).HeartbeatInterval)
	if n := fp.Fires() - before; n != 0 {
		t.Fatalf("node0 received %d steal requests with nothing stealable queued", n)
	}
}

// TestIdleEntryTakesBackQueuedForward: a forward that its owner queues
// behind a busy worker is taken back at once by an idle entry node, through
// the steal RPC, without waiting for a heartbeat (the heartbeat interval is
// an hour here). The entry node runs the job, its result matches a direct
// run, the owner never executes it, and the entry node finishes its routed
// copy from its own cache without fetching the bytes back.
func TestIdleEntryTakesBackQueuedForward(t *testing.T) {
	fault.DisableAll()
	release := make(chan struct{})
	defer close(release) // runs before the fabric's Close: unpark node1
	f := newFabricOpts(t, 2, func(int) service.Config {
		return service.Config{Workers: 1, QueueCap: 64}
	}, quietOpts)
	parkWorker(t, f.Nodes[1], release)

	cfg := cfgOwnedBy(t, 2, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := f.Nodes[0].Run(ctx, "t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Hash(), runTiny(t, cfg).Hash(); got != want {
		t.Fatalf("taken-back result hash %#x != direct %#x", got, want)
	}
	entry, owner := f.Nodes[0].Counters(), f.Nodes[1].Counters()
	if entry.Forwarded != 1 || entry.StolenIn != 1 || entry.Fetched != 0 || entry.Reclaimed != 0 {
		t.Fatalf("entry counters %+v, want 1 forward, 1 steal in, no fetch, no reclaim", entry)
	}
	if owner.StolenOut != 1 || owner.Reclaimed != 0 {
		t.Fatalf("owner counters %+v, want 1 steal out and no reclaim", owner)
	}
	if got := f.Nodes[0].Service().Stats().Executed; got != 1 {
		t.Fatalf("entry node executed %d jobs, want 1", got)
	}
	if got := sumExecuted(f); got != 1 {
		t.Fatalf("%d executions across the fabric, want 1 (the blocker is still parked)", got)
	}
}

// TestNoStealFromFreeWorker: a victim with a free worker declines a steal,
// even with a job queued: the worker is about to take it. The owner here
// has one of its two workers parked, so every forward the idle entry node
// sends is answered while a worker is free, and a forward answered
// "queued" is followed at once by a steal request the owner must refuse.
// Every job runs on its owner.
func TestNoStealFromFreeWorker(t *testing.T) {
	fault.DisableAll()
	release := make(chan struct{})
	defer close(release)
	f := newFabricOpts(t, 2, func(i int) service.Config {
		return service.Config{Workers: 1 + i, QueueCap: 64} // node1, the owner, has two
	}, fastOpts)
	parkWorker(t, f.Nodes[1], release)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, cfg := range cfgsOwnedBy(t, 2, 1, 8) {
		res, err := f.Nodes[0].Run(ctx, "t", cfg)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if got, want := res.Hash(), runTiny(t, cfg).Hash(); got != want {
			t.Fatalf("job %d: result hash %#x != direct %#x", i, got, want)
		}
	}
	if c := f.Nodes[1].Counters(); c.StolenOut != 0 {
		t.Fatalf("owner with a free worker handed out %d jobs (%+v)", c.StolenOut, c)
	}
	if got := f.Nodes[0].Service().Stats().Executed; got != 0 {
		t.Fatalf("entry node executed %d jobs, want 0", got)
	}
}

// TestTornFetchRejected: a record torn on its way from a peer must be
// rejected by the CRC check, counted, and kept out of the cache; the
// refetch seeds cleanly.
func TestTornFetchRejected(t *testing.T) {
	fault.DisableAll()
	t.Cleanup(fault.DisableAll)
	f := newFabric(t, 2, nil)
	cfg := tinyCfg(1)
	key := service.CacheKey(&cfg)
	res := runTiny(t, cfg)
	frame, err := service.EncodeRecord(key, res)
	if err != nil {
		t.Fatal(err)
	}
	f.Nodes[0].Service().SeedResult(key, res)

	fp, ok := fault.Lookup(fault.SiteClusterFetchRecv)
	if !ok {
		t.Fatal("fetch.recv failpoint not registered")
	}
	fp.Enable(fault.Trigger{Once: true})
	if _, err := f.Nodes[1].FetchRecord("node0", key); err == nil {
		t.Fatal("torn record accepted")
	} else if !errors.Is(err, service.ErrRecordCorrupt) {
		t.Fatalf("torn record rejected with the wrong error: %v", err)
	}
	if c := f.Nodes[1].Counters(); c.Torn != 1 || c.Fetched != 0 {
		t.Fatalf("torn counters wrong: %+v", c)
	}
	if _, ok := f.Nodes[1].Service().PeekResult(key); ok {
		t.Fatal("torn record reached the cache")
	}

	// The refetch (failpoint disarmed by Once) seeds bit-identically.
	if _, err := f.Nodes[1].FetchRecord("node0", key); err != nil {
		t.Fatalf("clean record rejected: %v", err)
	}
	got, ok := f.Nodes[1].Service().PeekResult(key)
	if !ok {
		t.Fatal("clean record not seeded")
	}
	reframe, err := service.EncodeRecord(key, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reframe, frame) {
		t.Fatal("seeded record re-encodes to different bytes")
	}
}

// TestRoutedCancelPropagates: cancelling a routed job on the entry node
// reaches the owner and both sides settle cancelled — also when the entry
// node learns of the cancel only between status waits of 200ms.
func TestRoutedCancelPropagates(t *testing.T) {
	for _, poll := range []time.Duration{2 * time.Millisecond, 200 * time.Millisecond} {
		t.Run(poll.String(), func(t *testing.T) {
			fault.DisableAll()
			f := newFabricOpts(t, 2, nil, func(i int) cluster.Options {
				o := fastOpts(i)
				o.PollInterval = poll
				return o
			})
			// A long run gives the cancel time to land; owned by node1 so
			// node0 routes it.
			cfg := ownedCfg(t, 2, 1, 30_000_000)
			key := service.CacheKey(&cfg)
			j, err := f.Nodes[0].Submit("t", cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Wait for the remote run to visibly start (mirrored progress),
			// then cancel through the entry node's service.
			deadline := time.Now().Add(20 * time.Second)
			for j.Status().Retired == 0 && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
			if err := f.Nodes[0].Service().Cancel(j.ID()); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if _, err := j.Wait(ctx); !errors.Is(err, sim.ErrCancelled) {
				t.Fatalf("routed job ended %v, want cancellation", err)
			}
			if st := j.Status(); st.State != service.StateCancelled {
				t.Fatalf("routed job state %s, want cancelled", st.State)
			}
			owned := 0
			for _, st := range f.Nodes[1].Service().Jobs() {
				if st.Key != key {
					continue
				}
				owned++
				if st.State != service.StateCancelled {
					t.Fatalf("owner's copy of the job is %s, want cancelled", st.State)
				}
			}
			if owned == 0 {
				t.Fatal("owner holds no copy of the routed job")
			}
		})
	}
}

// TestForwardedJobFollowsOwnerPromptly: a routed job finishes on its entry
// node as soon as its owner finishes it, however long PollInterval is —
// the owner's status wait returns on completion, not when the interval runs
// out.
func TestForwardedJobFollowsOwnerPromptly(t *testing.T) {
	fault.DisableAll()
	f := newFabricOpts(t, 3, nil, func(i int) cluster.Options {
		o := fastOpts(i)
		o.PollInterval = 5 * time.Second
		return o
	})
	cfg := cfgOwnedBy(t, 3, 1)
	ref := runTiny(t, cfg).Hash()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	res, err := f.Nodes[0].Run(ctx, "t", cfg)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash() != ref {
		t.Fatalf("routed result hash %#x != direct %#x", res.Hash(), ref)
	}
	if c := f.Nodes[0].Counters(); c.Forwarded != 1 || c.LocalFallback != 0 {
		t.Fatalf("job was not followed on its owner (%+v)", c)
	}
	if elapsed > time.Second {
		t.Fatalf("forwarded tiny job took %v with a 5s PollInterval: the entry node waited out the interval", elapsed)
	}
}

// TestCloseInterruptsStatusWait: Close on an entry node whose routed job is
// parked in a 30s status wait on its owner returns promptly and fails the
// job with ErrNodeClosed.
func TestCloseInterruptsStatusWait(t *testing.T) {
	fault.DisableAll()
	f := newFabricOpts(t, 2, nil, func(i int) cluster.Options {
		o := fastOpts(i)
		o.PollInterval = 30 * time.Second
		return o
	})
	j, err := f.Nodes[0].Submit("t", ownedCfg(t, 2, 1, 30_000_000))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "owner to accept the forward", func() bool {
		return f.Nodes[1].Service().Stats().Submitted == 1
	})
	time.Sleep(20 * time.Millisecond) // let the entry node enter its wait

	start := time.Now()
	f.Nodes[0].Close()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v with a status wait outstanding", d)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := j.Wait(ctx); !errors.Is(err, cluster.ErrNodeClosed) {
		t.Fatalf("routed job ended %v, want ErrNodeClosed", err)
	}
}

// TestCloseFailsStolenOutJob: a stolen job is a routed job on its victim,
// so closing the victim mid-run cuts its status wait short and fails the
// job with ErrNodeClosed, as for any forward.
func TestCloseFailsStolenOutJob(t *testing.T) {
	fault.DisableAll()
	release := make(chan struct{})
	defer close(release)
	f := newFabricOpts(t, 2, func(i int) service.Config {
		return service.Config{Workers: 1, QueueCap: 64}
	}, func(i int) cluster.Options {
		o := fastOpts(i)
		o.PollInterval = 30 * time.Second
		return o
	})
	parkWorker(t, f.Nodes[0], release)
	j, err := f.Nodes[0].Submit("t", ownedCfg(t, 2, 0, 30_000_000))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "node1 to run the stolen job", func() bool {
		return f.Nodes[1].Service().Stats().Running == 1
	})
	time.Sleep(20 * time.Millisecond) // let the victim enter its wait

	start := time.Now()
	f.Nodes[0].Close()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v with a stolen job outstanding", d)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := j.Wait(ctx); !errors.Is(err, cluster.ErrNodeClosed) {
		t.Fatalf("stolen-out job ended %v, want ErrNodeClosed", err)
	}
	if c := f.Nodes[0].Counters(); c.StolenOut != 1 || c.Reclaimed != 0 {
		t.Fatalf("victim counters %+v, want one steal and no reclaim", c)
	}
}

// TestJoinGossip: a node joining through one member propagates to the rest
// of the fabric without the newcomer contacting them.
func TestJoinGossip(t *testing.T) {
	fault.DisableAll()
	lt := cluster.NewLocalTransport()
	mk := func(id string) *cluster.Node {
		svc, err := service.Open(service.Config{Workers: 1, QueueCap: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		n := cluster.New(svc, cluster.Options{
			ID:                id,
			HeartbeatInterval: 5 * time.Millisecond,
			SuspectAfter:      50 * time.Millisecond,
		})
		lt.Attach(n)
		t.Cleanup(n.Close)
		return n
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	a.AddMember(cluster.Member{ID: "b"})
	b.AddMember(cluster.Member{ID: "a"})
	a.Start()
	b.Start()
	c.Start()

	members := a.HandleJoin(cluster.Member{ID: "c"})
	if len(members) != 3 {
		t.Fatalf("join returned %d members, want 3: %+v", len(members), members)
	}
	for _, m := range members {
		c.AddMember(m)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(b.Members()) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip never reached b: %+v", b.Members())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestNodeStatsRows: Stats.Nodes carries one self row with counters plus one
// row per peer with heartbeat-fed load.
func TestNodeStatsRows(t *testing.T) {
	fault.DisableAll()
	f := newFabric(t, 3, nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := f.Nodes[0].Service().Stats()
		if len(st.Nodes) == 3 && st.Nodes[0].State == "self" {
			alive := 0
			for _, row := range st.Nodes[1:] {
				if row.State == "alive" && row.HeartbeatAgeMS >= 0 {
					alive++
				}
			}
			if alive == 2 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("node rows never converged: %+v", st.Nodes)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A dead peer flips its row.
	f.Kill(2)
	deadline = time.Now().Add(10 * time.Second)
	for {
		st := f.Nodes[0].Service().Stats()
		dead := false
		for _, row := range st.Nodes {
			if row.Node == "node2" && row.State == "dead" {
				dead = true
			}
		}
		if dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed peer never marked dead: %+v", st.Nodes)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
