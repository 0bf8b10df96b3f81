// Self-healing layer tests: anti-entropy backfill, routing around an
// unreachable peer, and the any-RPC-resets-suspicion liveness rule.
// Failpoints are process-global, so no t.Parallel.
package cluster_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/sim"
)

// armSite arms one failpoint by registry name.
func armSite(t *testing.T, name string, trig fault.Trigger) {
	t.Helper()
	p, ok := fault.Lookup(name)
	if !ok {
		t.Fatalf("failpoint %s not registered", name)
	}
	p.Enable(trig)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// peerRow finds the row for peer id in a node's Stats.Nodes.
func peerRow(n *cluster.Node, id string) (service.NodeStat, bool) {
	for _, row := range n.Service().Stats().Nodes {
		if row.Node == id {
			return row, true
		}
	}
	return service.NodeStat{}, false
}

// cfgsOwnedBy collects `count` distinct tiny configs whose keys the wanted
// node owns on an undisturbed `nodes`-member ring.
func cfgsOwnedBy(t *testing.T, nodes, ownerIdx, count int) []sim.Config {
	t.Helper()
	want := fmt.Sprintf("node%d", ownerIdx)
	var out []sim.Config
	for seed := uint64(1); seed < 16384 && len(out) < count; seed++ {
		cfg := tinyCfg(seed)
		key := service.CacheKey(&cfg)
		if ownerOf(nodes, key) == want {
			out = append(out, cfg)
		}
	}
	if len(out) < count {
		t.Fatalf("found only %d/%d seeds owned by %s", len(out), count, want)
	}
	return out
}

// TestAntiEntropyBackfill: a peer that holds none of the records — they
// were computed locally on node0, so no forward or fetch moved them —
// converges to the full set through the key-list exchange and backfill alone,
// byte-identical to the source.
func TestAntiEntropyBackfill(t *testing.T) {
	fault.DisableAll()
	t.Cleanup(fault.DisableAll)

	opts := func(i int) cluster.Options {
		o := fastOpts(i)
		o.AntiEntropyInterval = 20 * time.Millisecond
		return o
	}
	f := newFabricOpts(t, 2, nil, opts)

	const jobs = 4
	keys := make([]string, 0, jobs)
	refs := make(map[string]uint64, jobs)
	for seed := uint64(1); seed <= jobs; seed++ {
		cfg := tinyCfg(seed)
		key := service.CacheKey(&cfg)
		keys = append(keys, key)
		refs[key] = runTiny(t, cfg).Hash()
		j, err := f.Nodes[0].Service().Submit("t", cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := j.Wait(ctx); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
	}

	waitFor(t, 10*time.Second, "anti-entropy convergence on node1", func() bool {
		for _, k := range keys {
			if _, ok := f.Nodes[1].Service().PeekResult(k); !ok {
				return false
			}
		}
		return true
	})
	for _, k := range keys {
		res, _ := f.Nodes[1].Service().PeekResult(k)
		if res.Hash() != refs[k] {
			t.Fatalf("backfilled record %s hash %x, want %x", k, res.Hash(), refs[k])
		}
	}
	if got := f.Nodes[1].Counters().Backfilled; got < jobs {
		t.Fatalf("node1 backfilled %d records, want >= %d", got, jobs)
	}
}

// TestUnreachablePeerRoutedAround: one unreachable heartbeat marks a peer
// dead well before the suspect sweep would fire, the dead peer is routed
// around without burning re-dispatch hops, and it is "alive" again as soon
// as a heartbeat reaches it after the partition heals.
func TestUnreachablePeerRoutedAround(t *testing.T) {
	fault.DisableAll()
	f := newFabricOpts(t, 2, nil, func(i int) cluster.Options {
		o := fastOpts(i)
		o.SuspectAfter = time.Hour // only the failed probes can mark node1 dead
		return o
	})

	cfg := cfgOwnedBy(t, 2, 1)
	ref := runTiny(t, cfg).Hash()

	f.Transport.Partition("node0", "node1")
	waitFor(t, 5*time.Second, "node1 dead on node0", func() bool {
		row, ok := peerRow(f.Nodes[0], "node1")
		return ok && row.State == "dead"
	})

	// A key node1 owns routes straight to local execution: the dead owner
	// is skipped by the ring predicate, no re-dispatch timeout burn.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	res, err := f.Nodes[0].Run(ctx, "t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash() != ref {
		t.Fatalf("routed-around result hash %x, want %x", res.Hash(), ref)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("routed-around execution took %v — routed into the dead peer?", elapsed)
	}
	if lf := f.Nodes[0].Counters().LocalFallback; lf != 0 {
		t.Fatalf("local fallback used %d times — owner() should have resolved to self directly", lf)
	}

	f.Transport.Heal("node0", "node1")
	waitFor(t, 10*time.Second, "node1 alive again on node0", func() bool {
		row, ok := peerRow(f.Nodes[0], "node1")
		return ok && row.State == "alive"
	})
}

// TestSuccessfulRPCResetsSuspectTimer: with every explicit heartbeat probe
// suppressed, a steady stream of forwarded jobs alone keeps both peers out
// of the dead state — the regression test for "any successful RPC from a
// peer resets the suspect timer".
func TestSuccessfulRPCResetsSuspectTimer(t *testing.T) {
	fault.DisableAll()
	t.Cleanup(fault.DisableAll)
	armSite(t, fault.SiteClusterHeartbeat, fault.Trigger{}) // no probes at all

	// The suspect window must outlast one submit+wait iteration, which under
	// -race on a small host can take several hundred ms, yet the run must
	// span several windows, so the sweep WOULD fire several times over
	// without the forwarding traffic crediting the peers. Both derive from
	// a measured first job: the window is 4x its submit+wait (at least
	// 400ms), the run 5 windows.
	probe, err := service.Open(service.Config{Workers: 2, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	pj, err := probe.Submit("t", tinyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	_, err = pj.Wait(ctx)
	cancel()
	jobTime := time.Since(start)
	probe.Close()
	if err != nil {
		t.Fatal(err)
	}
	suspect := max(4*jobTime, 400*time.Millisecond)
	f := newFabricOpts(t, 2, nil, func(i int) cluster.Options {
		o := fastOpts(i)
		o.SuspectAfter = suspect
		return o
	})

	// Each job entered at node1 and owned by node0 is forwarded: node1
	// credits node0 on every answered submit, status wait and fetch, and
	// node0 credits node1 on every one it receives — both suspect timers
	// keep resetting with not a single heartbeat flowing.
	deadline := time.Now().Add(5 * suspect)
	for seed := uint64(1); time.Now().Before(deadline); seed++ {
		cfg := tinyCfg(seed)
		if key := service.CacheKey(&cfg); ownerOf(2, key) != "node0" {
			continue
		}
		j, err := f.Nodes[1].Submit("t", cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := j.Wait(ctx); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
		time.Sleep(10 * time.Millisecond)
	}

	if row, ok := peerRow(f.Nodes[0], "node1"); !ok || row.State != "alive" {
		t.Fatalf("node1 on node0: %+v — inbound RPCs did not keep it alive", row)
	}
	if row, ok := peerRow(f.Nodes[1], "node0"); !ok || row.State != "alive" {
		t.Fatalf("node0 on node1: %+v — answered RPCs did not keep it alive", row)
	}
	if f.Nodes[1].Counters().Forwarded == 0 {
		t.Fatal("no jobs were forwarded — the liveness evidence premise is broken")
	}
}

// TestRestartBackfillsDurableCache: a killed node restarted with an empty
// cache converges to the survivor's durable record set via anti-entropy —
// the recover-and-backfill scenario at fabric scale.
func TestRestartBackfillsDurableCache(t *testing.T) {
	fault.DisableAll()
	t.Cleanup(fault.DisableAll)

	scfg := func(int) service.Config { return service.Config{Workers: 2, QueueCap: 64} }
	opts := func(i int) cluster.Options {
		o := fastOpts(i)
		o.AntiEntropyInterval = 20 * time.Millisecond
		return o
	}
	f := newFabricOpts(t, 2, scfg, opts)

	const jobs = 3
	keys := make([]string, 0, jobs)
	refs := make(map[string]uint64, jobs)
	for seed := uint64(1); seed <= jobs; seed++ {
		cfg := tinyCfg(seed)
		key := service.CacheKey(&cfg)
		keys = append(keys, key)
		refs[key] = runTiny(t, cfg).Hash()
		j, err := f.Nodes[0].Service().Submit("t", cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := j.Wait(ctx); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
	}

	f.Kill(1)
	if _, err := f.Restart(1, scfg(1), opts(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "restarted node1 to backfill all records", func() bool {
		for _, k := range keys {
			if _, ok := f.Nodes[1].Service().PeekResult(k); !ok {
				return false
			}
		}
		return true
	})
	for _, k := range keys {
		res, _ := f.Nodes[1].Service().PeekResult(k)
		if res.Hash() != refs[k] {
			t.Fatalf("restarted node record %s hash %x, want %x", k, res.Hash(), refs[k])
		}
	}
}
