// Self-healing chaos schedules: seeded scenarios that exercise the heal
// paths specifically — a node joining mid-sweep (an idle joiner that steals),
// a killed node restarting empty and backfilling (anti-entropy recovery),
// and a flapping peer (marked dead, routed around, alive again) — with the heal
// failpoints (digest skip, backfill fetch failure, lost steal delivery)
// armed probabilistically on top. The invariants are the same as the base chaos
// suite: no lost, duplicated, or torn results.
//
// Failpoints are process-global, so schedules run sequentially — no
// t.Parallel anywhere in this file.
package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/sim"
)

func TestClusterHealSchedules(t *testing.T) {
	pool := clusterChaosPool()
	fault.DisableAll()
	refs := make([]uint64, len(pool))
	for i, cfg := range pool {
		refs[i] = runTiny(t, cfg).Hash()
	}
	n := clusterChaosSchedules(t)
	for seed := 1; seed <= n; seed++ {
		t.Run(fmt.Sprintf("heal-%03d", seed), func(t *testing.T) {
			runClusterHealSchedule(t, int64(seed), pool, refs)
		})
	}
}

// armHealChaos arms a random subset of the self-healing failpoints. None of
// these can fail a job — a failed backfill retries next round — so the
// schedule asserts every job ends done.
func armHealChaos(t *testing.T, rng *rand.Rand) string {
	desc := ""
	arm := func(name string, trig fault.Trigger) {
		p, ok := fault.Lookup(name)
		if !ok {
			t.Fatalf("failpoint %s not registered", name)
		}
		p.Enable(trig)
		desc += fmt.Sprintf(" %s=%+v", name, trig)
	}
	prob := func(p float64) fault.Trigger {
		return fault.Trigger{Prob: p, Seed: rng.Uint64() | 1}
	}
	if rng.Float64() < 0.5 {
		arm(fault.SiteClusterAntiEntropyKeys, prob(0.2+0.2*rng.Float64()))
	}
	if rng.Float64() < 0.5 {
		arm(fault.SiteClusterAntiEntropyFetch, prob(0.2+0.2*rng.Float64()))
	}
	return desc
}

func runClusterHealSchedule(t *testing.T, seed int64, pool []sim.Config, refs []uint64) {
	rng := rand.New(rand.NewSource(seed))
	fault.DisableAll()
	t.Cleanup(fault.DisableAll)

	scfg := func(int) service.Config {
		return service.Config{
			Workers:          1 + rng.Intn(2),
			QueueCap:         16 + rng.Intn(16),
			CacheCap:         64,
			MaxRetries:       2,
			ProgressInterval: 500,
		}
	}
	heartbeat := time.Duration(5+rng.Intn(10)) * time.Millisecond
	opts := func(i int) cluster.Options {
		_ = rng.Intn(2) // was the steal threshold; keeps every seed's schedule
		o := cluster.Options{
			HeartbeatInterval:   heartbeat,
			SuspectAfter:        40 * time.Millisecond,
			PollInterval:        2 * time.Millisecond,
			AntiEntropyInterval: time.Duration(10+rng.Intn(15)) * time.Millisecond,
			Weight:              1 + i%2, // heterogeneous ring on purpose
		}
		_ = rng.Intn(50) // unused; keeps every seed's draw sequence, and so its schedule
		return o
	}
	f := newFabricOpts(t, 3, scfg, opts)
	faults := armHealChaos(t, rng)
	scenario := []string{"join", "recover", "flap"}[rng.Intn(3)]

	// Burst to node0 (never killed), like the base chaos suite.
	type tracked struct {
		j    *service.Job
		pool int
	}
	var jobs []tracked
	total := 8 + rng.Intn(8)
	for i := 0; i < total; i++ {
		ci := rng.Intn(len(pool))
		j, err := f.Nodes[0].Submit(fmt.Sprintf("client%d", rng.Intn(3)), pool[ci])
		if err != nil {
			if !errors.Is(err, service.ErrQueueFull) && !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("submit (scenario=%s faults:%s): %v", scenario, faults, err)
			}
			continue
		}
		jobs = append(jobs, tracked{j: j, pool: ci})
		if rng.Float64() < 0.3 {
			time.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
		}
	}

	// Scenario mischief, concurrent with the sweep (rng-driven, replayable).
	killIdx := -1
	var joined *cluster.Node
	switch scenario {
	case "join":
		time.Sleep(time.Duration(rng.Intn(10)) * time.Millisecond)
		var err error
		joined, err = f.AddNode(scfg(3), opts(3))
		if err != nil {
			t.Fatalf("join mid-sweep: %v", err)
		}
	case "recover":
		killIdx = 1 + rng.Intn(2)
		time.Sleep(time.Duration(rng.Intn(10)) * time.Millisecond)
		f.Kill(killIdx)
	case "flap":
		peer := fmt.Sprintf("node%d", 1+rng.Intn(2))
		for i := 0; i < 3+rng.Intn(3); i++ {
			f.Transport.Partition("node0", peer)
			time.Sleep(time.Duration(5+rng.Intn(20)) * time.Millisecond)
			f.Transport.Heal("node0", peer)
			time.Sleep(time.Duration(5+rng.Intn(15)) * time.Millisecond)
		}
	}

	// Heal failpoints cannot fail a job, and node0 survives every scenario:
	// every tracked job must end done with its reference bytes.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, tr := range jobs {
		res, err := tr.j.Wait(ctx)
		if err != nil {
			t.Fatalf("job %s: %v (scenario=%s faults:%s)", tr.j.Status().ID, err, scenario, faults)
		}
		if got, want := res.Hash(), refs[tr.pool]; got != want {
			t.Fatalf("torn result: job %s hash %#x != reference %#x (scenario=%s faults:%s)",
				tr.j.Status().ID, got, want, scenario, faults)
		}
	}

	// Disarm before the bookkeeping sweep; the fabric keeps running.
	fault.DisableAll()

	nodes := f.Nodes
	if joined != nil && len(nodes) < 4 {
		nodes = append(append([]*cluster.Node(nil), nodes...), joined)
	}
	for i, n := range nodes {
		if i == killIdx {
			continue
		}
		deadline := time.Now().Add(10 * time.Second)
		st := n.Service().Stats()
		for st.Done+st.Failed+st.Cancelled != st.Submitted && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			st = n.Service().Stats()
		}
		if st.Done+st.Failed+st.Cancelled != st.Submitted {
			t.Fatalf("node%d books do not balance: %+v (scenario=%s faults:%s)", i, st, scenario, faults)
		}
		for pi, cfg := range pool {
			key := service.CacheKey(&cfg)
			if res, ok := n.Service().PeekResult(key); ok && res.Hash() != refs[pi] {
				t.Fatalf("node%d cache holds a torn result for pool[%d] (scenario=%s faults:%s)", i, pi, scenario, faults)
			}
		}
	}

	switch scenario {
	case "recover":
		// Restart the kill victim with an empty cache: anti-entropy must
		// converge it to node0's record set, byte-for-byte.
		restarted, err := f.Restart(killIdx, scfg(killIdx), opts(killIdx))
		if err != nil {
			t.Fatalf("restart node%d: %v", killIdx, err)
		}
		wantKeys := f.Nodes[0].Service().ResultKeys()
		deadline := time.Now().Add(15 * time.Second)
		for {
			missing := 0
			for _, k := range wantKeys {
				if _, ok := restarted.Service().PeekResult(k); !ok {
					missing++
				}
			}
			if missing == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("restarted node%d still missing %d/%d records (faults:%s)",
					killIdx, missing, len(wantKeys), faults)
			}
			time.Sleep(5 * time.Millisecond)
		}
		for pi, cfg := range pool {
			key := service.CacheKey(&cfg)
			if res, ok := restarted.Service().PeekResult(key); ok && res.Hash() != refs[pi] {
				t.Fatalf("restarted node%d backfilled a torn result for pool[%d]", killIdx, pi)
			}
		}
	case "flap":
		// Once healed, heartbeats must find every peer again: every peer
		// row on node0 returns to alive.
		deadline := time.Now().Add(10 * time.Second)
		for {
			allAlive := true
			for _, row := range f.Nodes[0].Service().Stats().Nodes {
				if row.State != "self" && row.State != "alive" {
					allAlive = false
				}
			}
			if allAlive {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("peers never came back alive after the flapping stopped: %+v (faults:%s)",
					f.Nodes[0].Service().Stats().Nodes, faults)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
