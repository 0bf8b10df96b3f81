// Multi-node chaos suite: seeded schedules of node kills, partitions with
// heal windows, and armed cluster failpoints, driven through a 3-node
// in-process fabric (run it under -race; `make chaos-cluster` runs 25
// schedules). Every schedule submits a burst of jobs to the surviving entry
// node and then asserts the fabric invariants that define "no lost,
// duplicated, or torn results":
//
//   - every job reaches a terminal state (kills and partitions included);
//   - every done job's Result hashes identically to an undisturbed direct
//     run of its configuration (torn-result guard);
//   - every failure is an injected fault — locally via errors.Is, remotely
//     via the RemoteError text that crossed the wire;
//   - each surviving node's books balance (done+failed+cancelled ==
//     submitted);
//   - nothing torn is ever seeded: every cached record on every surviving
//     node decodes to a reference-identical result.
//
// Failpoints are process-global, so schedules run sequentially — no
// t.Parallel anywhere in this file.
package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/sim"
)

// clusterChaosPool mirrors the service chaos pool: small enough that
// duplicates (cluster-wide coalescing, fetched-result hits) are common.
func clusterChaosPool() []sim.Config {
	var pool []sim.Config
	for seed := uint64(1); seed <= 3; seed++ {
		pool = append(pool, tinyCfg(seed))
	}
	emc := tinyCfg(4)
	emc.EMCEnabled = true
	pool = append(pool, emc)
	return pool
}

func clusterChaosSchedules(t *testing.T) int {
	if v := os.Getenv("EMCSIM_CHAOS_SCHEDULES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad EMCSIM_CHAOS_SCHEDULES %q", v)
		}
		return n
	}
	if testing.Short() {
		return 2
	}
	return 6
}

func TestClusterChaosSchedules(t *testing.T) {
	pool := clusterChaosPool()
	fault.DisableAll()
	refs := make([]uint64, len(pool))
	for i, cfg := range pool {
		refs[i] = runTiny(t, cfg).Hash()
	}
	n := clusterChaosSchedules(t)
	for seed := 1; seed <= n; seed++ {
		t.Run(fmt.Sprintf("schedule-%03d", seed), func(t *testing.T) {
			runClusterChaosSchedule(t, int64(seed), pool, refs)
		})
	}
}

// armClusterChaos arms a random subset of cluster failpoints (plus the
// worker panic sites, so remote failures cross the wire too).
func armClusterChaos(t *testing.T, rng *rand.Rand) string {
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
		arm(fault.SiteClusterForward, prob(0.05+0.15*rng.Float64()))
	}
	if rng.Float64() < 0.5 {
		arm(fault.SiteClusterFetchRecv, prob(0.2+0.3*rng.Float64()))
	}
	if rng.Float64() < 0.4 {
		arm(fault.SiteClusterFetch, prob(0.3))
	}
	if rng.Float64() < 0.4 {
		arm(fault.SiteClusterHeartbeat, prob(0.2))
	}
	if rng.Float64() < 0.4 {
		arm(fault.SiteClusterSteal, prob(0.3))
	}
	if rng.Float64() < 0.3 {
		arm("service/worker.prerun", prob(0.1+0.2*rng.Float64()))
	}
	if rng.Float64() < 0.3 {
		arm("service/worker.postrun", prob(0.1+0.2*rng.Float64()))
	}
	return desc
}

// injectedFailure reports whether err is explained by fault injection —
// locally via the error chain, remotely via the text a RemoteError carried
// across the wire.
func injectedFailure(err error) bool {
	if errors.Is(err, fault.ErrInjected) {
		return true
	}
	var re *cluster.RemoteError
	if errors.As(err, &re) {
		return strings.Contains(re.Msg, "fault: injected")
	}
	return false
}

func runClusterChaosSchedule(t *testing.T, seed int64, pool []sim.Config, refs []uint64) {
	rng := rand.New(rand.NewSource(seed))
	fault.DisableAll()
	t.Cleanup(fault.DisableAll)

	f := newFabricOpts(t, 3,
		func(int) service.Config {
			return service.Config{
				Workers:          1 + rng.Intn(2),
				QueueCap:         16 + rng.Intn(16),
				CacheCap:         64,
				MaxRetries:       1 + rng.Intn(3),
				ProgressInterval: 500,
			}
		},
		func(int) cluster.Options {
			return cluster.Options{
				HeartbeatInterval: time.Duration(5+rng.Intn(10)) * time.Millisecond,
				SuspectAfter:      40 * time.Millisecond,
				PollInterval:      2 * time.Millisecond,
				StealThreshold:    1 + rng.Intn(2),
			}
		})
	faults := armClusterChaos(t, rng)

	// Entry point is always node0 (never killed), so every caller-visible
	// job survives the schedule. Kills and partitions hit nodes 1 and 2 —
	// SIGKILL of a worker mid-sweep and split-brain windows.
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
				t.Fatalf("submit (faults:%s): %v", faults, err)
			}
			continue
		}
		jobs = append(jobs, tracked{j: j, pool: ci})
		if rng.Float64() < 0.3 {
			time.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
		}
	}

	// Mischief: a partition window, then maybe a kill, concurrent with the
	// sweep. All delays are rng-driven so schedules replay identically.
	partA := []string{"node0", "node1", "node2"}[rng.Intn(3)]
	partB := []string{"node0", "node1", "node2"}[rng.Intn(3)]
	doPartition := partA != partB && rng.Float64() < 0.7
	killIdx := 1 + rng.Intn(2) // node1 or node2, never the entry node
	doKill := rng.Float64() < 0.6
	mischiefDone := make(chan struct{})
	go func() {
		defer close(mischiefDone)
		if doPartition {
			time.Sleep(time.Duration(2+rng.Intn(10)) * time.Millisecond)
			f.Transport.Partition(partA, partB)
			time.Sleep(time.Duration(20+rng.Intn(60)) * time.Millisecond)
			f.Transport.Heal(partA, partB)
		}
		if doKill {
			time.Sleep(time.Duration(rng.Intn(15)) * time.Millisecond)
			f.Kill(killIdx)
		}
	}()
	<-mischiefDone

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, tr := range jobs {
		res, err := tr.j.Wait(ctx)
		st := tr.j.Status()
		if !st.State.Terminal() {
			t.Fatalf("job %s not terminal (faults:%s kill=%v part=%v)", st.ID, faults, doKill, doPartition)
		}
		switch st.State {
		case service.StateDone:
			if res == nil {
				t.Fatalf("done job %s lost its result (faults:%s)", st.ID, faults)
			}
			if got, want := res.Hash(), refs[tr.pool]; got != want {
				t.Fatalf("torn result: job %s hash %#x != reference %#x (faults:%s)", st.ID, got, want, faults)
			}
		case service.StateFailed:
			if !injectedFailure(err) {
				t.Fatalf("job %s failed for a non-injected reason: %v (faults:%s)", st.ID, err, faults)
			}
		case service.StateCancelled:
			t.Fatalf("job %s cancelled but the schedule cancels nothing (faults:%s)", st.ID, faults)
		}
	}

	// Disarm before the bookkeeping sweep: the fabric keeps running
	// (heartbeats, steals, late steal deliveries) until Close.
	fault.DisableAll()

	for i, n := range f.Nodes {
		if i == killIdx && doKill {
			continue
		}
		st := n.Service().Stats()
		if st.Done+st.Failed+st.Cancelled != st.Submitted {
			// In-flight stolen/forwarded work may still be settling; allow a
			// short convergence window before declaring the books broken.
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				st = n.Service().Stats()
				if st.Done+st.Failed+st.Cancelled == st.Submitted {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if st.Done+st.Failed+st.Cancelled != st.Submitted {
				t.Fatalf("node%d books do not balance: %+v (faults:%s)", i, st, faults)
			}
		}
		// Torn-seed guard: every cached record on a surviving node matches
		// its reference bit-for-bit.
		for pi, cfg := range pool {
			key, _ := service.CacheKey(&cfg)
			if res, ok := n.Service().PeekResult(key); ok {
				if res.Hash() != refs[pi] {
					t.Fatalf("node%d cache holds a torn result for pool[%d] (faults:%s)", i, pi, faults)
				}
			}
		}
	}
}
