package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/sim"
)

// tinyCfg is a fast four-core configuration for scheduler tests.
func tinyCfg(seed uint64) sim.Config {
	cfg := sim.Default([]string{"mcf", "sphinx3", "soplex", "libquantum"})
	cfg.InstrPerCore = 1000
	cfg.Seed = seed
	return cfg
}

// blockerCfg returns a config whose construction blocks until release is
// closed — it parks a worker without consuming CPU. CoreTweak also makes it
// uncacheable, which is what keeps it out of the cache/coalescing paths.
func blockerCfg(release <-chan struct{}) sim.Config {
	cfg := tinyCfg(99)
	cfg.CoreTweak = func(*cpu.Config) { <-release }
	return cfg
}

func waitStats(t *testing.T, s *Service, ok func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for stats, last: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServiceMatchesDirectRun: a result served through the scheduler is
// bit-identical to running the same config directly.
func TestServiceMatchesDirectRun(t *testing.T) {
	cfg := tinyCfg(1)
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 2, QueueCap: 8})
	defer s.Close()
	res, err := s.Run(context.Background(), "t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash() != direct.Hash() {
		t.Fatalf("service result hash %#x != direct run hash %#x", res.Hash(), direct.Hash())
	}
}

// TestCacheHitOnResubmit: resubmitting an identical config returns the
// cached result without re-running, observable via the Prometheus counter.
func TestCacheHitOnResubmit(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, QueueCap: 8, Metrics: reg})
	defer s.Close()
	cfg := tinyCfg(1)

	j1, err := s.Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if j1.Status().Cached {
		t.Fatal("first run must not be marked cached")
	}

	j2, err := s.Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := j2.Status()
	if st.State != StateDone || !st.Cached {
		t.Fatalf("resubmit should be an immediate cached hit, got state=%s cached=%v", st.State, st.Cached)
	}
	res2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res1 {
		t.Fatal("cache hit should return the stored result pointer")
	}

	stats := s.Stats()
	if stats.CacheHits != 1 || stats.Done != 2 {
		t.Fatalf("want 1 cache hit and 2 done, got %+v", stats)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `emcsim_service_cache_hits{component="service"} 1`) {
		t.Fatalf("metrics missing cache-hit counter:\n%s", b.String())
	}
}

// TestObsVariantNotSharedWithPlainRun: the same semantic config with
// lifecycle tracing enabled must not be served a cached untraced result.
func TestObsVariantNotSharedWithPlainRun(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 8})
	defer s.Close()
	plain := tinyCfg(1)
	if _, err := s.Run(context.Background(), "t", plain); err != nil {
		t.Fatal(err)
	}
	traced := tinyCfg(1)
	traced.Obs = obs.Config{Enabled: true, SampleEvery: 1}
	res, err := s.Run(context.Background(), "t", traced)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil {
		t.Fatal("traced config was served the untraced cached result")
	}
	if st := s.Stats(); st.CacheHits != 0 {
		t.Fatalf("obs variant must be a distinct cache key, got %d hits", st.CacheHits)
	}
}

// TestCoalescing: an identical submission while the first is queued or
// running returns the same job instead of enqueuing a duplicate.
func TestCoalescing(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueCap: 8})
	defer s.Close()

	blocker, err := s.Submit("t", blockerCfg(release))
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, func(st Stats) bool { return st.Running == 1 })

	cfg := tinyCfg(1)
	j1, err := s.Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("identical in-flight submission should coalesce onto the same job")
	}
	if st := s.Stats(); st.Coalesced != 1 {
		t.Fatalf("want 1 coalesced, got %+v", st)
	}

	close(release)
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestForwardedSubmitNeverCoalescesOntoRemoteJob: while this node follows
// a key on a peer (a routed job), a forwarded submission of that key runs
// here as a fresh job, but a local client's submission still coalesces onto
// the routed job.
func TestForwardedSubmitNeverCoalescesOntoRemoteJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 8})
	defer s.Close()

	cfg := tinyCfg(1)
	key, _ := CacheKey(&cfg)
	routed, fresh, err := s.NewRoutedJob("t", key, cfg)
	if err != nil || !fresh {
		t.Fatalf("NewRoutedJob: fresh=%v err=%v", fresh, err)
	}
	local, err := s.Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if local != routed {
		t.Fatal("a local submission should coalesce onto the routed job")
	}
	fwd, err := s.SubmitForwarded("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fwd == routed {
		t.Fatal("a forwarded submission coalesced onto a job followed on a peer")
	}
	if _, err := fwd.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Coalesced != 1 || st.Executed != 1 {
		t.Fatalf("want 1 coalesced and 1 executed, got %+v", st)
	}
	s.FinishRouted(routed, nil, sim.ErrCancelled)
}

// TestBackpressure: QueueCap bounds queued jobs; Submit beyond it fails fast
// with ErrQueueFull and succeeds again once the queue drains.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueCap: 1})
	defer s.Close()

	if _, err := s.Submit("t", blockerCfg(release)); err != nil {
		t.Fatal(err)
	}
	// Wait until the worker has popped the blocker so the queue slot frees.
	waitStats(t, s, func(st Stats) bool { return st.Running == 1 && st.QueueDepth == 0 })

	j1, err := s.Submit("t", tinyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("t", tinyCfg(2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}

	close(release)
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, func(st Stats) bool { return st.QueueDepth == 0 })
	if _, err := s.Submit("t", tinyCfg(2)); err != nil {
		t.Fatalf("submit after drain should succeed, got %v", err)
	}
}

// TestCancelQueued: cancelling a job that is still queued finalizes it as
// cancelled without running it.
func TestCancelQueued(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueCap: 8})
	defer s.Close()

	if _, err := s.Submit("t", blockerCfg(release)); err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, func(st Stats) bool { return st.Running == 1 })
	j, err := s.Submit("t", tinyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	close(release)
	if _, err := j.Wait(context.Background()); !errors.Is(err, sim.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if st := j.Status(); st.State != StateCancelled {
		t.Fatalf("want cancelled state, got %s", st.State)
	}
	if st := j.Status(); st.Attempts != 0 {
		t.Fatalf("cancelled-while-queued job must not have run, attempts=%d", st.Attempts)
	}
}

// TestCancelRunning: cancelling a running job stops it at a cycle boundary
// and returns the partial result.
func TestCancelRunning(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 8, ProgressInterval: 1000})
	defer s.Close()
	cfg := tinyCfg(1)
	cfg.InstrPerCore = 2_000_000

	j, err := s.Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, func(st Stats) bool { return st.Running == 1 })
	if err := s.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if !errors.Is(err, sim.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if res == nil {
		t.Fatal("running job should return a partial result on cancel")
	}
	var retired uint64
	for _, c := range res.Cores {
		retired += c.Stats.Retired
	}
	if retired >= cfg.InstrPerCore*4 {
		t.Fatalf("cancelled run retired the full budget (%d)", retired)
	}
	if st := s.Stats(); st.Cancelled != 1 {
		t.Fatalf("want 1 cancelled, got %+v", st)
	}
}

// TestPanicRetrySucceeds: a panic inside the simulator is recovered, the job
// retried, and the worker goroutine survives.
func TestPanicRetrySucceeds(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 8, MaxRetries: 2})
	defer s.Close()
	var calls atomic.Int32
	cfg := tinyCfg(1)
	cfg.CoreTweak = func(*cpu.Config) {
		if calls.Add(1) == 1 {
			panic("injected fault")
		}
	}
	j, err := s.Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil || res == nil {
		t.Fatalf("retried job should succeed, got res=%v err=%v", res, err)
	}
	st := j.Status()
	if st.Attempts != 2 {
		t.Fatalf("want 2 attempts, got %d", st.Attempts)
	}
	if stats := s.Stats(); stats.Retries != 1 || stats.Done != 1 {
		t.Fatalf("want 1 retry and 1 done, got %+v", stats)
	}
	// The worker must still be serving jobs.
	if _, err := s.Run(context.Background(), "t", tinyCfg(1)); err != nil {
		t.Fatalf("worker died after panic recovery: %v", err)
	}
}

// TestPanicExhaustsRetries: a persistently panicking job fails after the
// retry budget with the panic in its error.
func TestPanicExhaustsRetries(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 8, MaxRetries: 1})
	defer s.Close()
	cfg := tinyCfg(1)
	cfg.CoreTweak = func(*cpu.Config) { panic("always broken") }
	j, err := s.Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = j.Wait(context.Background())
	if err == nil || !strings.Contains(err.Error(), "simulation panic: always broken") {
		t.Fatalf("want wrapped panic error, got %v", err)
	}
	st := j.Status()
	if st.State != StateFailed || st.Attempts != 2 {
		t.Fatalf("want failed after 2 attempts, got state=%s attempts=%d", st.State, st.Attempts)
	}
	if stats := s.Stats(); stats.Failed != 1 || stats.Retries != 1 {
		t.Fatalf("want 1 failed, 1 retry, got %+v", stats)
	}
}

// TestUncacheableJobsRerun: configs with function values have no canonical
// identity — they never coalesce and never hit the cache.
func TestUncacheableJobsRerun(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 8})
	defer s.Close()
	mk := func() sim.Config {
		cfg := tinyCfg(1)
		cfg.CoreTweak = func(*cpu.Config) {}
		return cfg
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Run(context.Background(), "t", mk()); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CacheHits != 0 || st.Coalesced != 0 || st.Done != 2 {
		t.Fatalf("uncacheable jobs must re-run: %+v", st)
	}
}

// TestDrain: Drain completes queued work, then rejects new submissions.
func TestDrain(t *testing.T) {
	s := New(Config{Workers: 2, QueueCap: 8})
	var jobs []*Job
	for i := uint64(1); i <= 3; i++ {
		j, err := s.Submit("t", tinyCfg(i))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("job %s not done after drain: %s", st.ID, st.State)
		}
	}
	if _, err := s.Submit("t", tinyCfg(9)); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining after drain, got %v", err)
	}
}

// TestCloseCancelsRunning: Close cancels in-flight jobs instead of waiting
// for them.
func TestCloseCancelsRunning(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 8})
	cfg := tinyCfg(1)
	cfg.InstrPerCore = 5_000_000
	j, err := s.Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, func(st Stats) bool { return st.Running == 1 })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.State != StateCancelled {
		t.Fatalf("want cancelled after Close, got %s", st.State)
	}
}

// TestEqualConfigsShareCacheKey: two equal configs built separately derive
// the same cache key, so they coalesce and hit the cache.
func TestEqualConfigsShareCacheKey(t *testing.T) {
	cfg := tinyCfg(1)
	k1, ok1 := cacheKey(&cfg)
	cfg2 := tinyCfg(1)
	k2, ok2 := cacheKey(&cfg2)
	if !ok1 || !ok2 || k1 != k2 {
		t.Fatalf("equal configs must share a cache key: %q %q", k1, k2)
	}
}

// TestWorkersShareOneQueue: an idle worker takes a queued job no matter
// which job is running elsewhere. Jobs j1 and j3 are uncacheable, so their
// keys are "uncacheable:j1" and "uncacheable:j3"; hashing keys onto per-worker
// queues would put both on the same queue of two, and j3 would wait behind
// the blocked j1 while the other worker idled.
func TestWorkersShareOneQueue(t *testing.T) {
	s := New(Config{Workers: 2, QueueCap: 8})
	defer s.Close()
	release := make(chan struct{})
	defer close(release) // runs before Close: unpark the blocked workers
	started := make(chan string, 2)
	blocker := func(id string) sim.Config {
		var once sync.Once // CoreTweak runs once per core
		cfg := tinyCfg(99)
		cfg.CoreTweak = func(*cpu.Config) {
			once.Do(func() { started <- id })
			<-release
		}
		return cfg
	}
	timeout := time.After(10 * time.Second)
	awaitStart := func(id string) {
		t.Helper()
		select {
		case got := <-started:
			if got != id {
				t.Fatalf("started %s, want %s", got, id)
			}
		case <-timeout:
			t.Fatalf("%s never started: Stats %+v", id, s.Stats())
		}
	}

	j1, err := s.Submit("t", blocker("j1"))
	if err != nil || j1.ID() != "j1" {
		t.Fatalf("first submit: %v, %v", j1, err)
	}
	awaitStart("j1")
	// j2 runs to completion on the second worker and consumes its id.
	j2, err := s.Submit("t", tinyCfg(1))
	if err != nil || j2.ID() != "j2" {
		t.Fatalf("second submit: %v, %v", j2, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := j2.Wait(ctx); err != nil {
		t.Fatalf("j2: %v (Stats %+v)", err, s.Stats())
	}
	j3, err := s.Submit("t", blocker("j3"))
	if err != nil || j3.ID() != "j3" {
		t.Fatalf("third submit: %v, %v", j3, err)
	}
	awaitStart("j3")
	st := s.Stats()
	if st.Running != 2 || st.QueueDepth != 0 {
		t.Fatalf("want 2 running and none queued, got running=%d queued=%d", st.Running, st.QueueDepth)
	}
	if l1, l3 := j1.Status().Shard, j3.Status().Shard; l1 == l3 || l1 < 0 || l1 > 1 || l3 < 0 || l3 > 1 {
		t.Fatalf("running jobs share lane or leave [0,2): j1=%d j3=%d", l1, l3)
	}
}
