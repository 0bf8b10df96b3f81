package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// mustPoint arms the named failpoint and disarms it when the test ends.
func mustPoint(t *testing.T, name string, trig fault.Trigger) *fault.Point {
	t.Helper()
	p, ok := fault.Lookup(name)
	if !ok {
		t.Fatalf("failpoint %s not registered", name)
	}
	p.Enable(trig)
	t.Cleanup(p.Disable)
	return p
}

// TestRetryBudgetExhausted is the structured-failure contract: a job that
// panics on every attempt fails with ErrRetriesExhausted (still carrying the
// panic text) and bumps the dedicated counter.
func TestRetryBudgetExhausted(t *testing.T) {
	mustPoint(t, "service/worker.prerun", fault.Trigger{})

	s := New(Config{Workers: 1, QueueCap: 8, MaxRetries: 1})
	defer s.Close()
	j, err := s.Submit("t", tinyCfg(31))
	if err != nil {
		t.Fatal(err)
	}
	_, err = j.Wait(context.Background())
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("want ErrRetriesExhausted, got %v", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("final attempt's injected panic not reachable through the error: %v", err)
	}
	if !strings.Contains(err.Error(), "simulation panic") {
		t.Fatalf("panic text lost from the structured error: %v", err)
	}
	st := s.Stats()
	if st.RetryExhausted != 1 || st.Failed != 1 || st.Retries != 1 {
		t.Fatalf("counter mismatch: %+v", st)
	}
	if got := j.Status().Attempts; got != 2 {
		t.Fatalf("want 2 attempts (1 + MaxRetries), got %d", got)
	}
}

// TestPostrunPanicRecomputes: a crash after the simulation finished but
// before its result was recorded is retried, and the recomputed result is
// bit-identical to an undisturbed run.
func TestPostrunPanicRecomputes(t *testing.T) {
	cfg := tinyCfg(32)
	want := runTiny(t, cfg).Hash()

	mustPoint(t, "service/worker.postrun", fault.Trigger{Once: true})
	s := New(Config{Workers: 1, QueueCap: 8, MaxRetries: 2})
	defer s.Close()
	res, err := s.Run(context.Background(), "t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash() != want {
		t.Fatalf("recomputed result %#x != undisturbed %#x", res.Hash(), want)
	}
	st := s.Stats()
	if st.Retries != 1 || st.Done != 1 || st.Failed != 0 {
		t.Fatalf("want exactly one absorbed retry: %+v", st)
	}
}

// TestQueueAdmitFailpoint: an injected admission failure surfaces to the
// submitter as a fault-wrapped error without touching the books.
func TestQueueAdmitFailpoint(t *testing.T) {
	mustPoint(t, "service/queue.admit", fault.Trigger{Once: true})
	s := New(Config{Workers: 1, QueueCap: 8})
	defer s.Close()
	if _, err := s.Submit("t", tinyCfg(33)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want injected admission error, got %v", err)
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Fatalf("rejected submission must not count as submitted: %+v", st)
	}
	// The one-shot spent itself; the retried submission goes through.
	if _, err := s.Submit("t", tinyCfg(33)); err != nil {
		t.Fatalf("resubmit after one-shot fault failed: %v", err)
	}
}

// TestDrainFailpoint: an injected drain failure aborts the drain without
// wedging the service; a clean retry then succeeds.
func TestDrainFailpoint(t *testing.T) {
	mustPoint(t, "service/drain", fault.Trigger{Once: true})
	s := New(Config{Workers: 1, QueueCap: 8})
	if err := s.Drain(context.Background()); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want injected drain error, got %v", err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain retry failed: %v", err)
	}
}

// TestCacheGetFailpoint: a forced cache miss re-runs the simulation and the
// recomputed result matches the cached truth — the cache is an optimization,
// never a correctness dependency.
func TestCacheGetFailpoint(t *testing.T) {
	cfg := tinyCfg(34)
	s := New(Config{Workers: 1, QueueCap: 8})
	defer s.Close()
	first, err := s.Run(context.Background(), "t", cfg)
	if err != nil {
		t.Fatal(err)
	}

	mustPoint(t, "service/cache.get", fault.Trigger{Once: true})
	j, err := s.Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if j.Status().Cached {
		t.Fatal("forced miss still reported a cache hit")
	}
	if second.Hash() != first.Hash() {
		t.Fatalf("recompute diverged from cached result: %#x != %#x", second.Hash(), first.Hash())
	}
}

// TestWatchdogFlagsStalledJob: a job making no progress is marked hung in
// its status and the gauge; once it completes the verdict clears. Detection
// only — the job itself must still finish normally.
func TestWatchdogFlagsStalledJob(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueCap: 8, HungTimeout: 20 * time.Millisecond, AttemptHook: parkBlockers})
	defer s.Close()
	j, err := s.Submit("t", blockerCfg(release))
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, func(st Stats) bool { return st.Hung == 1 })
	if !j.Status().Hung {
		t.Fatal("stalled job's status not marked hung")
	}
	close(release)
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatalf("hung-marked job failed to complete: %v", err)
	}
	waitStats(t, s, func(st Stats) bool { return st.Hung == 0 })
	if j.Status().Hung {
		t.Fatal("hung verdict must clear on completion")
	}
}

// TestWatchdogQuietOnHealthyJobs: frequent progress keeps the gauge at zero.
func TestWatchdogQuietOnHealthyJobs(t *testing.T) {
	s := New(Config{
		Workers: 2, QueueCap: 8,
		ProgressInterval: 500, // heartbeats every 500 cycles
		HungTimeout:      5 * time.Second,
	})
	defer s.Close()
	for i := 0; i < 3; i++ {
		if _, err := s.Run(context.Background(), "t", tinyCfg(uint64(40+i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Hung != 0 {
		t.Fatalf("healthy jobs flagged hung: %+v", st)
	}
}
