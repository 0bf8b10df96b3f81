package sim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestRunHandleDeterminism: a handled run with progress callbacks enabled
// must produce a Result bit-identical to a plain Run of the same config.
func TestRunHandleDeterminism(t *testing.T) {
	cfg := skipCfg([]string{"mcf", "lbm", "milc", "omnetpp"}, 5)
	cfg.EMCEnabled = true
	cfg.Prefetcher = PFGHB
	want, wantCycles, _ := runHashed(t, cfg)

	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Progress
	h := sys.NewRunHandle(500, func(p Progress) { snaps = append(snaps, p) })
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash() != want {
		t.Fatalf("handled run hash %#x differs from plain run %#x", res.Hash(), want)
	}
	if res.Cycles != wantCycles {
		t.Fatalf("handled run cycles %d differ from plain run %d", res.Cycles, wantCycles)
	}
	if len(snaps) == 0 {
		t.Fatal("progress callback never fired")
	}
	var last Progress
	for i, p := range snaps {
		if i > 0 && p.Cycles <= last.Cycles {
			t.Fatalf("progress cycles not increasing: %d then %d", last.Cycles, p.Cycles)
		}
		if p.Retired < last.Retired {
			t.Fatalf("retired count decreased: %d then %d", last.Retired, p.Retired)
		}
		if p.TargetInstrs != cfg.InstrPerCore*4 {
			t.Fatalf("target instrs %d, want %d", p.TargetInstrs, cfg.InstrPerCore*4)
		}
		last = p
	}
}

// TestRunHandleCancelBeforeStart: cancelling before Run returns immediately
// with a partial (zero-cycle) result and ErrCancelled.
func TestRunHandleCancelBeforeStart(t *testing.T) {
	sys, err := New(skipCfg([]string{"mcf", "mcf", "mcf", "mcf"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	h := sys.NewRunHandle(0, nil)
	h.Cancel()
	res, err := h.Run()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if res.Cycles != 0 {
		t.Fatalf("cancelled-before-start run simulated %d cycles", res.Cycles)
	}
}

// TestRunHandleCancelMidRun cancels from another goroutine once progress
// shows the run is under way, and checks the partial result stops early.
func TestRunHandleCancelMidRun(t *testing.T) {
	cfg := skipCfg([]string{"mcf", "mcf", "mcf", "mcf"}, 2)
	cfg.InstrPerCore = 200_000 // long enough that cancellation lands mid-run
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	var once bool
	h := sys.NewRunHandle(200, func(Progress) {
		if !once {
			once = true
			close(started)
		}
	})
	go func() {
		select {
		case <-started:
		case <-time.After(30 * time.Second):
		}
		h.Cancel()
	}()
	res, err := h.Run()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if !h.Cancelled() {
		t.Fatal("handle does not report cancelled")
	}
	var retired uint64
	for _, c := range res.Cores {
		retired += c.Stats.Retired
	}
	if retired >= cfg.InstrPerCore*4 {
		t.Fatalf("run retired its full budget (%d) despite cancellation", retired)
	}
	if res.Cycles == 0 {
		t.Fatal("cancellation landed before any simulation happened")
	}
	// No core finished, so each counts every cycle of the partial run,
	// including the last ones, whose Ticks the wake gate may have skipped.
	for i, c := range res.Cores {
		if c.Cycles != res.Cycles {
			t.Errorf("core %d counted %d cycles of a %d-cycle partial run", i, c.Cycles, res.Cycles)
		}
	}
}

// TestCycleFailpointCrashesRun: arming the sim/cycle failpoint makes a run
// panic at a cycle boundary — the hook the service's retry path and the
// chaos suite inject crashes through.
func TestCycleFailpointCrashesRun(t *testing.T) {
	p, ok := fault.Lookup("sim/cycle")
	if !ok {
		t.Fatal("sim/cycle failpoint not registered")
	}
	p.Enable(fault.Trigger{After: 50, Once: true})
	defer p.Disable()

	cfg := skipCfg([]string{"mcf", "lbm", "milc", "omnetpp"}, 11)
	cfg.EMCEnabled = true
	cfg.Prefetcher = PFGHB
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sys.NewRunHandle(0, nil)
	panicked := func() (v any) {
		defer func() { v = recover() }()
		_, _ = h.Run()
		return nil
	}()
	ip, ok := panicked.(*fault.InjectedPanic)
	if !ok || ip.Site != "sim/cycle" {
		t.Fatalf("want injected panic at sim/cycle, got %v", panicked)
	}

	// Disarmed, the same config runs to completion (the worker-retry story).
	p.Disable()
	sys2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.Run(); err != nil {
		t.Fatalf("run after disarm failed: %v", err)
	}
}
