package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
)

// producers counts the cores whose uop producer goroutine is alive.
func (s *System) producers() int {
	n := 0
	for _, f := range s.feeds {
		if f.Producing() {
			n++
		}
	}
	return n
}

// TestNoProducerOutlivesRun: runLoop joins every feed producer on each of
// its exits — a finished run, a cancel, MaxCycles, a deadlock and a panic
// injected at the cycle failpoint. A progress callback checks that the
// producers were running, so the test cannot pass on a run that never
// started them.
func TestNoProducerOutlivesRun(t *testing.T) {
	build := func(instr, maxCycles uint64) func(*testing.T) *System {
		return func(t *testing.T) *System {
			cfg := skipCfg(mcfX4, 5)
			cfg.EMCEnabled = true
			cfg.InstrPerCore, cfg.MaxCycles = instr, maxCycles
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	long := build(1<<40, 5_000_000)
	for _, tc := range []struct {
		name   string
		sys    func(*testing.T) *System
		cancel bool
		want   string // error substring; "" = clean finish
		panics bool
	}{
		{name: "finished", sys: build(3000, 5_000_000)},
		{name: "cancelled", sys: long, cancel: true, want: ErrCancelled.Error()},
		{name: "maxcycles", sys: build(1<<40, 20_000), want: "exceeded MaxCycles"},
		{name: "deadlock", sys: func(t *testing.T) *System {
			cfg := Default(mcfX4)
			cfg.InstrPerCore = 2000
			s, _, _ := strand(t, cfg)
			return s
		}, want: "deadlock"},
		{name: "panic", sys: long, panics: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.sys(t)
			if n := s.producers(); n != 0 {
				t.Fatalf("%d producers alive before the run", n)
			}
			seen := -1
			var h *RunHandle
			h = s.NewRunHandle(500, func(Progress) {
				if seen < 0 {
					seen = s.producers()
				}
				if tc.cancel {
					h.Cancel()
				}
			})
			if tc.panics {
				p, _ := fault.Lookup(fault.SiteSimCycle)
				p.Enable(fault.Trigger{After: 2000, Once: true})
				defer p.Disable()
			}
			var runErr error
			panicked := func() (v any) {
				defer func() { v = recover() }()
				_, runErr = h.Run()
				return nil
			}()
			switch {
			case tc.panics:
				if _, ok := panicked.(*fault.InjectedPanic); !ok {
					t.Fatalf("want an injected panic, got %v", panicked)
				}
			case panicked != nil:
				t.Fatalf("run panicked: %v", panicked)
			case tc.want == "" && runErr != nil:
				t.Fatalf("run failed: %v", runErr)
			case tc.want != "" && (runErr == nil || !strings.Contains(runErr.Error(), tc.want)):
				t.Fatalf("run ended %v, want an error containing %q", runErr, tc.want)
			}
			if tc.name != "finished" && seen <= 0 {
				t.Fatalf("no producer was running mid-run (saw %d)", seen)
			}
			if n := s.producers(); n != 0 {
				t.Fatalf("%d producers outlived the run", n)
			}
		})
	}
}

// TestStepAfterCancelContinuesStream: a run cancelled mid-way, stepped
// inline for a while and then run again to the end gives the Result of an
// uninterrupted run — the feeds hand their generators back to the stepping
// goroutine without losing or repeating a uop.
func TestStepAfterCancelContinuesStream(t *testing.T) {
	cfg := skipCfg(mcfX4, 8)
	cfg.EMCEnabled = true
	cfg.InstrPerCore = 20_000
	want, _, _ := runHashed(t, cfg)

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var h *RunHandle
	h = s.NewRunHandle(5000, func(p Progress) {
		if p.Cycles > 0 {
			h.Cancel()
		}
	})
	if _, err := h.Run(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("first run ended %v, want ErrCancelled", err)
	}
	for i := 0; i < 20_000 && s.unfinished(); i++ {
		s.Step()
		if n := s.producers(); n != 0 {
			t.Fatalf("Step started %d producers", n)
		}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Hash(); got != want {
		t.Fatalf("cancelled, stepped and resumed run hashes %#x, uninterrupted %#x", got, want)
	}
}
