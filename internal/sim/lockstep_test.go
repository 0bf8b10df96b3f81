package sim

import (
	"fmt"
	"testing"
)

// sigOf is the full counter state compared at every step boundary: system,
// core (with the core's debug counters), DRAM, EMC and ring stats. Each core
// first settles the stall counters of the cycles its Tick was skipped in,
// which it otherwise credits lazily; settling changes no later count.
func sigOf(s *System) string {
	sig := fmt.Sprintf("st=%+v", s.st)
	for i, c := range s.cores {
		c.Settle(s.now)
		sig += fmt.Sprintf("|c%d=%+v dbg=%d/%d/%d", i, c.Stats, c.DbgChainBusy, c.DbgCounterLow, c.DbgStallHeads)
	}
	for i, mc := range s.mcs {
		sig += fmt.Sprintf("|mc%d=%+v q=%d", i, mc.ctrl.Stats, mc.ctrl.QueueOccupancy())
		if mc.emc != nil {
			sig += fmt.Sprintf("|emc%d=%+v", i, mc.emc.Stats)
		}
	}
	sig += fmt.Sprintf("|ring=%+v/%+v", s.ctrl.Stats, s.data.Stats)
	return sig
}

// frozenSig is sigOf minus the per-cycle stall counters that skipped cycles
// credit in bulk (those legitimately advance every ticked cycle inside a skip
// window). Everything else must stay constant across skipped cycles.
func frozenSig(s *System) string {
	st := s.st
	st.Cycles = 0
	sig := fmt.Sprintf("st=%+v", st)
	for i, c := range s.cores {
		cs := c.Stats
		cs.Cycles = 0
		cs.FetchStallCycles = 0
		cs.ROBFullCycles = 0
		cs.FullWindowStalls = 0
		cs.RemoteHeadStall = 0
		sig += fmt.Sprintf("|c%d=%+v", i, cs)
	}
	for i, mc := range s.mcs {
		sig += fmt.Sprintf("|mc%d=%+v q=%d", i, mc.ctrl.Stats, mc.ctrl.QueueOccupancy())
	}
	sig += fmt.Sprintf("|ring=%+v/%+v", s.ctrl.Stats, s.data.Stats)
	return sig
}

// TestCycleSkipLockstep runs a skip-enabled System and an every-cycle System
// side by side and, for every skip window, single-steps the reference system
// through the window verifying that no component changed state at any skipped
// cycle (per-cycle stall counters excepted — those are credited in bulk).
// This localizes a missed wake-up to the exact cycle and component, where
// TestCycleSkipDeterminism only detects that one exists.
//
// Three variants: the EMC+prefetcher mix (every wake-up source live), a
// refresh-heavy timing where due refresh epochs bound nearly every window —
// if the refresh-aware horizon or the blocked-load fixed point ever skipped a
// cycle that mattered, the guilty cycle is named here — and the bench's
// chase point, 4x mcf with the EMC and no prefetcher, where chains ship and
// abort while their cores sit gated.
func TestCycleSkipLockstep(t *testing.T) {
	hmix := []string{"mcf", "lbm", "milc", "omnetpp"}
	cases := []struct {
		name       string
		benchmarks []string
		tweak      func(*Config)
	}{
		{"hmix-emc-ghb", hmix, func(c *Config) {
			c.EMCEnabled = true
			c.Prefetcher = PFGHB
		}},
		{"hmix-refresh-heavy", hmix, func(c *Config) {
			c.EMCEnabled = true
			c.Timing.TREFI = 800
			c.Timing.TRFC = 128
		}},
		{"mcf-x4-emc", []string{"mcf", "mcf", "mcf", "mcf"}, func(c *Config) {
			c.EMCEnabled = true
			c.Prefetcher = PFNone
		}},
		// Fig12's H4 keeps the MSHR files full, so the cores sleep with
		// loads parked on MSHR pressure.
		{"h4-stream", []string{"mcf", "sphinx3", "soplex", "libquantum"}, func(c *Config) {
			c.Prefetcher = PFStream
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			lockstepRun(t, tc.benchmarks, tc.tweak)
		})
	}
}

func lockstepRun(t *testing.T, benchmarks []string, tweak func(*Config)) {
	cfg := skipCfg(benchmarks, 1)
	tweak(&cfg)

	cfgA := cfg
	cfgA.DisableCycleSkip = false
	cfgB := cfg
	cfgB.DisableCycleSkip = true
	a, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	finished := func(s *System) bool {
		for _, c := range s.cores {
			if !c.Finished() {
				return false
			}
		}
		return true
	}
	for !finished(a) && a.now < 200000 {
		prev := a.now
		sig0 := frozenSig(b)
		a.Step()
		for b.now < a.now-1 {
			b.Step()
			if s := frozenSig(b); s != sig0 {
				t.Fatalf("missed event: A skipped %d -> %d, but B changed state at cycle %d\nbefore: %s\nafter:  %s",
					prev, a.now, b.now, sig0, s)
			}
		}
		for b.now < a.now {
			b.Step()
		}
		sa, sb := sigOf(a), sigOf(b)
		if sa != sb {
			t.Fatalf("diverged at cycle %d (prev %d)\nA: %s\nB: %s", a.now, prev, sa, sb)
		}
	}
	t.Logf("no divergence through cycle %d", a.now)
}
