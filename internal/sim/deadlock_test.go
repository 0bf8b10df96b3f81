package sim

import (
	"fmt"
	"strings"
	"testing"
)

// deadlockCfg builds one of the EMC configurations that used to deadlock: an
// LLC slice closed a line's outstanding entry on an EMC-only fill while its
// launcher's own MC request was still in flight, so the launcher returned
// to the pool with that request still referencing it.
func deadlockCfg(benchmarks []string, pf PrefetcherKind, instr, seed uint64) Config {
	cfg := Default(benchmarks)
	cfg.EMCEnabled = true
	cfg.Prefetcher = pf
	cfg.InstrPerCore = instr
	cfg.Seed = seed
	return cfg
}

var (
	h8Mix  = []string{"omnetpp", "soplex", "mcf", "bwaves"}
	mcfX4  = []string{"mcf", "mcf", "mcf", "mcf"}
	hmixGH = []string{"mcf", "lbm", "milc", "omnetpp"}
)

// poisoned reports the first pooled (freed) request still reachable from a
// slice's outstanding map or an MC's pending entry — a request freed while
// some structure still expects to deliver it.
func poisoned(s *System) error {
	live := map[*memReq]string{}
	for _, sl := range s.slices {
		for line, w := range sl.outstanding {
			for _, r := range w.reqs {
				live[r] = fmt.Sprintf("slice %d outstanding line %#x", sl.id, line)
			}
		}
	}
	for _, mc := range s.mcs {
		for line, p := range mc.pending {
			for _, list := range [][]*memReq{p.reqs, p.emcReqs, p.cross} {
				for _, r := range list {
					live[r] = fmt.Sprintf("MC %d pending line %#x", mc.id, line)
				}
			}
		}
	}
	if len(live) == 0 {
		return nil
	}
	for _, r := range s.reqPool {
		if where, ok := live[r]; ok {
			return fmt.Errorf("cycle %d: freed request still in %s", s.now, where)
		}
	}
	return nil
}

// runPoisonChecked runs cfg step by step, checking the request pool after
// every step.
func runPoisonChecked(t *testing.T, cfg Config) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s.unfinished() {
		if s.now >= cfg.MaxCycles {
			t.Fatalf("exceeded MaxCycles=%d", cfg.MaxCycles)
		}
		s.step()
		if s.stalled {
			t.Fatal(s.deadlockError())
		}
		if err := poisoned(s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeadlockRegressions pins the three runs that deadlocked before the
// slice kept a line's entry open for its launcher's own fill, with the
// pool poison check after every step.
func TestDeadlockRegressions(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"h8-emc/seed110", deadlockCfg(h8Mix, PFNone, 2000, 110)},
		{"h8-emc-stream/seed110", deadlockCfg(h8Mix, PFStream, 2000, 110)},
		{"mcf-x4-emc/seed299", deadlockCfg(mcfX4, PFNone, 20_000, 299)},
	} {
		t.Run(tc.name, func(t *testing.T) { runPoisonChecked(t, tc.cfg) })
	}
}

// TestEMCSeedScan runs short EMC configurations over a band of seeds that
// includes the ones that used to deadlock (110 and 299); every run must
// finish.
func TestEMCSeedScan(t *testing.T) {
	if testing.Short() {
		t.Skip("seed scan skipped in -short mode")
	}
	scans := []struct {
		name       string
		benchmarks []string
		pf         PrefetcherKind
		instr      uint64
		from, to   uint64
	}{
		{"h8-emc", h8Mix, PFNone, 2000, 90, 130},
		{"h8-emc-stream", h8Mix, PFStream, 2000, 90, 130},
		{"mcf-x4-emc", mcfX4, PFNone, 20_000, 290, 310},
		{"hmix-emc-ghb", hmixGH, PFGHB, 3000, 1, 40},
	}
	for _, sc := range scans {
		t.Run(sc.name, func(t *testing.T) {
			for seed := sc.from; seed <= sc.to; seed++ {
				s, err := New(deadlockCfg(sc.benchmarks, sc.pf, sc.instr, seed))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// strand runs cfg until an LLC slice holds a demand load's outstanding
// entry, then drops the entry without delivering its waiters: the launcher's
// fill arrives to no entry, and the load that missed never completes.
func strand(t *testing.T, cfg Config) (s *System, core int, line uint64) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s.unfinished() {
		s.step()
		for _, sl := range s.slices {
			for l, w := range sl.outstanding {
				if r := w.reqs[0]; !r.prefetch && !r.fromEMC {
					delete(sl.outstanding, l)
					return s, r.core, l
				}
			}
		}
	}
	t.Fatal("no demand miss to strand")
	return nil, 0, 0
}

// TestDeadHorizonFailsFast: a run whose event horizon is empty while a core
// is unfinished fails at once, naming the stuck core, its ROB head, and
// where the line it waits on is outstanding — instead of skipping to
// MaxCycles. With cycle skipping off the run still ends at MaxCycles.
func TestDeadHorizonFailsFast(t *testing.T) {
	cfg := Default(mcfX4)
	cfg.InstrPerCore = 2000
	s, core, line := strand(t, cfg)
	_, err := s.Run()
	if err == nil {
		t.Fatal("stranded run finished")
	}
	msg := err.Error()
	for _, want := range []string{
		"deadlock",
		fmt.Sprintf("core %d ROB head is a load in state issued", core),
		fmt.Sprintf("line %#x", line),
		"no slice outstanding entry",
		"no MC pending entry",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock error %q does not mention %q", msg, want)
		}
	}
	if s.Now() >= cfg.MaxCycles/10 {
		t.Errorf("deadlock reported at cycle %d, want well before MaxCycles=%d", s.Now(), cfg.MaxCycles)
	}

	cfg.DisableCycleSkip = true
	s, _, _ = strand(t, cfg)
	s.cfg.MaxCycles = s.Now() + 100_000
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "exceeded MaxCycles") {
		t.Fatalf("stranded run without cycle skipping ended %v, want the MaxCycles error", err)
	}
}
