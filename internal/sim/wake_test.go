package sim

import (
	"fmt"
	"testing"
)

// TestWakeCacheSound checks the per-component wake cache that gates core and
// EMC ticks in stepped cycles (DESIGN.md §8.1). After every step, a core or
// EMC whose cached wake lies beyond the next cycle will have its Ticks
// skipped until then, so a recomputed NextEvent(now) must not be earlier
// than that wake: an input method that forgot to reset the cache shows up
// here at the step it arrived, where TestCycleSkipDeterminism sees only a
// changed hash (and only if the missed wake-up changed the result). The gate
// must also have skipped something, or the pass is vacuous.
func TestWakeCacheSound(t *testing.T) {
	for _, w := range skipWorkloads {
		for _, seed := range []uint64{1, 7, 42} {
			w, seed := w, seed
			t.Run(fmt.Sprintf("%s/seed%d", w.name, seed), func(t *testing.T) {
				t.Parallel()
				cfg := skipCfg(w.benchmarks, seed)
				if w.tweak != nil {
					w.tweak(&cfg)
				}
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checks := 0
				for s.unfinished() && s.now < cfg.MaxCycles {
					s.Step()
					if s.stalled {
						t.Fatalf("deadlock: %v", s.deadlockError())
					}
					now := s.now
					for i, c := range s.cores {
						if wake := c.Wake(); wake > now+1 && !c.Finished() {
							checks++
							if ne := c.NextEvent(now); ne < wake {
								t.Fatalf("cycle %d: core %d cached wake %d but NextEvent %d", now, i, wake, ne)
							}
						}
					}
					for i, mc := range s.mcs {
						if e := mc.emc; e != nil && e.Wake() > now+1 {
							checks++
							if ne := e.NextEvent(now); ne < e.Wake() {
								t.Fatalf("cycle %d: EMC %d cached wake %d but NextEvent %d", now, i, e.Wake(), ne)
							}
						}
					}
				}
				if s.unfinished() {
					t.Fatalf("run did not finish by cycle %d", s.now)
				}
				if s.gated == 0 {
					t.Fatalf("the wake gate never skipped a tick over %d cycles", s.now)
				}
				t.Logf("cycles=%d gated ticks=%d wake checks=%d", s.now, s.gated, checks)
			})
		}
	}
}
