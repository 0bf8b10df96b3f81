package cpu

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// checkRuns verifies the run-token representation of readyQ/blockedLd:
// every run member is a local (never remote) stReady load, parked
// (memBlocked), with no other copy in either list; each token's runMin is the
// least dispatch seq of its members, and runValid agrees with a full scan of
// every member's older stores; copies and runs match what the lists actually
// hold; and standalone entries carry the memBlocked value of the list they
// sit in. It also checks the store queue's resolved-prefix cursor
// (checkStoreCursor). It returns the number of run members.
func checkRuns(t *testing.T, c *Core, cy uint64) (members int) {
	t.Helper()
	checkStoreCursor(t, c, cy)
	count := make([]int32, len(c.copies))
	var inRun []int32
	tokens := 0
	for _, x := range append(append([]int32(nil), c.readyQ...), c.blockedLd...) {
		if x >= 0 {
			count[x]++
			continue
		}
		tokens++
		last, n := int32(-1), 0
		least, blocked := uint64(math.MaxUint64), true
		for m := ^x; m >= 0; m = c.runNext[m] {
			if n++; n > len(c.rob) {
				t.Fatalf("cycle %d: run %d does not terminate", cy, ^x)
			}
			count[m]++
			inRun = append(inRun, m)
			last = m
			least = min(least, c.seq[m])
			blocked = blocked && scanBlocker(c, m) >= 0
			switch {
			case c.ops[m] != isa.OpLoad:
				t.Fatalf("cycle %d: run member %d is not a load", cy, m)
			case c.st[m] != stReady:
				t.Fatalf("cycle %d: run member %d in state %d", cy, m, c.st[m])
			case c.remote[m]:
				t.Fatalf("cycle %d: run member %d shipped to the EMC", cy, m)
			case !c.memBlocked[m]:
				t.Fatalf("cycle %d: run member %d not marked parked", cy, m)
			}
		}
		if c.runTail[^x] != last {
			t.Fatalf("cycle %d: run %d tail %d, last member %d", cy, ^x, c.runTail[^x], last)
		}
		if c.runMin[^x] != least {
			t.Fatalf("cycle %d: run %d runMin %d, least member seq %d", cy, ^x, c.runMin[^x], least)
		}
		if v := c.runValid(^x); v != blocked {
			t.Fatalf("cycle %d: run %d runValid %v, every member store-blocked %v", cy, ^x, v, blocked)
		}
	}
	for _, m := range inRun {
		if count[m] != 1 {
			t.Fatalf("cycle %d: run member %d has %d copies", cy, m, count[m])
		}
	}
	for s := range count {
		if count[s] != c.copies[s] {
			t.Fatalf("cycle %d: slot %d has %d items, copies says %d", cy, s, count[s], c.copies[s])
		}
	}
	if tokens != c.runs {
		t.Fatalf("cycle %d: %d run tokens, runs says %d", cy, tokens, c.runs)
	}
	for _, x := range c.blockedLd {
		if x >= 0 && c.st[x] == stReady && !c.memBlocked[x] {
			t.Fatalf("cycle %d: load %d sits in blockedLd unmarked", cy, x)
		}
	}
	for _, x := range c.readyQ {
		if x >= 0 && count[x] == 1 && c.memBlocked[x] {
			t.Fatalf("cycle %d: lone ready entry %d marked parked", cy, x)
		}
	}
	return len(inRun)
}

// scanBlocker returns the first unresolved store older than load ld, found
// by a full front-to-back scan of the store queue, or -1 when there is none.
func scanBlocker(c *Core, ld int32) int32 {
	for _, s := range c.sq {
		if c.seq[s] >= c.seq[ld] {
			break
		}
		if c.storeUnresolved(s) {
			return s
		}
	}
	return -1
}

// checkStoreCursor verifies that sq[:sqRes] are resolved stores and that,
// for every ready load in readyQ/blockedLd (run members included), the
// blocker the cursor finds is the one a full scan of the older stores
// finds: the first unresolved one in program order.
func checkStoreCursor(t *testing.T, c *Core, cy uint64) {
	t.Helper()
	if c.sqRes > len(c.sq) {
		t.Fatalf("cycle %d: sqRes %d beyond the %d-entry store queue", cy, c.sqRes, len(c.sq))
	}
	for _, s := range c.sq[:c.sqRes] {
		if c.storeUnresolved(s) {
			t.Fatalf("cycle %d: store %d below the cursor %d is unresolved", cy, s, c.sqRes)
		}
	}
	first := c.sqRes
	for first < len(c.sq) && !c.storeUnresolved(c.sq[first]) {
		first++
	}
	check := func(ld int32) {
		if c.ops[ld] != isa.OpLoad || c.st[ld] != stReady {
			return
		}
		cursor := int32(-1)
		if first < len(c.sq) && c.seq[c.sq[first]] < c.seq[ld] {
			cursor = c.sq[first]
		}
		if scan := scanBlocker(c, ld); cursor != scan {
			t.Fatalf("cycle %d: load %d: cursor finds blocker %d, full scan %d", cy, ld, cursor, scan)
		}
	}
	for _, x := range append(append([]int32(nil), c.readyQ...), c.blockedLd...) {
		if x >= 0 {
			check(x)
			continue
		}
		for m := ^x; m >= 0; m = c.runNext[m] {
			check(m)
		}
	}
}

// inRun reports whether slot idx rides a run token.
func inRun(c *Core, idx int32) bool {
	for _, x := range append(append([]int32(nil), c.readyQ...), c.blockedLd...) {
		for m := ^x; x < 0 && m >= 0; m = c.runNext[m] {
			if m == idx {
				return true
			}
		}
	}
	return false
}

func seqTrace(uops []isa.Uop) []isa.Uop {
	for i := range uops {
		uops[i].Seq = uint64(i)
		uops[i].PC = 0x400000 + uint64(i%16*4)
	}
	return uops
}

// A store whose address resolves in the middle of an issue scan unblocks the
// parked loads behind it in that same scan: the load, riding a run token
// until then, must issue in the store's cycle, not one later.
func TestRunSplitsWhenStoreIssuesMidScan(t *testing.T) {
	uops := seqTrace([]isa.Uop{
		movImm(1, 0x10000),
		movImm(5, 0x30000),
		movImm(3, 7),
		// The store's base comes from a missing load, so its address stays
		// unknown for the whole miss.
		{Op: isa.OpLoad, Src1: 1, Src2: isa.RegNone, Dst: 2, Addr: 0x10000, Value: 0x20000},
		{Op: isa.OpStore, Src1: 2, Src2: 3, Addr: 0x20000, Value: 7},
		// Ready at once, but parked behind the unresolved store.
		{Op: isa.OpLoad, Src1: 5, Src2: isa.RegNone, Dst: 4, Addr: 0x30000, Value: 0x44},
	})
	const st, ld = 4, 5
	c, fu := buildCore(t, uops, 100, nil)
	rode := false
	for cy := uint64(1); cy <= 1000 && !c.Finished(); cy++ {
		parked := inRun(c, ld)
		fu.tick(cy)
		c.Tick(cy)
		checkRuns(t, c, cy)
		if c.st[st] == stIssued && c.rob[st].issuedAt == cy {
			if !parked {
				t.Fatalf("cycle %d: load was not riding a run when its store issued", cy)
			}
			rode = true
			if c.st[ld] == stReady || c.rob[ld].issuedAt != cy {
				t.Fatalf("store issued at %d; load state %d issuedAt %d, want same cycle",
					cy, c.st[ld], c.rob[ld].issuedAt)
			}
		}
	}
	if !rode {
		t.Fatal("store never issued")
	}
	if !c.Finished() || c.archVal[4] != 0x44 {
		t.Fatalf("finished=%v r4=%#x", c.Finished(), c.archVal[4])
	}
}

// spillTrace builds a chain whose store spills the source miss's value and
// whose fill load (base ready, so it parks behind the store) joins the chain
// as the spill fill; padding fills the window to trigger generation.
func spillTrace() []isa.Uop {
	uops := []isa.Uop{
		movImm(1, 0x4000000),
		movImm(6, 0x6000000),
		{Op: isa.OpLoad, Src1: 1, Src2: isa.RegNone, Dst: 2, Addr: 0x4000000, Value: 0x5000000 - 0x18},
		{Op: isa.OpStore, Src1: 6, Src2: 2, Addr: 0x6000000, Value: 0x5000000 - 0x18},
		{Op: isa.OpLoad, Src1: 6, Src2: isa.RegNone, Dst: 7, Addr: 0x6000000, Value: 0x5000000 - 0x18},
		{Op: isa.OpAdd, Src1: 7, Src2: isa.RegNone, Dst: 4, Imm: 0x18},
		{Op: isa.OpLoad, Src1: 4, Src2: isa.RegNone, Dst: 5, Addr: 0x5000000, Value: 0x99},
		{Op: isa.OpAdd, Src1: 5, Src2: isa.RegNone, Dst: 8, Imm: 1},
	}
	for i := 0; i < 400; i++ {
		uops = append(uops, isa.Uop{Op: isa.OpAdd, Src1: 9, Src2: isa.RegNone, Dst: 9, Imm: 1})
	}
	return seqTrace(uops)
}

// A parked load shipped in a chain leaves its run; when the chain aborts,
// AbortRemoteChain re-queues it while its parked entry still sits in
// blockedLd, so the load has two copies and must stay out of runs until the
// duplicate is gone. Local re-execution must still produce the right values.
func TestRunShippedLoadAbortDuplicate(t *testing.T) {
	c, fu := buildCore(t, spillTrace(), 400, func(cfg *Config) { cfg.EMCEnabled = true })
	primeDepCounter(c)
	const fillLd = 4
	var ch *Chain
	cy := uint64(1)
	for ; cy < 2000 && ch == nil; cy++ {
		fu.tick(cy)
		c.Tick(cy)
		checkRuns(t, c, cy)
		parked := inRun(c, fillLd)
		if ch = c.TakeReadyChain(cy); ch == nil {
			continue
		}
		shipped := false
		for _, cu := range ch.Uops {
			shipped = shipped || cu.RobIdx == fillLd
		}
		if !shipped || !parked {
			t.Fatalf("fill load shipped=%v, rode a run before shipping=%v", shipped, parked)
		}
		if inRun(c, fillLd) {
			t.Fatal("shipped load still rides a run")
		}
		checkRuns(t, c, cy)
		c.AbortRemoteChain(ch, cy+1)
		if c.copies[fillLd] != 2 {
			t.Fatalf("aborted fill load has %d copies, want 2", c.copies[fillLd])
		}
		checkRuns(t, c, cy)
	}
	if ch == nil {
		t.Fatal("no chain generated")
	}
	for ; cy < 20000 && !c.Finished(); cy++ {
		fu.tick(cy)
		c.Tick(cy)
		checkRuns(t, c, cy)
	}
	if !c.Finished() {
		t.Fatal("core did not finish after the abort")
	}
	if c.archVal[7] != 0x5000000-0x18 || c.archVal[8] != 0x9a {
		t.Errorf("r7=%#x r8=%#x after local re-execution", c.archVal[7], c.archVal[8])
	}
}

// TestRunInvariantEveryTick drives store-heavy and chain-heavy traces and
// checks the run invariant after every Tick and every chain event (ship,
// abort, remote completion), then the architectural state against the ISS.
func TestRunInvariantEveryTick(t *testing.T) {
	for _, tc := range []struct {
		bench string
		emc   bool
	}{{"lbm", false}, {"mcf", true}, {"omnetpp", true}} {
		tc := tc
		t.Run(tc.bench, func(t *testing.T) {
			t.Parallel()
			const n = 6000
			uops := trace.Generate(trace.MustByName(tc.bench), 11, n)
			iss := trace.NewISS()
			for i := range uops {
				if err := iss.Step(&uops[i]); err != nil {
					t.Fatal(err)
				}
			}
			c, fu := buildCore(t, uops, 200, func(cfg *Config) { cfg.EMCEnabled = tc.emc })
			if tc.emc {
				primeDepCounter(c)
			}
			type flight struct {
				ch  *Chain
				due uint64
			}
			var inFlight []flight
			maxMembers, chains := 0, 0
			for cy := uint64(1); !c.Finished(); cy++ {
				if cy > 4_000_000 {
					t.Fatalf("core did not finish (retired %d)", c.Stats.Retired)
				}
				fu.tick(cy)
				c.Tick(cy)
				if m := checkRuns(t, c, cy); m > maxMembers {
					maxMembers = m
				}
				for _, bad := range c.TakeConflictedChains() {
					for i, f := range inFlight {
						if f.ch == bad {
							c.AbortRemoteChain(bad, cy+1)
							inFlight = append(inFlight[:i], inFlight[i+1:]...)
							checkRuns(t, c, cy)
							break
						}
					}
				}
				if ch := c.TakeReadyChain(cy); ch != nil {
					chains++
					inFlight = append(inFlight, flight{ch, cy + 150})
					checkRuns(t, c, cy)
				}
				for len(inFlight) > 0 && inFlight[0].due <= cy {
					f := inFlight[0]
					inFlight = inFlight[1:]
					if chains%2 == 0 {
						c.AbortRemoteChain(f.ch, cy+1)
					} else {
						c.CompleteRemoteChain(f.ch, f.ch.Evaluate(), cy)
					}
					checkRuns(t, c, cy)
				}
			}
			if maxMembers < 2 {
				t.Fatalf("at most %d loads ever rode a run: the trace does not exercise runs", maxMembers)
			}
			if tc.emc && chains == 0 {
				t.Fatal("no chain shipped")
			}
			for r := 0; r < isa.NumArchRegs; r++ {
				if c.archVal[r] != iss.Regs[r] {
					t.Errorf("r%d = %#x, ISS has %#x", r, c.archVal[r], iss.Regs[r])
				}
			}
			t.Logf("max run members %d, chains %d", maxMembers, chains)
		})
	}
}
