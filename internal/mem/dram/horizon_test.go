package dram

import (
	"fmt"
	"math/rand"
	"testing"
)

// nextEventScan is NextEvent computed the long way, without the memo, the
// per-bank queue counts or minReadDone: it walks the selected queue and the
// whole in-flight list. It is the oracle NextEvent must match exactly.
func (c *Controller) nextEventScan(now uint64) uint64 {
	if !c.busy() {
		return NoEvent
	}
	h := uint64(NoEvent)
	if c.policy == SchedBatch && c.batchLive == 0 {
		for i := range c.channels {
			if len(c.channels[i].readQ) > 0 {
				return now + 1
			}
		}
	}
	for i := range c.channels {
		ch := &c.channels[i]
		if c.timing.TREFI > 0 {
			for _, d := range ch.nextRefresh {
				if d <= now {
					return now + 1
				}
				h = min(h, d)
			}
		}
		useWrites := len(ch.writeQ) > 0 &&
			(len(ch.readQ) == 0 || len(ch.writeQ) >= c.geo.WriteDrain || ch.draining)
		if useWrites && ch.draining != (len(ch.writeQ) > c.geo.WriteDrain/2) {
			return now + 1
		}
		q := ch.readQ
		if useWrites {
			q = ch.writeQ
		}
		for _, r := range q {
			t := ch.readyAt[r.bankIdx]
			if t <= now {
				return now + 1
			}
			h = min(h, t)
		}
	}
	for _, r := range c.inFlight {
		if !r.Write {
			h = min(h, r.DoneAt)
		}
	}
	if h <= now {
		return now + 1
	}
	return h
}

// checkHorizon compares NextEvent with the oracle and the incrementally
// kept state (per-bank queue counts, minReadDone) with the queues and the
// in-flight list it summarizes.
func checkHorizon(t *testing.T, c *Controller, now uint64, after string) {
	t.Helper()
	for i := range c.channels {
		ch := &c.channels[i]
		nr := make([]int32, len(ch.nRead))
		nw := make([]int32, len(ch.nWrite))
		for _, r := range ch.readQ {
			nr[r.bankIdx]++
		}
		for _, r := range ch.writeQ {
			nw[r.bankIdx]++
		}
		for b := range nr {
			if nr[b] != ch.nRead[b] || nw[b] != ch.nWrite[b] {
				t.Fatalf("cycle %d after %s: channel %d bank %d holds %d reads, %d writes; counts say %d, %d",
					now, after, i, b, nr[b], nw[b], ch.nRead[b], ch.nWrite[b])
			}
		}
	}
	minRead := uint64(NoEvent)
	for _, r := range c.inFlight {
		if !r.Write {
			minRead = min(minRead, r.DoneAt)
		}
	}
	if minRead != c.minReadDone {
		t.Fatalf("cycle %d after %s: earliest in-flight read done at %d, minReadDone %d",
			now, after, minRead, c.minReadDone)
	}
	if got, want := c.NextEvent(now), c.nextEventScan(now); got != want {
		t.Fatalf("cycle %d after %s: NextEvent %d, scan %d", now, after, got, want)
	}
}

// TestHorizonMatchesScan drives a seeded random mix of reads, writes, write
// drains, idle gaps and refreshes through both schedulers and checks the
// horizon against the full scan after every Enqueue and every Tick.
func TestHorizonMatchesScan(t *testing.T) {
	for _, policy := range []SchedPolicy{SchedFRFCFS, SchedBatch} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", policy, seed), func(t *testing.T) {
				t.Parallel()
				horizonMix(t, policy, seed)
			})
		}
	}
}

func horizonMix(t *testing.T, policy SchedPolicy, seed int64) {
	geo := QuadCoreGeometry()
	geo.QueueSize, geo.WriteQCap, geo.WriteDrain = 24, 16, 8
	ti := DDR3()
	ti.TREFI, ti.TRFC = 3000, 300
	c := NewController(geo, ti, policy, 4)
	rng := rand.New(rand.NewSource(seed))

	var stream uint64
	var deferred, drains, idleNoEvent int
	now := uint64(0)
	for phase := 0; phase < 40; phase++ {
		// Phase: cycles to run, enqueue attempts per cycle (1 in every),
		// and the share of writes. every == 0 is an idle gap.
		cycles := 200 + rng.Intn(1500)
		every := []int{0, 40, 12, 6, 3}[rng.Intn(5)]
		writePct := []int{0, 30, 80}[rng.Intn(3)]
		for end := now + uint64(cycles); now < end; now++ {
			if every > 0 && rng.Intn(every) == 0 {
				r := c.NewRequest()
				if rng.Intn(2) == 0 {
					r.LineAddr = stream // row hits
					stream++
				} else {
					r.LineAddr = uint64(rng.Intn(1 << 16)) // conflicts
				}
				r.CoreID = rng.Intn(4)
				if rng.Intn(100) < writePct {
					r.Write, r.CoreID = true, -1
				}
				if !c.Enqueue(r, now) {
					c.Release(r)
				}
				checkHorizon(t, c, now, "Enqueue")
			}
			for _, d := range c.Tick(now) {
				c.Release(d)
			}
			checkHorizon(t, c, now, "Tick")
			h := c.NextEvent(now)
			switch {
			case h == NoEvent:
				idleNoEvent++
			case h > now+1:
				deferred++
			}
			for i := range c.channels {
				if c.channels[i].draining {
					drains++
				}
			}
		}
	}
	// The mix must reach every branch of the horizon it checks.
	if c.Stats.Writes == 0 || c.Stats.Refreshes == 0 || drains == 0 ||
		deferred == 0 || idleNoEvent == 0 || c.Stats.QueueFull == 0 {
		t.Fatalf("mix too narrow: writes %d refreshes %d drain cycles %d deferred %d idle %d rejected %d",
			c.Stats.Writes, c.Stats.Refreshes, drains, deferred, idleNoEvent, c.Stats.QueueFull)
	}
}
