package vm

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPageTableFirstTouch(t *testing.T) {
	fa := NewFrameAllocator()
	pt0 := NewPageTable(fa)
	pt1 := NewPageTable(fa)

	a := pt0.Translate(0x1000)
	b := pt0.Translate(0x1008)
	if a>>PageShift != b>>PageShift {
		t.Error("same page should map to same frame")
	}
	if a&PageMask != 0 || b&PageMask != 8 {
		t.Error("page offset must be preserved")
	}
	c := pt1.Translate(0x1000)
	if c>>PageShift == a>>PageShift {
		t.Error("different address spaces must get different frames")
	}
	if pt0.Pages() != 1 || pt1.Pages() != 1 {
		t.Errorf("page counts wrong: %d, %d", pt0.Pages(), pt1.Pages())
	}
	if fa.Allocated() != 2 {
		t.Errorf("allocated %d frames, want 2", fa.Allocated())
	}
}

func TestPageTableDeterminism(t *testing.T) {
	build := func() []uint64 {
		fa := NewFrameAllocator()
		pt := NewPageTable(fa)
		var out []uint64
		for _, v := range []uint64{0x5000, 0x1000, 0x9000, 0x1000, 0x5008} {
			out = append(out, pt.Translate(v))
		}
		return out
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("translation %d differs: %#x vs %#x", i, a[i], b[i])
		}
	}
}

func TestTLBHitMiss(t *testing.T) {
	fa := NewFrameAllocator()
	pt := NewPageTable(fa)
	tlb := NewTLB(2, 50)

	_, lat := tlb.Access(pt, 0x1000)
	if lat != 50 {
		t.Errorf("first access latency %d, want walk latency 50", lat)
	}
	_, lat = tlb.Access(pt, 0x1800)
	if lat != 0 {
		t.Errorf("same-page access latency %d, want 0", lat)
	}
	tlb.Access(pt, 0x2000)
	// 2-entry TLB now holds pages 1 and 2; page 3 evicts LRU (page 1).
	tlb.Access(pt, 0x3000)
	if _, lat = tlb.Access(pt, 0x1000); lat != 50 {
		t.Error("LRU entry should have been evicted")
	}
	if tlb.Hits != 1 || tlb.Misses != 4 {
		t.Errorf("hits=%d misses=%d, want 1/4", tlb.Hits, tlb.Misses)
	}
}

// TestTLBAccessAtMatchesAccess drives two TLBs with the same accesses and
// invalidations, one through Access and one through AccessAt with hints
// that are right, stale, wrong or out of range: results, counters and every
// slot (LRU stamps included) must stay equal, and the returned slot must
// hold the page.
func TestTLBAccessAtMatchesAccess(t *testing.T) {
	pt := NewPageTable(NewFrameAllocator())
	ref, hinted := NewTLB(4, 30), NewTLB(4, 30)
	rng := rand.New(rand.NewSource(1))
	last := map[uint64]int{} // page -> slot AccessAt last returned for it
	for i := 0; i < 5000; i++ {
		v := uint64(rng.Intn(12))<<PageShift | uint64(rng.Intn(1<<PageShift))
		if rng.Intn(20) == 0 {
			ref.Invalidate(v, PageShift)
			hinted.Invalidate(v, PageShift)
			continue
		}
		hint := last[v>>PageShift]
		switch rng.Intn(4) {
		case 1:
			hint = rng.Intn(4)
		case 2:
			hint = -1
		case 3:
			hint = 4 + rng.Intn(3)
		}
		wantPA, wantLat := ref.Access(pt, v)
		pa, lat, slot := hinted.AccessAt(pt, v, hint)
		if pa != wantPA || lat != wantLat {
			t.Fatalf("access %d (hint %d): got %#x/%d, want %#x/%d", i, hint, pa, lat, wantPA, wantLat)
		}
		if s := hinted.slots[slot]; !s.valid || s.vpn != v>>PageShift {
			t.Fatalf("access %d: slot %d does not hold page %d", i, slot, v>>PageShift)
		}
		last[v>>PageShift] = slot
		if !slices.Equal(ref.slots, hinted.slots) || ref.Hits != hinted.Hits || ref.Misses != hinted.Misses {
			t.Fatalf("access %d (hint %d): TLB state diverged", i, hint)
		}
	}
	if ref.Misses == 0 || ref.Hits == 0 {
		t.Fatalf("mix too narrow: %d hits, %d misses", ref.Hits, ref.Misses)
	}
}

func TestTLBInvalidate(t *testing.T) {
	fa := NewFrameAllocator()
	pt := NewPageTable(fa)
	tlb := NewTLB(4, 10)
	tlb.Access(pt, 0x1000)
	tlb.Invalidate(0x1234, PageShift) // same page
	if _, lat := tlb.Access(pt, 0x1000); lat != 10 {
		t.Error("invalidated entry should miss")
	}
}

func TestTLBTranslationCorrect(t *testing.T) {
	fa := NewFrameAllocator()
	pt := NewPageTable(fa)
	tlb := NewTLB(8, 10)
	f := func(v uint64) bool {
		v &= (1 << 40) - 1
		p1, _ := tlb.Access(pt, v)
		p2 := pt.Translate(v)
		return p1 == p2 && p1&PageMask == v&PageMask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEMCTLBBasics(t *testing.T) {
	fa := NewFrameAllocator()
	pt := NewPageTable(fa)
	e := NewEMCTLB(2)

	if _, ok := e.Lookup(0x1000); ok {
		t.Fatal("empty EMC TLB should miss")
	}
	pte := pt.Lookup(0x1000)
	e.Insert(0x1000, pte)
	if !pte.EMCResident {
		t.Error("Insert must set the PTE's EMCResident bit")
	}
	p, ok := e.Lookup(0x1040)
	if !ok || p != pt.Translate(0x1040) {
		t.Errorf("EMC TLB lookup wrong: %#x ok=%v", p, ok)
	}
	// Duplicate insert must not consume a slot.
	e.Insert(0x1000, pte)
	pte2 := pt.Lookup(0x2000)
	e.Insert(0x2000, pte2)
	if !e.Resident(0x1000) || !e.Resident(0x2000) {
		t.Error("both translations should be resident")
	}
	// Circular eviction: third page evicts the oldest (page 1) and clears
	// its residence bit.
	pte3 := pt.Lookup(0x3000)
	e.Insert(0x3000, pte3)
	if e.Resident(0x1000) {
		t.Error("oldest entry should have been evicted")
	}
	if pte.EMCResident {
		t.Error("evicted PTE must have EMCResident cleared")
	}
	if !pte2.EMCResident || !pte3.EMCResident {
		t.Error("live PTEs must keep EMCResident set")
	}
}

func TestEMCTLBShootdown(t *testing.T) {
	fa := NewFrameAllocator()
	pt := NewPageTable(fa)
	e := NewEMCTLB(4)
	pte := pt.Lookup(0x5000)
	e.Insert(0x5000, pte)
	e.Invalidate(0x5FFF)
	if e.Resident(0x5000) {
		t.Error("shootdown should remove the translation")
	}
	if pte.EMCResident {
		t.Error("shootdown should clear the residence bit")
	}
	if _, ok := e.Lookup(0x5000); ok {
		t.Error("lookup after shootdown should miss")
	}
}

func TestEMCTLBCounters(t *testing.T) {
	fa := NewFrameAllocator()
	pt := NewPageTable(fa)
	e := NewEMCTLB(4)
	e.Lookup(0x1000)
	e.Insert(0x1000, pt.Lookup(0x1000))
	e.Lookup(0x1000)
	if e.Hits != 1 || e.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", e.Hits, e.Misses)
	}
}
