// Package vm models virtual memory for the simulator: per-core address
// spaces, first-touch physical frame allocation, core TLBs, and the EMC's
// small per-core circular TLBs with the residence-tracking bit the paper
// adds to each core page-table entry (§4.1.4).
package vm

// PageShift selects the default 4 KiB pages. Page size is configurable per
// page table: the system simulator uses 2 MiB pages (LargePageShift) for
// workload heaps, modeling the large-page mappings that pointer-chasing
// working sets need for the EMC's 32-entry TLB to be effective (a 4 KiB-page
// heap of tens of MB would miss the EMC TLB on nearly every dependent load
// and abort every chain, which clearly is not the regime the paper reports).
const PageShift = 12

// LargePageShift selects 2 MiB pages.
const LargePageShift = 21

// PageSize is the default page size in bytes.
const PageSize = 1 << PageShift

// PageMask extracts the offset within a default-size page.
const PageMask = PageSize - 1

// PTE is a page-table entry: the physical frame number plus the bit the
// paper adds to track whether the translation is resident in the EMC TLB
// (used for shootdowns and to decide whether a chain must carry its PTE).
type PTE struct {
	Frame       uint64
	EMCResident bool
}

// PageTable is one core's (process's) page table with first-touch physical
// allocation from a shared frame allocator.
type PageTable struct {
	frames *FrameAllocator
	pages  map[uint64]*PTE
	shift  uint
}

// FrameAllocator hands out physical frames sequentially across all address
// spaces, mimicking an OS that interleaves processes through physical
// memory. Deterministic: allocation order is first-touch order.
type FrameAllocator struct {
	next uint64
}

// NewFrameAllocator returns an allocator starting at frame 0.
func NewFrameAllocator() *FrameAllocator { return &FrameAllocator{} }

// Alloc returns the next free physical frame number.
func (f *FrameAllocator) Alloc() uint64 {
	n := f.next
	f.next++
	return n
}

// Allocated returns how many frames have been handed out.
func (f *FrameAllocator) Allocated() uint64 { return f.next }

// NewPageTable returns an empty page table with default 4 KiB pages.
func NewPageTable(frames *FrameAllocator) *PageTable {
	return NewPageTableShift(frames, PageShift)
}

// NewPageTableShift returns an empty page table with 2^shift-byte pages.
func NewPageTableShift(frames *FrameAllocator, shift uint) *PageTable {
	return &PageTable{frames: frames, pages: make(map[uint64]*PTE), shift: shift}
}

// Shift returns the page-size shift of the table.
func (p *PageTable) Shift() uint { return p.shift }

// Lookup returns the PTE for a virtual address, allocating a frame on first
// touch (the simulator has no page faults to the OS; every page is backed).
func (p *PageTable) Lookup(vaddr uint64) *PTE {
	vpn := vaddr >> p.shift
	pte, ok := p.pages[vpn]
	if !ok {
		pte = &PTE{Frame: p.frames.Alloc()}
		p.pages[vpn] = pte
	}
	return pte
}

// Translate maps a virtual address to a physical address.
func (p *PageTable) Translate(vaddr uint64) uint64 {
	return p.Lookup(vaddr).Frame<<p.shift | (vaddr & (1<<p.shift - 1))
}

// Pages returns the number of mapped pages.
func (p *PageTable) Pages() int { return len(p.pages) }

// TLB is a fully-associative translation lookaside buffer with true-LRU
// replacement, used for the cores' L1 TLBs.
type TLB struct {
	entries int
	walkLat int // page-walk latency in cycles on a miss
	slots   []tlbSlot
	tick    uint64
	Hits    uint64
	Misses  uint64
}

type tlbSlot struct {
	vpn   uint64
	frame uint64
	valid bool
	used  uint64
}

// NewTLB returns a TLB with the given entry count and miss (walk) latency.
func NewTLB(entries, walkLatency int) *TLB {
	return &TLB{entries: entries, walkLat: walkLatency, slots: make([]tlbSlot, entries)}
}

// Access translates vaddr through the TLB backed by pt. It returns the
// physical address and the translation latency in cycles (0 on a hit).
func (t *TLB) Access(pt *PageTable, vaddr uint64) (paddr uint64, lat int) {
	paddr, lat, _ = t.AccessAt(pt, vaddr, -1)
	return paddr, lat
}

// AccessAt is Access starting at a guess of the slot that holds vaddr's
// page, such as the slot an earlier AccessAt of the page returned; it
// returns the slot that holds the page afterwards. A page sits in at most
// one valid slot, so a guess whose slot holds the page is the slot the
// scan would find, and any other guess (out of range, or a slot evicted or
// invalidated since) falls back to the scan. The outcome, hit or walk, the
// LRU stamps, the victim and the counters, is Access's either way.
func (t *TLB) AccessAt(pt *PageTable, vaddr uint64, hint int) (paddr uint64, lat, slot int) {
	t.tick++
	sh := pt.shift
	mask := uint64(1)<<sh - 1
	vpn := vaddr >> sh
	if uint(hint) < uint(len(t.slots)) {
		if s := &t.slots[hint]; s.valid && s.vpn == vpn {
			s.used = t.tick
			t.Hits++
			return s.frame<<sh | (vaddr & mask), 0, hint
		}
	}
	for i := range t.slots {
		s := &t.slots[i]
		if s.valid && s.vpn == vpn {
			s.used = t.tick
			t.Hits++
			return s.frame<<sh | (vaddr & mask), 0, i
		}
	}
	t.Misses++
	pte := pt.Lookup(vaddr)
	victim := 0
	for i := range t.slots {
		if !t.slots[i].valid {
			victim = i
			break
		}
		if t.slots[i].used < t.slots[victim].used {
			victim = i
		}
	}
	t.slots[victim] = tlbSlot{vpn: vpn, frame: pte.Frame, valid: true, used: t.tick}
	return pte.Frame<<sh | (vaddr & mask), t.walkLat, victim
}

// Invalidate drops a translation (TLB shootdown). shift must match the page
// table the TLB fronts.
func (t *TLB) Invalidate(vaddr uint64, shift uint) {
	vpn := vaddr >> shift
	for i := range t.slots {
		if t.slots[i].valid && t.slots[i].vpn == vpn {
			t.slots[i].valid = false
		}
	}
}

// EMCTLB is the EMC's per-core translation buffer (§4.1.4): a small circular
// buffer caching the PTEs of the last pages the EMC accessed for that core.
// Each insertion sets the EMCResident bit in the core's PTE so the core can
// (a) invalidate the entry on shootdown and (b) know, before shipping a
// chain, whether the source miss's translation is already at the EMC.
type EMCTLB struct {
	slots []emcSlot
	next  int // circular insertion cursor
	shift uint

	Hits   uint64
	Misses uint64
}

type emcSlot struct {
	vpn   uint64
	frame uint64
	valid bool
	pte   *PTE
}

// NewEMCTLB returns an EMC TLB with n entries (Table 1: 32 per core) and
// default 4 KiB pages.
func NewEMCTLB(n int) *EMCTLB {
	return NewEMCTLBShift(n, PageShift)
}

// NewEMCTLBShift returns an EMC TLB with 2^shift-byte pages.
func NewEMCTLBShift(n int, shift uint) *EMCTLB {
	return &EMCTLB{slots: make([]emcSlot, n), shift: shift}
}

// Lookup translates vaddr if the translation is resident. The EMC does not
// walk page tables: on a miss the caller must halt the chain and bounce it
// back to the core (§4.1.4).
func (t *EMCTLB) Lookup(vaddr uint64) (paddr uint64, ok bool) {
	vpn := vaddr >> t.shift
	for i := range t.slots {
		s := &t.slots[i]
		if s.valid && s.vpn == vpn {
			t.Hits++
			return s.frame<<t.shift | (vaddr & (1<<t.shift - 1)), true
		}
	}
	t.Misses++
	return 0, false
}

// Resident reports whether a translation for vaddr is present.
func (t *EMCTLB) Resident(vaddr uint64) bool {
	vpn := vaddr >> t.shift
	for i := range t.slots {
		if t.slots[i].valid && t.slots[i].vpn == vpn {
			return true
		}
	}
	return false
}

// Insert installs the PTE for vaddr, evicting the oldest entry (circular
// order), and maintains the EMCResident bits on both the evicted and the
// inserted core PTEs.
func (t *EMCTLB) Insert(vaddr uint64, pte *PTE) {
	if t.Resident(vaddr) {
		return
	}
	old := &t.slots[t.next]
	if old.valid && old.pte != nil {
		old.pte.EMCResident = false
	}
	*old = emcSlot{vpn: vaddr >> t.shift, frame: pte.Frame, valid: true, pte: pte}
	pte.EMCResident = true
	t.next = (t.next + 1) % len(t.slots)
}

// Invalidate implements the EMC side of a TLB shootdown.
func (t *EMCTLB) Invalidate(vaddr uint64) {
	vpn := vaddr >> t.shift
	for i := range t.slots {
		s := &t.slots[i]
		if s.valid && s.vpn == vpn {
			if s.pte != nil {
				s.pte.EMCResident = false
			}
			s.valid = false
		}
	}
}
