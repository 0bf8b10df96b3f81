package cache

// MSHR tracks one outstanding miss to a cache line, merging all requests for
// the same line while it is in flight.
type MSHR struct {
	LineAddr uint64
	// Waiters are opaque tokens (e.g. ROB indices, prefetch markers) the
	// owner wakes when the fill arrives.
	Waiters []uint64
	// Issued marks that the downstream request has actually been sent.
	Issued bool
	// Prefetch marks an entry allocated by a prefetcher (no demand waiter).
	Prefetch bool
	// Born is the cycle the entry was allocated (latency accounting).
	Born uint64
}

// MSHRFile is a bounded file of MSHRs. Entries live in a dense fixed-capacity
// slot array (DESIGN.md §13.2): the file is small (16 entries per core), so
// keyed access is a short linear scan of the slots rather than a map lookup,
// and slot reuse keeps the steady state allocation-free (Waiters backing
// arrays are recycled with their slots). A slot is a whole 48-byte MSHR, so
// the LineAddrs a scan reads sit 48 bytes apart: 16 slots span 12 host cache
// lines.
//
// Pointers returned by Lookup/Allocate/Complete are valid only until the next
// Allocate or Complete call: removal compacts the live prefix by moving the
// last live entry, and Complete returns a scratch copy.
type MSHRFile struct {
	slots []MSHR // slots[:n] live; the rest free, retaining Waiters arrays
	n     int
	done  MSHR // scratch entry returned by Complete

	// AllocFails counts allocation attempts rejected because the file was
	// full — back-pressure the owner must model.
	AllocFails uint64
	Merges     uint64
}

// NewMSHRFile returns a file with capacity max.
func NewMSHRFile(max int) *MSHRFile {
	return &MSHRFile{slots: make([]MSHR, max)}
}

// Lookup returns the in-flight entry for a line, or nil.
func (f *MSHRFile) Lookup(lineAddr uint64) *MSHR {
	for i := 0; i < f.n; i++ {
		if f.slots[i].LineAddr == lineAddr {
			return &f.slots[i]
		}
	}
	return nil
}

// Full reports whether a new allocation would fail.
func (f *MSHRFile) Full() bool { return f.n >= len(f.slots) }

// Len returns the number of outstanding entries.
func (f *MSHRFile) Len() int { return f.n }

// Allocate returns the entry for lineAddr, creating it if needed. merged is
// true if an existing entry was reused; ok is false if the file is full and
// no entry exists (the access must retry later).
func (f *MSHRFile) Allocate(lineAddr uint64, now uint64) (m *MSHR, merged, ok bool) {
	if m := f.Lookup(lineAddr); m != nil {
		f.Merges++
		return m, true, true
	}
	if f.n >= len(f.slots) {
		f.AllocFails++
		return nil, false, false
	}
	m = &f.slots[f.n]
	f.n++
	*m = MSHR{LineAddr: lineAddr, Born: now, Waiters: m.Waiters[:0]}
	return m, false, true
}

// Complete removes and returns the entry for a filled line, or nil if none.
// The returned entry is a scratch copy owned by the file; it stays valid
// until the next Complete call.
func (f *MSHRFile) Complete(lineAddr uint64) *MSHR {
	for i := 0; i < f.n; i++ {
		if f.slots[i].LineAddr != lineAddr {
			continue
		}
		// Copy out into the scratch entry and recycle the removed slot's
		// Waiters backing array into the freed slot.
		w := f.done.Waiters[:0]
		f.done = f.slots[i]
		f.done.Waiters = append(w, f.slots[i].Waiters...)
		freed := f.slots[i].Waiters[:0]
		f.n--
		f.slots[i] = f.slots[f.n]
		f.slots[f.n] = MSHR{Waiters: freed}
		return &f.done
	}
	return nil
}
