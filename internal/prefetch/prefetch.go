// Package prefetch implements the three hardware prefetchers the paper
// evaluates against (Table 1): a POWER4-style stream prefetcher, a Markov
// correlation prefetcher, and a global-history-buffer (GHB) global
// delta-correlation (G/DC) prefetcher, plus Feedback-Directed Prefetching
// (FDP) throttling that adapts the prefetch degree between 1 and 32.
//
// All prefetchers train on LLC demand accesses and prefetch into the LLC,
// matching the paper's configuration.
package prefetch

// Event is one demand access observed at the LLC.
type Event struct {
	LineAddr uint64
	PC       uint64
	Core     int
	Miss     bool
}

// Prefetcher consumes demand events and proposes line addresses to prefetch.
type Prefetcher interface {
	Name() string
	// Train observes an event and returns candidate prefetch line
	// addresses, best first. The caller (FDP or the LLC) bounds how many
	// are actually issued.
	Train(ev Event) []uint64
}

// Null is the no-prefetching baseline.
type Null struct{}

// Name returns "none".
func (Null) Name() string { return "none" }

// Train never proposes prefetches.
func (Null) Train(Event) []uint64 { return nil }

// Combined chains several prefetchers (the paper pairs Markov with stream).
type Combined struct {
	Parts []Prefetcher
	name  string
}

// NewCombined builds a combined prefetcher.
func NewCombined(name string, parts ...Prefetcher) *Combined {
	return &Combined{Parts: parts, name: name}
}

// Name returns the combination's name.
func (c *Combined) Name() string { return c.name }

// Train feeds all parts and concatenates their proposals.
func (c *Combined) Train(ev Event) []uint64 {
	var out []uint64
	for _, p := range c.Parts {
		out = append(out, p.Train(ev)...)
	}
	return out
}

// --- Stream prefetcher ------------------------------------------------------

// StreamConfig sizes the stream prefetcher (Table 1: 32 streams, distance 32).
type StreamConfig struct {
	Streams  int
	Distance int
	// TrainHits is how many consecutive same-direction accesses make a
	// stream active.
	TrainHits int
}

// DefaultStreamConfig mirrors Table 1.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{Streams: 32, Distance: 32, TrainHits: 2}
}

type streamEntry struct {
	valid    bool
	lastLine uint64
	dir      int64
	conf     int
	ahead    uint64 // furthest line prefetched (distance control)
	lru      uint64
}

// Stream is a per-core stride-1 stream prefetcher in the style of the IBM
// POWER4 prefetch engine.
type Stream struct {
	cfg     StreamConfig
	entries []streamEntry
	tick    uint64
}

// NewStream builds a stream prefetcher.
func NewStream(cfg StreamConfig) *Stream {
	return &Stream{cfg: cfg, entries: make([]streamEntry, cfg.Streams)}
}

// Name returns "stream".
func (s *Stream) Name() string { return "stream" }

// Train implements Prefetcher.
func (s *Stream) Train(ev Event) []uint64 {
	if !ev.Miss {
		return nil
	}
	s.tick++
	l := ev.LineAddr
	// Find a stream this access extends (within 1 line of the last access,
	// same direction).
	for i := range s.entries {
		e := &s.entries[i]
		if !e.valid {
			continue
		}
		d := int64(l) - int64(e.lastLine)
		if d == 0 {
			e.lru = s.tick
			return nil
		}
		if (d == e.dir) || (e.conf == 0 && (d == 1 || d == -1)) {
			if e.conf == 0 {
				e.dir = d
			}
			e.conf++
			e.lastLine = l
			e.lru = s.tick
			if e.conf < s.cfg.TrainHits {
				return nil
			}
			// Active: propose lines ahead of the access, up to Distance
			// beyond the current position.
			var out []uint64
			limit := int64(l) + e.dir*int64(s.cfg.Distance)
			next := int64(e.ahead)
			if e.dir > 0 && next <= int64(l) || e.dir < 0 && next >= int64(l) || e.ahead == 0 {
				next = int64(l) + e.dir
			}
			for ; (e.dir > 0 && next <= limit) || (e.dir < 0 && next >= limit); next += e.dir {
				if next < 0 {
					break
				}
				out = append(out, uint64(next))
			}
			if len(out) > 0 {
				e.ahead = out[len(out)-1]
			}
			return out
		}
	}
	// Allocate a new stream over the LRU entry.
	victim := 0
	for i := range s.entries {
		if !s.entries[i].valid {
			victim = i
			break
		}
		if s.entries[i].lru < s.entries[victim].lru {
			victim = i
		}
	}
	s.entries[victim] = streamEntry{valid: true, lastLine: l, lru: s.tick}
	return nil
}

// --- Markov prefetcher ------------------------------------------------------

// MarkovConfig sizes the Markov prefetcher (Table 1: 1 MB correlation table,
// 4 addresses per entry).
type MarkovConfig struct {
	// Entries is the number of correlation-table entries. 1 MB at ~32 bytes
	// per entry (tag + 4 successors) is 32Ki entries.
	Entries    int
	Successors int
}

// DefaultMarkovConfig mirrors Table 1.
func DefaultMarkovConfig() MarkovConfig {
	return MarkovConfig{Entries: 32768, Successors: 4}
}

type markovEntry struct {
	succ []uint64 // most recent first
}

// Markov is a correlation prefetcher: it records which miss addresses
// historically followed each miss address and prefetches the recorded
// successors.
type Markov struct {
	cfg   MarkovConfig
	table map[uint64]*markovEntry
	order []uint64 // FIFO of keys for bounded eviction
	prev  uint64
	has   bool
}

// NewMarkov builds a Markov prefetcher. The table grows on demand: a short
// run touches a few hundred entries, and FIFO eviction in Train bounds it at
// cfg.Entries.
func NewMarkov(cfg MarkovConfig) *Markov {
	return &Markov{cfg: cfg, table: map[uint64]*markovEntry{}}
}

// Name returns "markov".
func (m *Markov) Name() string { return "markov" }

// Train implements Prefetcher.
func (m *Markov) Train(ev Event) []uint64 {
	if !ev.Miss {
		return nil
	}
	cur := ev.LineAddr
	if m.has {
		e := m.table[m.prev]
		if e == nil {
			if len(m.table) >= m.cfg.Entries {
				// FIFO eviction keeps the table bounded and deterministic.
				old := m.order[0]
				m.order = m.order[1:]
				delete(m.table, old)
			}
			e = &markovEntry{}
			m.table[m.prev] = e
			m.order = append(m.order, m.prev)
		}
		// Move-to-front insert of cur, capped at Successors.
		ns := make([]uint64, 0, m.cfg.Successors)
		ns = append(ns, cur)
		for _, s := range e.succ {
			if s != cur && len(ns) < m.cfg.Successors {
				ns = append(ns, s)
			}
		}
		e.succ = ns
	}
	m.prev = cur
	m.has = true
	if e := m.table[cur]; e != nil {
		return append([]uint64(nil), e.succ...)
	}
	return nil
}

// --- GHB G/DC prefetcher ----------------------------------------------------

// GHBConfig sizes the global history buffer (Table 1: 1k entries, 12 KB).
type GHBConfig struct {
	Entries int
	// Lookahead bounds how many deltas are replayed per trigger.
	Lookahead int
}

// DefaultGHBConfig mirrors Table 1.
func DefaultGHBConfig() GHBConfig { return GHBConfig{Entries: 1024, Lookahead: 32} }

// GHB is a global-history-buffer prefetcher using global delta correlation
// (G/DC): it indexes the history by the last two address deltas and replays
// the delta sequence that followed the previous occurrence.
type GHB struct {
	cfg   GHBConfig
	buf   []uint64            // line addresses, logical append-only
	head  uint64              // total pushes
	index map[[2]int64]uint64 // delta pair -> absolute position of its occurrence
}

// NewGHB builds a GHB G/DC prefetcher.
func NewGHB(cfg GHBConfig) *GHB {
	return &GHB{cfg: cfg, buf: make([]uint64, cfg.Entries), index: make(map[[2]int64]uint64)}
}

// Name returns "ghb".
func (g *GHB) Name() string { return "ghb" }

func (g *GHB) at(pos uint64) uint64 { return g.buf[pos%uint64(g.cfg.Entries)] }

func (g *GHB) inWindow(pos uint64) bool {
	return pos < g.head && g.head-pos <= uint64(g.cfg.Entries)
}

// Train implements Prefetcher.
func (g *GHB) Train(ev Event) []uint64 {
	if !ev.Miss {
		return nil
	}
	cur := ev.LineAddr
	g.buf[g.head%uint64(g.cfg.Entries)] = cur
	g.head++
	if g.head < 3 {
		return nil
	}
	n := g.head - 1 // position of cur
	d1 := int64(g.at(n-1)) - int64(g.at(n-2))
	d2 := int64(cur) - int64(g.at(n-1))
	key := [2]int64{d1, d2}
	prevPos, ok := g.index[key]
	g.index[key] = n
	if !ok || !g.inWindow(prevPos) || prevPos+1 >= g.head {
		return nil
	}
	// Collect the deltas that followed the previous occurrence of this
	// delta context (inclusive of the delta ending at the current miss, so
	// a pure stride — whose previous context ends one miss back — still
	// yields its repeating delta).
	var ds []int64
	for p := prevPos + 1; p < g.head; p++ {
		if !g.inWindow(p - 1) {
			continue
		}
		ds = append(ds, int64(g.at(p))-int64(g.at(p-1)))
	}
	if len(ds) == 0 {
		return nil
	}
	// Short delta sequences (strides and 2-cycles) are extrapolated by
	// cycling; longer histories are replayed once.
	n2 := len(ds)
	if len(ds) <= 2 {
		n2 = g.cfg.Lookahead
	}
	var out []uint64
	addr := int64(cur)
	for i := 0; i < n2 && len(out) < g.cfg.Lookahead; i++ {
		addr += ds[i%len(ds)]
		if addr < 0 {
			break
		}
		out = append(out, uint64(addr))
	}
	return out
}

// --- Feedback-directed throttling -------------------------------------------

// FDPConfig parameterizes feedback-directed prefetching (Table 1: dynamic
// degree 1..32).
type FDPConfig struct {
	MinDegree, MaxDegree int
	// Interval is the number of issued prefetches between adjustments.
	Interval uint64
	// HighAccuracy and LowAccuracy are the thresholds for ramping the
	// degree up or down.
	HighAccuracy, LowAccuracy float64
}

// DefaultFDPConfig mirrors the paper's setup.
func DefaultFDPConfig() FDPConfig {
	return FDPConfig{MinDegree: 1, MaxDegree: 32, Interval: 256,
		HighAccuracy: 0.60, LowAccuracy: 0.30}
}

// FDP wraps a prefetcher and throttles its degree by measured accuracy.
// The owner reports usefulness via RecordUseful (a demand hit on a
// prefetched line).
type FDP struct {
	cfg   FDPConfig
	inner Prefetcher

	degree        int
	issuedEpoch   uint64
	usefulEpoch   uint64
	Issued        uint64
	Useful        uint64
	DegreeChanges uint64
}

// NewFDP wraps inner with feedback throttling, starting at degree 4.
func NewFDP(cfg FDPConfig, inner Prefetcher) *FDP {
	d := 4
	if d < cfg.MinDegree {
		d = cfg.MinDegree
	}
	if d > cfg.MaxDegree {
		d = cfg.MaxDegree
	}
	return &FDP{cfg: cfg, inner: inner, degree: d}
}

// Name returns the inner prefetcher's name (FDP is policy, not identity).
func (f *FDP) Name() string { return f.inner.Name() }

// Degree returns the current dynamic degree.
func (f *FDP) Degree() int { return f.degree }

// Train proposes at most Degree() prefetches from the inner prefetcher.
func (f *FDP) Train(ev Event) []uint64 {
	out := f.inner.Train(ev)
	if len(out) > f.degree {
		out = out[:f.degree]
	}
	f.Issued += uint64(len(out))
	f.issuedEpoch += uint64(len(out))
	if f.issuedEpoch >= f.cfg.Interval {
		f.adjust()
	}
	return out
}

// RecordUseful notes that a prefetched line was hit by a demand access.
func (f *FDP) RecordUseful() {
	f.Useful++
	f.usefulEpoch++
}

func (f *FDP) adjust() {
	acc := float64(f.usefulEpoch) / float64(f.issuedEpoch)
	old := f.degree
	switch {
	case acc >= f.cfg.HighAccuracy && f.degree < f.cfg.MaxDegree:
		f.degree *= 2
		if f.degree > f.cfg.MaxDegree {
			f.degree = f.cfg.MaxDegree
		}
	case acc < f.cfg.LowAccuracy && f.degree > f.cfg.MinDegree:
		f.degree /= 2
		if f.degree < f.cfg.MinDegree {
			f.degree = f.cfg.MinDegree
		}
	}
	if f.degree != old {
		f.DegreeChanges++
	}
	f.issuedEpoch = 0
	f.usefulEpoch = 0
}

// Accuracy returns lifetime useful/issued.
func (f *FDP) Accuracy() float64 {
	if f.Issued == 0 {
		return 0
	}
	return float64(f.Useful) / float64(f.Issued)
}
