package sim

import (
	"errors"
	"sync/atomic"
)

// ErrCancelled is returned by RunHandle.Run when Cancel stopped the run
// before every core retired its budget. The Result returned alongside it
// carries the statistics collected up to the cancellation point.
var ErrCancelled = errors.New("sim: run cancelled")

// Progress is one periodic snapshot of an in-flight run, delivered to the
// RunHandle's callback on the simulation goroutine.
type Progress struct {
	// Cycles is the current simulated cycle.
	Cycles uint64
	// Retired is the total instruction count retired across cores.
	Retired uint64
	// TargetInstrs is the run's total instruction budget
	// (InstrPerCore x cores); Retired/TargetInstrs approximates completion.
	TargetInstrs uint64
	// IPC is the aggregate instructions per cycle so far.
	IPC float64
}

// ProgressFunc receives progress snapshots. It runs on the simulation
// goroutine and must not block; hand the value off if it is consumed
// elsewhere.
type ProgressFunc func(Progress)

// RunHandle runs a System with cooperative cancellation and periodic
// progress callbacks. Cancel is safe from any goroutine; everything else
// belongs to the goroutine calling Run. The handle is purely observational:
// an uncancelled handled run produces a Result bit-identical to System.Run
// (TestRunHandleDeterminism pins this).
type RunHandle struct {
	sys      *System
	interval uint64
	fn       ProgressFunc
	next     uint64
	canceled atomic.Bool
}

// defaultProgressInterval is the progress cadence in cycles when the caller
// passes 0. It matches the order of magnitude of the interval-counter log.
const defaultProgressInterval = 50_000

// NewRunHandle wraps the System for a cancellable run. fn (may be nil) is
// called every interval cycles (0 = a default cadence), with the same
// fire-on-first-cycle-at-or-after-boundary rule as the interval counter log
// — under the event-horizon scheduler whole stretches of cycles are skipped,
// so boundaries are not hit exactly.
func (s *System) NewRunHandle(interval uint64, fn ProgressFunc) *RunHandle {
	if interval == 0 {
		interval = defaultProgressInterval
	}
	return &RunHandle{sys: s, interval: interval, fn: fn}
}

// Cancel requests cooperative cancellation; the run stops at the next cycle
// boundary. Safe to call from any goroutine, before or during Run, and more
// than once.
func (h *RunHandle) Cancel() { h.canceled.Store(true) }

// Cancelled reports whether Cancel has been called.
func (h *RunHandle) Cancelled() bool { return h.canceled.Load() }

// System returns the wrapped simulator.
func (h *RunHandle) System() *System { return h.sys }

// Run simulates until every core finishes, MaxCycles is exceeded, or Cancel
// is called. On cancellation it returns the partial Result and ErrCancelled.
func (h *RunHandle) Run() (*Result, error) { return h.sys.runLoop(h) }

// snapshot builds the current Progress.
func (h *RunHandle) snapshot(s *System) Progress {
	var retired uint64
	for _, c := range s.cores {
		retired += c.Stats.Retired
	}
	p := Progress{
		Cycles:       s.now,
		Retired:      retired,
		TargetInstrs: s.cfg.InstrPerCore * uint64(len(s.cores)),
	}
	if s.now > 0 {
		p.IPC = float64(retired) / float64(s.now)
	}
	return p
}

// emit fires the progress callback and advances the interval deadline.
func (h *RunHandle) emit(s *System) {
	h.fn(h.snapshot(s))
	h.next = s.now - s.now%h.interval + h.interval
}
