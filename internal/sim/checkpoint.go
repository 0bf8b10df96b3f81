package sim

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
)

// Checkpoint is a crash-safe resume point for a run. The simulator is fully
// deterministic in its Config, so a checkpoint does not serialize the
// microarchitectural state — it names it: (fingerprint, cycle) identifies
// the state exactly, and ResumeFrom reconstructs it by deterministic replay.
// Digest is a divergence guard: a counter digest taken at the checkpoint
// cycle that replay must reproduce bit-exactly, so a config drift, a
// nondeterminism bug, or a corrupted checkpoint is detected instead of
// silently producing a different run (DESIGN.md §11.2).
type Checkpoint struct {
	// Fingerprint is the canonical content address of the Config
	// (Config.Fingerprint); ResumeFrom refuses a mismatched config.
	Fingerprint string `json:"fingerprint"`
	// Cycle is the simulated cycle the checkpoint was taken at (always a
	// cycle boundary: between two scheduler steps).
	Cycle uint64 `json:"cycle"`
	// Retired is the total retired-instruction count at Cycle (progress
	// reporting for resumed runs; also part of what Digest covers).
	Retired uint64 `json:"retired"`
	// Digest is the counter digest the replayed state must match.
	Digest uint64 `json:"digest"`
}

// Checkpoint encoding: magic + version + length-framed JSON payload + CRC32
// over the payload, so torn or bit-flipped checkpoint files fail loudly in
// Decode instead of resuming a wrong run.
const ckptVersion = 1

var ckptMagic = [4]byte{'E', 'M', 'C', 'K'}

// ErrCheckpointCorrupt reports an Encode frame that failed validation
// (magic, version, length, or CRC).
var ErrCheckpointCorrupt = errors.New("sim: corrupt checkpoint")

// ErrCheckpointDiverged reports a replay whose state digest did not match
// the checkpoint — the config, code, or checkpoint changed since it was
// taken.
var ErrCheckpointDiverged = errors.New("sim: checkpoint divergence")

// Encode serializes the checkpoint (versioned, CRC-guarded).
func (c *Checkpoint) Encode() []byte {
	payload, err := json.Marshal(c)
	if err != nil {
		// Checkpoint has only scalar fields; Marshal cannot fail.
		panic(err)
	}
	buf := make([]byte, 0, len(payload)+14)
	buf = append(buf, ckptMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, ckptVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return buf
}

// DecodeCheckpoint validates and decodes an Encode frame.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < 10 || [4]byte(data[:4]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCheckpointCorrupt)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != ckptVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrCheckpointCorrupt, v, ckptVersion)
	}
	n := int(binary.LittleEndian.Uint32(data[6:10]))
	if len(data) != 10+n+4 {
		return nil, fmt.Errorf("%w: length mismatch", ErrCheckpointCorrupt)
	}
	payload := data[10 : 10+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[10+n:10+n+4]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCheckpointCorrupt)
	}
	var c Checkpoint
	if err := json.Unmarshal(payload, &c); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	return &c, nil
}

// stateDigest digests every deterministic counter the run has accumulated:
// system stats, per-core stats, DRAM/EMC stats, and ring stats. Two runs of
// one config are in identical states at a given cycle iff these match —
// it is the mid-run analogue of Result.Hash.
func (s *System) stateDigest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%+v|%+v|%+v", s.now, s.skipped, s.st, s.ctrl.Stats, s.data.Stats)
	for _, c := range s.cores {
		fmt.Fprintf(h, "|%+v", c.Stats)
	}
	for _, mc := range s.mcs {
		fmt.Fprintf(h, "|%+v", mc.ctrl.Stats)
		if mc.emc != nil {
			fmt.Fprintf(h, "|%+v", mc.emc.Stats)
		}
	}
	return h.Sum64()
}

// Checkpoint captures the current cycle boundary as a resume point. It is
// legal from the progress/checkpoint callbacks (which run on the simulation
// goroutine between steps) or whenever Run is not executing. Configs without
// a canonical identity (CoreTweak/OnChain set) cannot be checkpointed.
func (h *RunHandle) Checkpoint() (*Checkpoint, error) {
	if h.fp == "" {
		fp, err := h.sys.cfg.Fingerprint()
		if err != nil {
			return nil, err
		}
		h.fp = fp
	}
	var retired uint64
	for _, c := range h.sys.cores {
		retired += c.Stats.Retired
	}
	return &Checkpoint{
		Fingerprint: h.fp,
		Cycle:       h.sys.now,
		Retired:     retired,
		Digest:      h.sys.stateDigest(),
	}, nil
}

// CheckpointFunc receives periodic checkpoints on the simulation goroutine;
// like ProgressFunc it must not block (hand the value off — typically to a
// writer that persists cp.Encode()).
type CheckpointFunc func(*Checkpoint)

// EnableCheckpoints asks the handle to emit a checkpoint every `every`
// cycles (same boundary rule as progress callbacks). Must be called before
// Run. The error reports an uncheckpointable config up front.
func (h *RunHandle) EnableCheckpoints(every uint64, fn CheckpointFunc) error {
	fp, err := h.sys.cfg.Fingerprint()
	if err != nil {
		return err
	}
	if every == 0 {
		every = defaultProgressInterval
	}
	h.fp = fp
	h.ckptEvery = every
	h.ckptNext = every
	h.ckptFn = fn
	return nil
}

// emitCheckpoint fires the checkpoint callback and advances its deadline.
func (h *RunHandle) emitCheckpoint(s *System) {
	cp, err := h.Checkpoint()
	if err == nil {
		h.ckptFn(cp)
	}
	h.ckptNext = s.now - s.now%h.ckptEvery + h.ckptEvery
}

// ResumeFrom reconstructs the run state named by cp — cfg must be the same
// configuration the checkpoint was taken from — and returns a RunHandle
// positioned at cp.Cycle; calling Run on it continues to completion and
// produces a Result bit-identical to an uninterrupted run of cfg
// (TestResumeFromCheckpointDeterminism pins this).
//
// Reconstruction is deterministic replay: the simulator re-executes to
// cp.Cycle without firing callbacks, then verifies the state digest. The
// cost is proportional to the checkpoint position; what a checkpoint buys
// is not elapsed compute but crash-safety — a killed process can pick the
// run back up unattended and is guaranteed (not assumed) to land in the
// same state, or fail loudly with ErrCheckpointDiverged.
func ResumeFrom(cfg Config, cp *Checkpoint, interval uint64, fn ProgressFunc) (*RunHandle, error) {
	fp, err := cfg.Fingerprint()
	if err != nil {
		return nil, err
	}
	if fp != cp.Fingerprint {
		return nil, fmt.Errorf("sim: checkpoint is for config %s, not %s", cp.Fingerprint, fp)
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for s.now < cp.Cycle {
		if !s.unfinished() {
			return nil, fmt.Errorf("%w: run finished at cycle %d before checkpoint cycle %d",
				ErrCheckpointDiverged, s.now, cp.Cycle)
		}
		if s.now >= cfg.MaxCycles {
			return nil, fmt.Errorf("sim: exceeded MaxCycles=%d replaying to checkpoint", cfg.MaxCycles)
		}
		s.step()
		if s.stalled {
			return nil, s.deadlockError()
		}
	}
	if s.now != cp.Cycle {
		return nil, fmt.Errorf("%w: replay landed on cycle %d, checkpoint at %d",
			ErrCheckpointDiverged, s.now, cp.Cycle)
	}
	if d := s.stateDigest(); d != cp.Digest {
		return nil, fmt.Errorf("%w: state digest %#x at cycle %d, checkpoint has %#x",
			ErrCheckpointDiverged, d, s.now, cp.Digest)
	}
	h := s.NewRunHandle(interval, fn)
	h.fp = fp
	h.next = s.now - s.now%h.interval + h.interval
	return h, nil
}
