package span

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/frame"
)

// Flight-recorder dump framing: magic + u16 version + u32 payload length +
// JSON payload + u32 CRC32(payload), little-endian. internal/frame encodes
// and decodes it for both on-disk formats, these dumps and the durable
// result cache's EMCR records. One file per dump.
const (
	DumpMagic   = "EMFR"
	DumpVersion = 1
	// DumpExt is the dump file extension (<job>-<reason>-<n>.emfr).
	DumpExt = ".emfr"
	// GoroutinesExt is appended to the dump path for the goroutine profile
	// captured alongside watchdog (hung-job) dumps.
	GoroutinesExt = ".goroutines.txt"
)

// ErrDumpCorrupt marks a dump file that failed structural validation.
var ErrDumpCorrupt = errors.New("span: flight dump corrupt")

// DumpEvent is one ring event in a dump, with the kind spelled out so the
// file is self-describing.
type DumpEvent struct {
	AtNS int64  `json:"atNs"`
	Kind string `json:"kind"`
	Arg  uint64 `json:"arg,omitempty"`
	Arg2 uint64 `json:"arg2,omitempty"`
}

// Dump is one flight-recorder snapshot: the job's identity, where its wall
// clock went (exact-sum phases), its latest simulation progress, and the
// ring of recent lifecycle events. Dumps are taken when the watchdog flags
// a hang, when a worker attempt panics (including injected failpoints), and
// when a job fails terminally — turning "seed 37 failed" into a timeline.
type Dump struct {
	JobID    string `json:"jobId"`
	Key      string `json:"key"`
	Client   string `json:"client"`
	Shard    int    `json:"shard"`  // worker lane
	Reason   string `json:"reason"` // hung | panic | failed
	State    string `json:"state"`  // job state at dump time
	Cached   bool   `json:"cached,omitempty"`
	Attempts int    `json:"attempts"`

	// Timeline, nanoseconds on the recorder's monotonic base. AdmitAt is
	// NoAdmit (-1) when the job never reached a worker. WallNS is the wall
	// clock attributed: DumpAt-SubmitAt for live jobs, FinishAt-SubmitAt for
	// terminal ones.
	SubmitAtNS int64 `json:"submitAtNs"`
	AdmitAtNS  int64 `json:"admitAtNs"`
	FinishAtNS int64 `json:"finishAtNs,omitempty"` // 0 while the job is live
	DumpAtNS   int64 `json:"dumpAtNs"`
	WallNS     int64 `json:"wallNs"`

	// PhasesNS is the exact-sum attribution: the values sum to WallNS with
	// no remainder. tracecheck -flight re-verifies this.
	PhasesNS map[string]int64 `json:"phasesNs"`

	// Latest simulation progress (zero if no attempt reported yet).
	Cycles       uint64  `json:"cycles,omitempty"`
	Retired      uint64  `json:"retired,omitempty"`
	TargetInstrs uint64  `json:"targetInstructions,omitempty"`
	IPC          float64 `json:"ipc,omitempty"`

	// Events is the ring content, oldest first; TruncatedEvents counts
	// events lost to ring wrap before the snapshot.
	Events          []DumpEvent `json:"events"`
	TruncatedEvents uint64      `json:"truncatedEvents,omitempty"`

	Error string `json:"error,omitempty"`
}

// Verify checks the dump's internal consistency: a monotonic event
// timeline, non-negative phase durations, and the exact-sum invariant
// (phases sum to WallNS). CRC integrity is the decoder's job; Verify is the
// semantic gate tracecheck -flight applies on top.
func (d *Dump) Verify() error {
	if d.JobID == "" || d.Reason == "" {
		return fmt.Errorf("dump missing jobId/reason")
	}
	if d.WallNS < 0 {
		return fmt.Errorf("negative wall clock %dns", d.WallNS)
	}
	var sum int64
	for name, v := range d.PhasesNS {
		if _, ok := phaseFromString(name); !ok {
			return fmt.Errorf("unknown phase %q", name)
		}
		if v < 0 {
			return fmt.Errorf("phase %s has negative duration %dns", name, v)
		}
		sum += v
	}
	if sum != d.WallNS {
		return fmt.Errorf("phases sum to %dns but wall clock is %dns (exact-sum violated)", sum, d.WallNS)
	}
	last := int64(-1 << 62)
	for i, ev := range d.Events {
		if _, ok := KindFromString(ev.Kind); !ok {
			return fmt.Errorf("event %d has unknown kind %q", i, ev.Kind)
		}
		if ev.AtNS < last {
			return fmt.Errorf("event %d (%s) timestamp moved backwards (%d < %d)", i, ev.Kind, ev.AtNS, last)
		}
		last = ev.AtNS
	}
	return nil
}

func phaseFromString(s string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == s {
			return Phase(i), true
		}
	}
	return 0, false
}

// EncodeDump frames d for disk.
func EncodeDump(d *Dump) ([]byte, error) {
	return frame.Encode(DumpMagic, DumpVersion, d)
}

// DecodeDump validates a frame end to end; every failure mode wraps
// ErrDumpCorrupt.
func DecodeDump(data []byte) (*Dump, error) {
	var d Dump
	if err := frame.Decode(data, DumpMagic, DumpVersion, ErrDumpCorrupt, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// WriteDumpFile atomically writes d's frame to path (frame.WriteFile: temp
// file in the same directory, fsync, rename) so a crash mid-dump never
// leaves a torn file under the real name.
func WriteDumpFile(path string, d *Dump) error {
	data, err := EncodeDump(d)
	if err != nil {
		return err
	}
	return frame.WriteFile(path, data)
}

// ReadDumpFile reads and decodes one dump file (CRC-validated; call Verify
// for the semantic checks).
func ReadDumpFile(path string) (*Dump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeDump(data)
}
