package sim

import (
	"errors"
	"testing"

	"repro/internal/cpu"
	"repro/internal/fault"
)

// ckptCfg is a workload long enough to yield several checkpoints at a small
// interval, with the EMC and a prefetcher on so the replayed state covers
// the full machine.
func ckptCfg() Config {
	cfg := skipCfg([]string{"mcf", "lbm", "milc", "omnetpp"}, 11)
	cfg.EMCEnabled = true
	cfg.Prefetcher = PFGHB
	return cfg
}

// TestResumeFromCheckpointDeterminism is the resume guard: a run abandoned
// mid-flight and resumed from a periodic checkpoint must produce a Result
// bit-identical to an uninterrupted run — same hash, same cycle count —
// after an encode/decode round trip of the checkpoint.
//
// The refresh-heavy variant pins the interaction the checkpoint digest is
// most exposed to: replay-to-cycle crosses many deferred refresh epochs, so
// a lazy catch-up that drifted from the eager schedule (or a skip horizon
// that ignored a due refresh) would land replay on a different digest and
// fail as ErrCheckpointDiverged.
func TestResumeFromCheckpointDeterminism(t *testing.T) {
	cases := []struct {
		name  string
		tweak func(*Config)
	}{
		{"emc-ghb", nil},
		{"refresh-heavy", func(c *Config) {
			c.Timing.TREFI = 800
			c.Timing.TRFC = 128
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := ckptCfg()
			if tc.tweak != nil {
				tc.tweak(&cfg)
			}
			resumeRoundTrip(t, cfg)
		})
	}
}

func resumeRoundTrip(t *testing.T, cfg Config) {
	want, wantCycles, _ := runHashed(t, cfg)

	// First run: emit checkpoints, then "crash" (cancel) after a few.
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sys.NewRunHandle(0, nil)
	var cps []*Checkpoint
	if err := h.EnableCheckpoints(2000, func(cp *Checkpoint) {
		cps = append(cps, cp)
		if len(cps) == 3 {
			h.Cancel()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("want simulated crash (ErrCancelled), got %v", err)
	}
	if len(cps) < 3 {
		t.Fatalf("want >=3 checkpoints before the crash, got %d", len(cps))
	}
	cp := cps[len(cps)-1]
	if cp.Cycle == 0 || cp.Retired == 0 {
		t.Fatalf("checkpoint looks empty: %+v", cp)
	}

	// Serialization round trip: what a process restart would read back.
	dec, err := DecodeCheckpoint(cp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *dec != *cp {
		t.Fatalf("decode round trip changed the checkpoint: %+v != %+v", dec, cp)
	}

	var resumedProgress int
	h2, err := ResumeFrom(cfg, dec, 500, func(Progress) { resumedProgress++ })
	if err != nil {
		t.Fatal(err)
	}
	if got := h2.System().Now(); got != cp.Cycle {
		t.Fatalf("resumed at cycle %d, checkpoint at %d", got, cp.Cycle)
	}
	res, err := h2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash() != want {
		t.Fatalf("resumed run hash %#x != uninterrupted run %#x", res.Hash(), want)
	}
	if res.Cycles != wantCycles {
		t.Fatalf("resumed run cycles %d != uninterrupted %d", res.Cycles, wantCycles)
	}
	if resumedProgress == 0 {
		t.Fatal("resumed handle never fired its progress callback")
	}
}

// TestResumeRejectsWrongConfig: a checkpoint only resumes the configuration
// it was taken from.
func TestResumeRejectsWrongConfig(t *testing.T) {
	cfg := ckptCfg()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sys.NewRunHandle(0, nil)
	for i := 0; i < 500; i++ {
		sys.Step()
	}
	cp, err := h.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Seed = 999
	if _, err := ResumeFrom(other, cp, 0, nil); err == nil {
		t.Fatal("resume accepted a checkpoint from a different config")
	}
}

// TestResumeDetectsTamperedDigest: a checkpoint whose digest does not match
// the replayed state fails with ErrCheckpointDiverged instead of silently
// resuming a wrong run.
func TestResumeDetectsTamperedDigest(t *testing.T) {
	cfg := ckptCfg()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sys.NewRunHandle(0, nil)
	for i := 0; i < 500; i++ {
		sys.Step()
	}
	cp, err := h.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cp.Digest ^= 1
	if _, err := ResumeFrom(cfg, cp, 0, nil); !errors.Is(err, ErrCheckpointDiverged) {
		t.Fatalf("want ErrCheckpointDiverged, got %v", err)
	}
}

// TestDecodeCheckpointCorruption: every corruption mode of the encoded frame
// is rejected with ErrCheckpointCorrupt.
func TestDecodeCheckpointCorruption(t *testing.T) {
	cp := &Checkpoint{Fingerprint: "emcfp1-test", Cycle: 42, Retired: 7, Digest: 0xABCD}
	good := cp.Encode()
	if _, err := DecodeCheckpoint(good); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXX"), good[4:]...),
		"truncated": good[:len(good)-6],
		"trailing":  append(append([]byte{}, good...), 0, 0),
		"flipped":   append(append([]byte{}, good[:12]...), append([]byte{good[12] ^ 0xFF}, good[13:]...)...),
		"crc":       append(append([]byte{}, good[:len(good)-1]...), good[len(good)-1]^0xFF),
		"bad version": func() []byte {
			b := append([]byte{}, good...)
			b[4] ^= 0xFF
			return b
		}(),
	}
	for name, data := range cases {
		if _, err := DecodeCheckpoint(data); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("%s: want ErrCheckpointCorrupt, got %v", name, err)
		}
	}
}

// TestUncheckpointableConfig: function-valued configs have no canonical
// identity and refuse checkpointing up front.
func TestUncheckpointableConfig(t *testing.T) {
	cfg := ckptCfg()
	cfg.CoreTweak = func(*cpu.Config) {}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sys.NewRunHandle(0, nil)
	if err := h.EnableCheckpoints(1000, func(*Checkpoint) {}); err == nil {
		t.Fatal("EnableCheckpoints accepted an unfingerprintable config")
	}
	if _, err := h.Checkpoint(); err == nil {
		t.Fatal("Checkpoint accepted an unfingerprintable config")
	}
}

// TestCycleFailpointCrashesRun: arming the sim/cycle failpoint makes a run
// panic at a cycle boundary — the hook the service's retry path and the
// chaos suite inject crashes through.
func TestCycleFailpointCrashesRun(t *testing.T) {
	p, ok := fault.Lookup("sim/cycle")
	if !ok {
		t.Fatal("sim/cycle failpoint not registered")
	}
	p.Enable(fault.Trigger{After: 50, Once: true})
	defer p.Disable()

	sys, err := New(ckptCfg())
	if err != nil {
		t.Fatal(err)
	}
	h := sys.NewRunHandle(0, nil)
	panicked := func() (v any) {
		defer func() { v = recover() }()
		_, _ = h.Run()
		return nil
	}()
	ip, ok := panicked.(*fault.InjectedPanic)
	if !ok || ip.Site != "sim/cycle" {
		t.Fatalf("want injected panic at sim/cycle, got %v", panicked)
	}

	// Disarmed, the same config runs to completion (the worker-retry story).
	p.Disable()
	sys2, err := New(ckptCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.Run(); err != nil {
		t.Fatalf("run after disarm failed: %v", err)
	}
}
