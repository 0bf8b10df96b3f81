package service

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/sim"
)

// FuzzDecodeRecord: DecodeRecord, the fabric's wire decoder, never panics on
// arbitrary bytes, reports every rejection as ErrRecordCorrupt, and accepts
// only frames that re-encode to exactly the bytes it was given.
func FuzzDecodeRecord(f *testing.F) {
	// A tiny Result keeps the seeds short. Mutated frames almost never pass
	// the CRC, so a simulated Result's JSON adds no reachable code, only
	// minutes of input minimization whenever a mutation of it finds new
	// coverage.
	good, err := EncodeRecord("emcfp1-fuzz", &sim.Result{Cycles: 9, CtrlRingMsgs: 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	for _, n := range []int{1, 4, 6, 10, 13, len(good) / 2, len(good) - 4, len(good) - 1} {
		f.Add(good[:n])
	}
	// One flipped bit in the magic, version, length, payload and CRC.
	for _, i := range []int{0, 4, 6, 10, 20, len(good) - 1} {
		b := bytes.Clone(good)
		b[i] ^= 0x10
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		key, res, err := DecodeRecord(frame)
		if err != nil {
			if !errors.Is(err, ErrRecordCorrupt) {
				t.Fatalf("rejection does not wrap ErrRecordCorrupt: %v", err)
			}
			return
		}
		again, err := EncodeRecord(key, res)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("decoded frame re-encodes differently:\n in  %q\n out %q", frame, again)
		}
	})
}
