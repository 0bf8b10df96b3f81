package sim

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeCheckpoint: DecodeCheckpoint never panics on arbitrary bytes,
// reports every rejection as ErrCheckpointCorrupt, and accepts only frames
// that re-encode to exactly the bytes it was given.
func FuzzDecodeCheckpoint(f *testing.F) {
	good := (&Checkpoint{Fingerprint: "emcfp1-fuzz", Cycle: 42, Retired: 7, Digest: 0xABCD}).Encode()
	f.Add(good)
	f.Add([]byte{})
	f.Add(append(bytes.Clone(good), 0, 0))
	for _, n := range []int{4, 10, len(good) / 2, len(good) - 1} {
		f.Add(good[:n])
	}
	// One flipped bit in the magic, version, length, payload and CRC.
	for _, i := range []int{0, 4, 6, 12, len(good) - 1} {
		b := bytes.Clone(good)
		b[i] ^= 0x10
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		cp, err := DecodeCheckpoint(frame)
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("rejection does not wrap ErrCheckpointCorrupt: %v", err)
			}
			return
		}
		if again := cp.Encode(); !bytes.Equal(again, frame) {
			t.Fatalf("decoded checkpoint re-encodes differently:\n in  %q\n out %q", frame, again)
		}
	})
}
