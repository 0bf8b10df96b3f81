package span

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeDump: DecodeDump never panics on arbitrary bytes, reports every
// rejection as ErrDumpCorrupt, and accepts only frames that re-encode to
// exactly the bytes it was given. An accepted dump passes or fails Verify,
// never panics in it.
func FuzzDecodeDump(f *testing.F) {
	good, err := EncodeDump(&Dump{
		JobID: "j", Reason: "failed", WallNS: 10,
		PhasesNS: map[string]int64{"queued": 4, "running": 6},
		Events:   []DumpEvent{{AtNS: 1, Kind: "submit"}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add(append(bytes.Clone(good), 0))
	for _, n := range []int{4, 10, len(good) / 2, len(good) - 1} {
		f.Add(good[:n])
	}
	// One flipped bit in the magic, version, length, payload and CRC.
	for _, i := range []int{0, 4, 6, 20, len(good) - 1} {
		b := bytes.Clone(good)
		b[i] ^= 0x10
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		d, err := DecodeDump(frame)
		if err != nil {
			if !errors.Is(err, ErrDumpCorrupt) {
				t.Fatalf("rejection does not wrap ErrDumpCorrupt: %v", err)
			}
			return
		}
		_ = d.Verify()
		again, err := EncodeDump(d)
		if err != nil {
			t.Fatalf("decoded dump does not re-encode: %v", err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("decoded dump re-encodes differently:\n in  %q\n out %q", frame, again)
		}
	})
}
