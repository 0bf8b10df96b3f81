package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	uops := Generate(MustByName("mcf"), 5, 2000)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, uops); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(uops) {
		t.Fatalf("round trip lost uops: %d vs %d", len(got), len(uops))
	}
	for i := range uops {
		if got[i] != uops[i] {
			t.Fatalf("uop %d differs:\n  in:  %+v\n  out: %+v", i, uops[i], got[i])
		}
	}
	// A round-tripped trace is still value-consistent.
	if err := Check(&SliceReader{Uops: got}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceBadInputs(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := ReadTrace(bytes.NewReader(make([]byte, 16))); err == nil {
		t.Error("bad magic should fail")
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, Generate(MustByName("gcc"), 1, 10)); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-record.
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace should fail")
	}
}

// traceHeader returns a bare 16-byte trace header claiming n uops.
func traceHeader(n uint64) []byte {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:], traceVersion)
	binary.LittleEndian.PutUint64(hdr[8:], n)
	return hdr[:]
}

// TestReadTraceOversizedCount: a header claiming 2^24 uops with no records
// behind it fails without allocating for the claimed count (it used to
// preallocate ~900 MB before reading the first record).
func TestReadTraceOversizedCount(t *testing.T) {
	in := traceHeader(1 << 24)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadTrace(bytes.NewReader(in)); err == nil {
		t.Fatal("a header with no records behind its count should fail")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Errorf("rejecting a 16-byte input allocated %d bytes", got)
	}
}

// FuzzReadTrace: every input ReadTrace accepts round-trips through
// WriteTrace to the same uops.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, Generate(MustByName("mcf"), 1, 3)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(traceHeader(0))
	f.Add(traceHeader(1 << 24))
	f.Fuzz(func(t *testing.T, in []byte) {
		uops, err := ReadTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, uops); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v", err)
		}
		if len(again) != len(uops) {
			t.Fatalf("round trip: %d uops, want %d", len(again), len(uops))
		}
		for i := range uops {
			if again[i] != uops[i] {
				t.Fatalf("uop %d differs after round trip:\n  in:  %+v\n  out: %+v", i, uops[i], again[i])
			}
		}
	})
}
