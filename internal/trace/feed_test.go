package trace

import (
	"testing"

	"repro/internal/isa"
)

// drain reads f to its end, peeking ahead of the read position every
// stride uops; every Peek must agree with want, including across chunk
// boundaries and past the end of the stream.
func drain(t *testing.T, f *Feed, want []isa.Uop, pos, stride int) int {
	t.Helper()
	var u isa.Uop
	for ; ; pos++ {
		if stride > 0 && pos%stride == 0 {
			for _, i := range []int{0, 1, ChunkUops - 1, ChunkUops, PeekLimit - 1} {
				p, ok := f.Peek(i)
				if in := pos+i < len(want); ok != in || in && p != want[pos+i] {
					t.Fatalf("at %d: Peek(%d) = seq %d ok=%v, want in-stream=%v", pos, i, p.Seq, ok, in)
				}
			}
		}
		if !f.Next(&u) {
			break
		}
		if pos >= len(want) || u != want[pos] {
			t.Fatalf("uop %d: got seq %d, want the generator's (stream of %d)", pos, u.Seq, len(want))
		}
	}
	if pos != len(want) {
		t.Fatalf("feed ended after %d uops, want %d", pos, len(want))
	}
	return pos
}

// TestFeedIsGeneratorStream: a feed yields exactly the generator's stream
// cut at n, filled inline or by a producer, for budgets on and around
// chunk boundaries, and keeps reporting the end once reached.
func TestFeedIsGeneratorStream(t *testing.T) {
	prof := MustByName("mcf")
	for _, n := range []int{0, 1, ChunkUops - 1, ChunkUops, ChunkUops + 1, 3*ChunkUops + 7, 5000} {
		want := Generate(prof, 7, n)
		for _, produce := range []bool{false, true} {
			f := NewFeed(NewGenerator(prof, 7), uint64(n))
			if produce {
				f.Start()
			}
			drain(t, f, want, 0, 97)
			f.Stop()
			var u isa.Uop
			if f.Next(&u) {
				t.Fatalf("n=%d: Next after the end returned a uop", n)
			}
			if f.Producing() {
				t.Fatalf("n=%d: producer alive after Stop", n)
			}
		}
	}
}

// TestFeedStopResumes: stopping the producer at any point and going on
// inline, or starting a new producer, continues the same stream without
// losing or repeating a uop.
func TestFeedStopResumes(t *testing.T) {
	prof := MustByName("omnetpp")
	const n = 20 * ChunkUops / 3
	want := Generate(prof, 3, n)
	for _, cuts := range [][]int{{0}, {1, 2}, {ChunkUops}, {100, 700, 701, 1600}, {n - 1}} {
		f := NewFeed(NewGenerator(prof, 3), n)
		var u isa.Uop
		pos := 0
		for k, cut := range cuts {
			if k%2 == 0 {
				f.Start()
			}
			for ; pos < cut; pos++ {
				if !f.Next(&u) || u != want[pos] {
					t.Fatalf("cuts %v: uop %d differs", cuts, pos)
				}
			}
			f.Stop()
			if f.Producing() {
				t.Fatalf("cuts %v: producer alive after Stop", cuts)
			}
		}
		drain(t, f, want, pos, 0)
	}
}

// TestFeedReaderSource: a feed over a plain Reader that runs out before
// the budget ends when the reader does, including at an exact chunk
// boundary.
func TestFeedReaderSource(t *testing.T) {
	for _, n := range []int{0, 5, ChunkUops, 2 * ChunkUops} {
		want := Generate(MustByName("lbm"), 1, n)
		f := NewFeed(&SliceReader{Uops: want}, uint64(n)+10*ChunkUops)
		f.Start()
		drain(t, f, want, 0, 31)
		f.Stop()
	}
}

// TestFeedChunkBound: neither side ever holds more than feedChunks chunks,
// and a stopped feed keeps only chunks that still hold uops.
func TestFeedChunkBound(t *testing.T) {
	f := NewFeed(NewGenerator(MustByName("mcf"), 9), 1<<40)
	if f.made != 0 {
		t.Fatalf("NewFeed allocated %d chunks", f.made)
	}
	f.Start()
	var u isa.Uop
	for i := 0; i < 10*ChunkUops; i++ {
		f.Next(&u)
		if i%ChunkUops == 5 {
			f.Peek(PeekLimit - 1)
		}
	}
	f.Stop()
	if f.made > feedChunks {
		t.Fatalf("feed allocated %d chunks, bound %d", f.made, feedChunks)
	}
	if want := f.nHeld + len(f.full); f.made != want {
		t.Fatalf("stopped feed keeps %d chunks, %d of them hold uops", f.made, want)
	}
}
