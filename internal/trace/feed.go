package trace

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
)

// ChunkUops is the number of uops one feed chunk holds.
const ChunkUops = 256

// feedChunks bounds the chunks one feed holds at any time: the one being
// consumed and two queued behind it. It fixes both a feed's memory (about
// 3 × 14 KB) and how far a producer runs ahead of its core.
const feedChunks = 3

// PeekLimit bounds look-ahead: Peek(i) requires i < PeekLimit, which the
// chunks queued behind the one being consumed always cover.
const PeekLimit = (feedChunks - 1) * ChunkUops

type chunk struct {
	n    int  // uops filled, ChunkUops unless last
	last bool // the stream ends after this chunk
	u    [ChunkUops]isa.Uop
}

// chunkPool recycles the chunks feeds drop, so the systems of a sweep or a
// bench repeat, run one after another, reuse one set of chunks instead of
// each leaving its own to the collector.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// Feed is a core's uop stream: a source Reader, cut after n uops, served in
// fixed-size chunks so the core reads uops out of an array instead of
// calling through a Reader chain once per uop, and so the generation can
// run ahead on another goroutine (DESIGN.md §8.5).
//
// The consumer (the goroutine calling Next and Peek) owns the chunks it
// has taken. The source and the count of uops still owed belong to the
// producer goroutine between Start and Stop, and to the consumer otherwise,
// which then fills chunks inline with the same fill function. Chunks pass
// between the two sides over two channels, full (filled chunks in stream
// order) and free (consumed chunks for reuse), whose capacity is the chunk
// bound, so a send never blocks. The stream is the source's first n uops
// whatever the mix of inline and producer fills: nothing is lost or
// repeated when a producer stops.
type Feed struct {
	// Consumer side. held[:nHeld] are the chunks taken from the stream, in
	// order; pos indexes the next uop of held[0].
	held  [feedChunks]*chunk
	nHeld int
	pos   int
	ended bool // the last chunk has been taken

	// Generator side: owned by the producer while one runs.
	src    Reader
	left   uint64 // uops still to produce
	made   int    // chunks allocated and not dropped
	filled bool   // the last chunk has been produced

	full, free chan *chunk

	running bool          // a producer was started and not yet joined
	stop    chan struct{} // closed by Stop
	done    chan struct{} // closed by the producer as it exits
	live    atomic.Bool   // the producer goroutine has not exited
}

// NewFeed returns a feed of src's first n uops, fewer if src runs out
// first. It starts no goroutine and allocates no chunk.
func NewFeed(src Reader, n uint64) *Feed {
	return &Feed{
		src:  src,
		left: n,
		// Either channel can hold every chunk the feed has, so no send blocks.
		full: make(chan *chunk, feedChunks),
		free: make(chan *chunk, feedChunks),
	}
}

// Next copies the next uop into dst, or reports false at the end of the
// stream.
//
//simlint:noalloc
func (f *Feed) Next(dst *isa.Uop) bool {
	for f.nHeld == 0 || f.pos == f.held[0].n {
		f.dropConsumed()
		if f.nHeld == 0 && !f.take() {
			return false
		}
	}
	*dst = f.held[0].u[f.pos]
	f.pos++
	return true
}

// Peek returns the i-th unconsumed uop (0 is what Next returns next)
// without consuming it, or false past the end of the stream. i must be
// below PeekLimit.
func (f *Feed) Peek(i int) (isa.Uop, bool) {
	if i < 0 || i >= PeekLimit {
		panic(fmt.Sprintf("trace: Feed.Peek(%d) outside [0, %d)", i, PeekLimit))
	}
	f.dropConsumed()
	k := f.pos + i
	for j := 0; ; j++ {
		if j == f.nHeld && !f.take() {
			return isa.Uop{}, false
		}
		c := f.held[j]
		if k < c.n {
			return c.u[k], true
		}
		k -= c.n
	}
}

// dropConsumed releases the fully consumed chunks at the head of held.
func (f *Feed) dropConsumed() {
	for f.nHeld > 0 && f.pos >= f.held[0].n {
		c := f.held[0]
		copy(f.held[:], f.held[1:f.nHeld])
		f.nHeld--
		f.held[f.nHeld] = nil
		f.pos = 0
		if f.ended {
			chunkPool.Put(c) // past the last chunk nothing is filled again
		} else {
			f.free <- c
		}
	}
}

// take appends the stream's next chunk to held, or reports false when the
// last one has been taken. With a producer running it waits for the next
// filled chunk; otherwise it takes a chunk a stopped producer left queued,
// or fills one inline.
func (f *Feed) take() bool {
	if f.ended {
		return false
	}
	if f.nHeld == feedChunks {
		panic("trace: Feed look-ahead exceeds its chunks")
	}
	var c *chunk
	if f.running || len(f.full) > 0 {
		c = <-f.full
	} else {
		c = f.fill(f.spare())
	}
	f.held[f.nHeld] = c
	f.nHeld++
	f.ended = c.last
	return true
}

// spare returns a chunk to fill: a released one, else a new one. Its
// callers keep the bound: the producer calls it only while a chunk is
// released or fewer than feedChunks exist; for an inline fill every chunk
// is held or queued, and take has checked that fewer than feedChunks are
// held with none queued on full.
func (f *Feed) spare() *chunk {
	if len(f.free) > 0 {
		return <-f.free
	}
	f.made++
	return chunkPool.Get().(*chunk) //simlint:allocok a feed takes at most feedChunks chunks per run
}

// fill fills c with the stream's next uops and marks the last chunk.
// Generator side: the producer and inline fills share it.
func (f *Feed) fill(c *chunk) *chunk {
	want := ChunkUops
	if f.left < ChunkUops {
		want = int(f.left)
	}
	n := want
	if g, ok := f.src.(*Generator); ok {
		g.Fill(c.u[:want])
	} else {
		for n = 0; n < want; n++ {
			u, ok := f.src.Next()
			if !ok {
				break
			}
			c.u[n] = u
		}
	}
	f.left -= uint64(n)
	c.n = n
	c.last = n < want || f.left == 0
	f.filled = c.last
	return c
}

// Start hands the source to a producer goroutine that fills chunks ahead
// of the consumer until the stream's last chunk, or until Stop. It does
// nothing when the last chunk is already produced or a producer runs.
// Call Start and Stop from the consumer's goroutine.
func (f *Feed) Start() {
	if f.running || f.filled {
		return
	}
	f.running = true
	f.stop = make(chan struct{})
	f.done = make(chan struct{})
	f.live.Store(true)
	go f.produce(f.stop, f.done)
}

// producerLabels tag the producers' CPU-profile samples, so that
// `go tool pprof -tagignore=goroutine=uop-producer` shows the simulation
// goroutine alone (DESIGN.md §8.4).
var producerLabels = pprof.Labels("goroutine", "uop-producer")

// produce is the producer goroutine: it fills chunks until the last one
// is queued or stop closes. With every chunk out it waits for a released
// one and sees stop through the select; its sends on full never block.
// Stop finds it there at the latest once the chunks it can still take are
// filled, since the consumer calling Stop releases none.
func (f *Feed) produce(stop <-chan struct{}, done chan<- struct{}) {
	defer func() {
		f.live.Store(false)
		close(done)
	}()
	pprof.Do(context.Background(), producerLabels, func(context.Context) {
		for !f.filled {
			var c *chunk
			if len(f.free) == 0 && f.made == feedChunks {
				select {
				case <-stop:
					return
				case c = <-f.free:
				}
			} else {
				c = f.spare()
			}
			f.full <- f.fill(c)
		}
	})
}

// Stop stops the producer Start started and waits for it to exit, which
// returns the source to the consumer's goroutine. Filled chunks stay
// queued for Next; the spare ones are dropped, so an idle feed holds only
// uops it still owes. Stop without a running producer does nothing.
func (f *Feed) Stop() {
	if !f.running {
		return
	}
	close(f.stop)
	<-f.done
	f.running = false
	for len(f.free) > 0 {
		chunkPool.Put(<-f.free)
		f.made--
	}
}

// Producing reports whether the feed's producer goroutine is still alive
// (tests check that none outlives a run).
func (f *Feed) Producing() bool { return f.live.Load() }
