package service

import (
	"testing"

	"repro/internal/sim"
)

func qjob(id, client string) *Job {
	return newJob(id, "k-"+id, client, sim.Config{}, nil)
}

// TestFairQueueRoundRobin: FIFO per client, round-robin across clients — a
// burst from one client cannot starve the others.
func TestFairQueueRoundRobin(t *testing.T) {
	q := newFairQueue()
	for _, j := range []*Job{
		qjob("a1", "alice"), qjob("a2", "alice"), qjob("a3", "alice"),
		qjob("b1", "bob"), qjob("c1", "carol"),
	} {
		if !q.push(j) {
			t.Fatalf("push %s failed", j.id)
		}
	}
	want := []string{"a1", "b1", "c1", "a2", "a3"}
	for i, w := range want {
		j, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue empty", i)
		}
		if j.id != w {
			t.Fatalf("pop %d: got %s, want %s", i, j.id, w)
		}
	}
	if j, ok := q.tryPop(func(*Job) bool { return true }); ok {
		t.Fatalf("queue should be empty, popped %s", j.id)
	}
}

// TestFairQueueDrainAfterClose: close stops intake but pop drains what is
// already queued before reporting exhaustion.
func TestFairQueueDrainAfterClose(t *testing.T) {
	q := newFairQueue()
	q.push(qjob("a1", "alice"))
	q.push(qjob("a2", "alice"))
	q.close()
	if q.push(qjob("a3", "alice")) {
		t.Fatal("push after close must fail")
	}
	for _, w := range []string{"a1", "a2"} {
		j, ok := q.pop()
		if !ok || j.id != w {
			t.Fatalf("drain: got %v/%v, want %s", j, ok, w)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on closed empty queue must report exhaustion")
	}
}

// TestFairQueuePopUnblocksOnClose: a blocked pop returns once the queue
// closes.
func TestFairQueuePopUnblocksOnClose(t *testing.T) {
	q := newFairQueue()
	done := make(chan bool)
	go func() {
		_, ok := q.pop()
		done <- ok
	}()
	q.close()
	if ok := <-done; ok {
		t.Fatal("pop should report exhaustion after close")
	}
}

// TestFairQueueInterleavedPushPop: clients joining mid-stream enter the
// rotation without disturbing FIFO order within a client.
func TestFairQueueInterleavedPushPop(t *testing.T) {
	q := newFairQueue()
	q.push(qjob("a1", "alice"))
	q.push(qjob("a2", "alice"))
	if j, _ := q.pop(); j.id != "a1" {
		t.Fatalf("got %s, want a1", j.id)
	}
	q.push(qjob("b1", "bob"))
	first, _ := q.pop()
	second, _ := q.pop()
	got := first.id + "," + second.id
	if got != "a2,b1" && got != "b1,a2" {
		t.Fatalf("expected one job each from alice and bob, got %s", got)
	}
}
