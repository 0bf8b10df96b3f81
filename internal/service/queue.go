package service

import "sync"

// fairQueue is the service's one job queue, popped by every worker: FIFO per
// client, round-robin across clients, so one client's burst cannot starve
// another's single job. Capacity (backpressure) is enforced by the Service,
// not here.
//
// After close, pop keeps draining whatever is queued and returns ok=false
// only once the queue is empty — graceful drain pops jobs to completion,
// hard shutdown pops them with their cancel flag already set.
type fairQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	fifos  map[string][]*Job // pending jobs per client
	ring   []string          // clients with pending work, rotation order
	rr     int               // next ring slot to serve
	n      int
	closed bool
}

func newFairQueue() *fairQueue {
	q := &fairQueue{fifos: map[string][]*Job{}}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job; it returns false when the queue is closed.
func (q *fairQueue) push(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	fifo := append(q.fifos[j.client], j)
	q.fifos[j.client] = fifo
	if len(fifo) == 1 {
		// Client had no pending work: join the rotation.
		q.ring = append(q.ring, j.client)
	}
	q.n++
	q.cond.Signal()
	return true
}

// pop blocks until a job is available (round-robin over clients) or the
// queue is closed and empty.
func (q *fairQueue) pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 {
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
	return q.popLocked(q.next()), true
}

// tryPop removes, without blocking, the first client head in rotation order
// that movable accepts — the work-stealing donor path, which skips jobs that
// cannot leave the node. ok=false means no queued head qualifies right now.
func (q *fairQueue) tryPop(movable func(*Job) bool) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for k := range q.ring {
		i := (q.next() + k) % len(q.ring)
		if movable(q.fifos[q.ring[i]][0]) {
			return q.popLocked(i), true
		}
	}
	return nil, false
}

// count is how many jobs successive tryPop(movable) calls would remove:
// each client's leading run of jobs movable accepts.
func (q *fairQueue) count(movable func(*Job) bool) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, fifo := range q.fifos {
		for _, j := range fifo {
			if !movable(j) {
				break
			}
			n++
		}
	}
	return n
}

// next is the ring slot served next; q.mu held, ring non-empty.
func (q *fairQueue) next() int {
	if q.rr >= len(q.ring) {
		q.rr = 0
	}
	return q.rr
}

// popLocked extracts the head of ring slot i; q.mu held. Removing a client
// slides the next one into its slot, so rr moves back only when the removed
// slot came before it, and moves on when its own client is served.
func (q *fairQueue) popLocked(i int) *Job {
	client := q.ring[i]
	fifo := q.fifos[client]
	j := fifo[0]
	fifo[0] = nil
	if len(fifo) == 1 {
		delete(q.fifos, client)
		q.ring = append(q.ring[:i], q.ring[i+1:]...)
		if i < q.rr {
			q.rr--
		}
	} else {
		q.fifos[client] = fifo[1:]
		if i == q.rr {
			q.rr++
		}
	}
	q.n--
	return j
}

// close wakes all waiters; see the type comment for drain semantics.
func (q *fairQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
