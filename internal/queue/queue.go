// Package queue implements the bounded FIFO request queue that sits
// between the service requester and the power-managed service provider,
// with exact per-request waiting-time accounting and loss counting.
package queue

import "fmt"

// Queue is a bounded FIFO of pending requests. Each entry records the slot
// the request arrived in so waiting times are exact. A capacity of 0 means
// unbounded.
type Queue struct {
	cap  int
	buf  []int64 // enqueue slots, ring buffer
	head int
	n    int

	lost      int64
	arrived   int64
	served    int64
	waitSlots int64 // cumulative waiting of served requests
}

// New returns a queue with the given capacity; capacity < 0 is an error,
// capacity == 0 means unbounded.
func New(capacity int) (*Queue, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("queue: negative capacity %d", capacity)
	}
	initial := capacity
	if initial == 0 {
		initial = 16
	}
	return &Queue{cap: capacity, buf: make([]int64, initial)}, nil
}

// Len returns the number of queued requests.
func (q *Queue) Len() int { return q.n }

// Push enqueues one request that arrived in slot `slot`. It returns false
// (and counts a loss) when the queue is full.
func (q *Queue) Push(slot int64) bool {
	q.arrived++
	if q.cap > 0 && q.n == q.cap {
		q.lost++
		return false
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = slot
	q.n++
	return true
}

func (q *Queue) grow() {
	nb := make([]int64, 2*len(q.buf))
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}

// Serve dequeues up to k requests, each completing in slot `slot`, and
// returns the number actually served. Waiting time of a request is the
// number of whole slots between arrival and service.
func (q *Queue) Serve(k int, slot int64) int {
	if k < 0 {
		panic(fmt.Sprintf("queue: negative service count %d", k))
	}
	served := 0
	for served < k && q.n > 0 {
		enq := q.buf[q.head]
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		wait := slot - enq
		if wait < 0 {
			panic(fmt.Sprintf("queue: service slot %d precedes enqueue slot %d", slot, enq))
		}
		q.waitSlots += wait
		q.served++
		served++
	}
	return served
}

// Arrived returns the number of Push calls (including lost requests).
func (q *Queue) Arrived() int64 { return q.arrived }

// Served returns the number of requests dequeued by Serve.
func (q *Queue) Served() int64 { return q.served }

// Lost returns the number of requests rejected because the queue was full.
func (q *Queue) Lost() int64 { return q.lost }

// WaitSlots returns the cumulative waiting slots of served requests.
func (q *Queue) WaitSlots() int64 { return q.waitSlots }

// MeanWait returns the average waiting time in slots of served requests.
func (q *Queue) MeanWait() float64 {
	if q.served == 0 {
		return 0
	}
	return float64(q.waitSlots) / float64(q.served)
}
