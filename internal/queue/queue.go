// Package queue implements Ring, the FIFO behind every queue in the
// repository: the slotted and continuous-time request queues, the
// shared resources' wait queues, the event kernel's tick lane, and the
// sliding windows of the figure series and the adaptive-LP rate
// estimator.
package queue

import "fmt"

// minRing is the buffer size of a ring's first growth.
const minRing = 4

// Ring is a FIFO of T over a power-of-two circular buffer, so the index
// wrap is a mask. The zero value is an empty, unbounded ring. The buffer
// doubles only when a Push finds it full, so it grows to the ring's
// high-water mark and no further; Reset keeps it. After that, Push, Pop,
// Peek and Remove never allocate. Vacated slots are not cleared: a ring of
// pointers keeps what they point to reachable until the slot is reused.
type Ring[T comparable] struct {
	buf   []T // len is zero or a power of two
	head  int // index of the oldest entry
	n     int
	bound int // maximum length; 0 means unbounded
}

// Reset empties the ring and sets its bound (0 means unbounded), keeping
// the grown buffer. A negative bound panics.
func (r *Ring[T]) Reset(bound int) {
	if bound < 0 {
		panic(fmt.Sprintf("queue: negative ring bound %d", bound))
	}
	r.head, r.n, r.bound = 0, 0, bound
}

// Len returns the number of entries.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail. It returns false, leaving the ring
// unchanged, when the ring is bounded and full.
func (r *Ring[T]) Push(v T) bool {
	if r.n == r.bound && r.bound > 0 {
		return false
	}
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
	return true
}

// grow doubles the full buffer and keeps head: the entries from head to
// the old end stay in place and the wrapped ones follow them. This form
// keeps Push within the compiler's inlining budget.
func (r *Ring[T]) grow() {
	nb := make([]T, max(2*len(r.buf), minRing))
	copy(nb, r.buf)
	copy(nb[len(r.buf):], r.buf[:r.head])
	r.buf = nb
}

// Pop removes and returns the oldest entry. It panics on an empty ring:
// callers check Len.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("queue: pop from empty ring")
	}
	v := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Peek returns the oldest entry without removing it. It panics on an
// empty ring: callers check Len.
func (r *Ring[T]) Peek() T {
	if r.n == 0 {
		panic("queue: peek at empty ring")
	}
	return r.buf[r.head]
}

// Remove deletes the oldest entry equal to v, shifting the entries
// behind it one place toward the head so the order of the rest is
// kept. It reports whether v was found.
func (r *Ring[T]) Remove(v T) bool {
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		if r.buf[(r.head+i)&mask] != v {
			continue
		}
		for ; i+1 < r.n; i++ {
			r.buf[(r.head+i)&mask] = r.buf[(r.head+i+1)&mask]
		}
		r.n--
		return true
	}
	return false
}
