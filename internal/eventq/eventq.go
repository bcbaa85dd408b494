// Package eventq implements a discrete-event simulation kernel: a future
// event list with stable FIFO tie-breaking, a simulation clock, and event
// cancellation.
//
// The slotted Q-DPM experiments use a fixed timebase, but trace generation
// and the continuous-time validation path need true event-driven
// simulation (request arrivals at real-valued times, device wakeup
// completions, timeout expiries). This kernel provides that substrate.
//
// # Implementation
//
// The future event list is an intrusive, index-tracked 4-ary min-heap over
// a pooled event arena:
//
//   - Events live in a flat arena ([]event) and are addressed by index;
//     the heap stores (time, seq, index) triples inline, so every sift
//     comparison reads the keys from the heap slice itself — no
//     dependent load into the arena per comparison, which is what made
//     heap maintenance the dominant cost of coupled-fleet simulations
//     (one kernel per group) with a few dozen standing events.
//   - Fired and canceled events return to a free list and are reused by
//     later Schedule calls, so a simulation in steady state (every handler
//     rescheduling its successor, as the continuous-time simulator does)
//     allocates nothing per event.
//   - Each event records its own heap position, which makes Cancel a true
//     O(log n) removal — no lazy deletion, no tombstones to sweep, and
//     Pending is simply the heap length.
//   - A 4-ary layout halves the tree depth of a binary heap and keeps the
//     children of a node in one cache line of the index slice; ordering is
//     by (time, seq) with seq a schedule-order counter, so simultaneous
//     events fire FIFO and the fire order is byte-for-byte the order the
//     previous container/heap kernel produced.
//   - Step fires in place: it leaves the fired event's key at the root
//     (a dead root) while the handler runs, and the handler's first
//     Schedule overwrites the root and sifts down once — one sift where
//     a pop and a push would take two. When the handler schedules
//     nothing, Step pops the dead root after it returns. Nothing ever
//     orders before the dead root (its key is the fired (time, seq),
//     the least in the heap), so no sift moves it, and since keys are
//     unique any valid heap fires the same order.
//
// Callers refer to scheduled events through Ref handles (index +
// generation). A slot's generation bumps every time it is released, so a
// stale Ref — to an event that already fired or was canceled, even if the
// slot has been reused — is detected and ignored rather than corrupting an
// unrelated event.
//
// # Ordering contract
//
// Events fire in strictly nondecreasing (time, seq) order, where seq is
// a schedule-order counter private to each kernel: of two events
// scheduled for the same instant, the one scheduled first fires first,
// regardless of heap layout. Every simulator above this package (ctsim,
// the fleet's shared-clock coupled groups, the shared-resource arbiters)
// leans on that FIFO tie-break for its bit-identical determinism
// contract (TestArenaMatchesReferenceHeap pins it against a
// container/heap reference).
//
// # Handler contract
//
// A handler may Schedule, Cancel, query Len and Pending, and call Step,
// Run or Reset. Inside a handler Len and Pending exclude the event that
// is firing, exactly as if it had been removed before the call. A nested
// Step or Run fires later events from inside the handler (the clock
// advances with them), and Reset drops every queued event. Each of the
// three first discards the dead root, so the outer Step has nothing left
// to pop when the handler returns.
//
// # Reuse contract
//
// Kernel.Reset restores a freshly constructed kernel — clock at 0, no
// queued events, counters cleared — while keeping the arena and heap
// capacity, and behavior after Reset is bit-identical to a new
// kernel's. Together with the free-list event recycling this keeps a
// worker that cycles one kernel through many replicas entirely off the
// allocator (TestResetMatchesFreshKernel, TestFreeListReuse).
package eventq

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Handler is the callback invoked when an event fires. The kernel passes
// the firing time so handlers need not consult the clock. Hot paths should
// bind handlers once (e.g. a struct field holding a method value) and pass
// the same Handler to every Schedule call; a fresh closure per call is
// correct but allocates.
type Handler func(now float64)

// Ref is a handle to a scheduled event, returned by Schedule and After.
// The zero Ref refers to no event: Cancel ignores it and Pending reports
// false, so "no outstanding event" needs no sentinel beyond Ref{}.
type Ref struct {
	slot int32  // arena index + 1; 0 = none
	gen  uint32 // arena slot generation at schedule time
}

// Valid reports whether the Ref was ever issued by Schedule (it says
// nothing about whether the event is still pending; see Kernel.Pending).
func (r Ref) Valid() bool { return r.slot != 0 }

// event is one arena slot.
type event struct {
	time    float64
	seq     uint64 // FIFO tie-breaker for equal times
	fn      Handler
	heapIdx int32  // heap position, -1 when free
	gen     uint32 // bumped on release; pairs with Ref.gen
	next    int32  // free-list link (slot+1 form)
}

// heapNode is one heap entry: the (time, seq) ordering key copied
// inline next to the arena index it stands for, so sift comparisons
// never load from the arena. The keys are immutable while queued
// (Cancel removes and re-inserts; nothing mutates a pending event's
// time), so the copies cannot go stale.
//
// The time half of the key is stored as its IEEE-754 bit pattern.
// Simulation times are never negative (Schedule rejects t < Now and
// the clock starts at 0) and never NaN/Inf, and over nonnegative
// normalized floats the bit pattern orders exactly as the value does —
// so the whole (time, seq) key compares as one 128-bit unsigned
// integer. timeKey normalizes -0.0 to +0.0 to keep that true at zero.
type heapNode struct {
	key uint64 // math.Float64bits of the event time (see timeKey)
	seq uint64
	idx int32
}

// timeKey maps a nonnegative event time to its order-preserving
// integer key.
func timeKey(t float64) uint64 {
	if t == 0 {
		return 0 // normalize -0.0
	}
	return math.Float64bits(t)
}

// nodeLessBit reports a < b by (time, seq) order — earlier first, FIFO
// on ties — as a 0/1 integer. The lexicographic compare runs as a
// 128-bit unsigned subtract (two sub-with-borrow ops) whose final
// borrow IS the result, so no flag materialization and no branch:
// heap keys look random to the branch predictor, and one mispredict
// per comparison is what made sifting dominate coupled-fleet profiles.
func nodeLessBit(a, b heapNode) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.key, b.key, borrow)
	return borrow
}

// nodeLess is nodeLessBit as a bool, for the sift paths whose
// termination tests must branch anyway.
func nodeLess(a, b heapNode) bool { return nodeLessBit(a, b) != 0 }

// minChild4 returns the index of the least of the four children
// h[c..c+3], selecting each tournament winner with mask arithmetic
// instead of a data-dependent branch (the compiler does not convert
// these to conditional moves on its own).
func minChild4(h []heapNode, c int) int {
	b0 := c + int(nodeLessBit(h[c+1], h[c]))
	b1 := c + 2 + int(nodeLessBit(h[c+3], h[c+2]))
	d := -int(nodeLessBit(h[b1], h[b0]))
	return b0 ^ ((b0 ^ b1) & d)
}

// Kernel is a discrete-event simulation executive. It is not safe for
// concurrent use; simulations that need parallelism run one Kernel per
// goroutine with split rng streams.
type Kernel struct {
	now   float64
	arena []event
	heap  []heapNode // (time, seq, arena index) ordered as a 4-ary min-heap
	free  int32      // free-list head (slot+1 form), 0 = empty
	seq   uint64
	fired uint64
	// dead marks heap[0] as the event Step is firing: its slot is
	// already released, and the handler's first Schedule reuses the
	// root in place (see Step).
	dead bool
}

// New returns a kernel with the clock at 0.
func New() *Kernel { return &Kernel{} }

// Reset returns the kernel to a freshly constructed state — clock at 0,
// no queued events, sequence and fired counters cleared — while retaining
// the event arena and heap capacity. A worker that runs many replicas
// back to back resets one kernel instead of reallocating per replica; the
// behavior after Reset is bit-identical to a new kernel's.
func (k *Kernel) Reset() {
	k.dropDead()
	for _, nd := range k.heap {
		k.release(nd.idx)
	}
	k.heap = k.heap[:0]
	k.now = 0
	k.seq = 0
	k.fired = 0
}

// Now returns the current simulation time.
func (k *Kernel) Now() float64 { return k.now }

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Len returns the number of queued events. It is O(1) and exact: Cancel
// removes events from the heap immediately, and inside a handler the
// firing event's dead root is not counted.
func (k *Kernel) Len() int {
	if k.dead {
		return len(k.heap) - 1
	}
	return len(k.heap)
}

// Pending reports whether r's event is still queued (not fired, not
// canceled). A zero Ref and a stale Ref both report false.
func (k *Kernel) Pending(r Ref) bool { return k.resolve(r) >= 0 }

// TimeOf returns the scheduled firing time of r's event, or NaN when the
// event is no longer pending.
func (k *Kernel) TimeOf(r Ref) float64 {
	idx := k.resolve(r)
	if idx < 0 {
		return math.NaN()
	}
	return k.arena[idx].time
}

// resolve maps a Ref to its arena index, or -1 when the Ref is zero,
// stale, or the event is not queued.
func (k *Kernel) resolve(r Ref) int32 {
	idx := r.slot - 1
	if idx < 0 || int(idx) >= len(k.arena) {
		return -1
	}
	e := &k.arena[idx]
	if e.gen != r.gen || e.heapIdx < 0 {
		return -1
	}
	return idx
}

// alloc takes a slot from the free list, growing the arena when empty.
func (k *Kernel) alloc() int32 {
	if k.free != 0 {
		idx := k.free - 1
		k.free = k.arena[idx].next
		return idx
	}
	k.arena = append(k.arena, event{heapIdx: -1})
	return int32(len(k.arena) - 1)
}

// release returns a slot to the free list, invalidating outstanding Refs.
func (k *Kernel) release(idx int32) {
	e := &k.arena[idx]
	e.gen++
	e.fn = nil
	e.heapIdx = -1
	e.next = k.free
	k.free = idx + 1
}

// Schedule queues fn to run at time t. Scheduling in the past (t < Now) is
// an error; scheduling exactly at Now is allowed and runs after currently
// queued events at Now (FIFO).
func (k *Kernel) Schedule(t float64, fn Handler) (Ref, error) {
	if t-t != 0 { // NaN or ±Inf: one compare instead of two classifications
		return Ref{}, fmt.Errorf("eventq: schedule time %v is not finite", t)
	}
	if t < k.now {
		return Ref{}, fmt.Errorf("eventq: schedule time %v precedes current time %v", t, k.now)
	}
	if fn == nil {
		return Ref{}, errors.New("eventq: nil handler")
	}
	idx := k.alloc()
	e := &k.arena[idx]
	e.time = t
	e.seq = k.seq
	e.fn = fn
	k.seq++
	nd := heapNode{key: timeKey(t), seq: e.seq, idx: idx}
	if k.dead {
		// First schedule from a firing handler: reuse the dead root.
		k.dead = false
		k.heap[0] = nd
		k.siftDown(0)
	} else {
		i := len(k.heap)
		k.heap = append(k.heap, nd)
		k.siftUp(i)
	}
	return Ref{slot: idx + 1, gen: k.arena[idx].gen}, nil
}

// After queues fn to run delay time units from now; delay must be >= 0.
func (k *Kernel) After(delay float64, fn Handler) (Ref, error) {
	if delay < 0 || math.IsNaN(delay) {
		return Ref{}, fmt.Errorf("eventq: negative delay %v", delay)
	}
	return k.Schedule(k.now+delay, fn)
}

// Cancel removes a pending event and recycles its slot. Canceling a zero
// Ref, an already-fired, or an already-canceled event is a harmless no-op.
func (k *Kernel) Cancel(r Ref) {
	idx := k.resolve(r)
	if idx < 0 {
		return
	}
	k.removeAt(int(k.arena[idx].heapIdx))
	k.release(idx)
}

// Step fires the earliest pending event. It returns false when the queue
// is empty.
func (k *Kernel) Step() bool {
	k.dropDead() // a Step nested in a handler
	if len(k.heap) == 0 {
		return false
	}
	idx := k.heap[0].idx
	e := &k.arena[idx]
	t, fn := e.time, e.fn
	// Release before invoking the handler so a rescheduling handler (the
	// steady-state pattern) reuses this very slot without growing the
	// arena. e is invalid past this point: the handler may grow the arena.
	// The fired key stays at the root for the handler's first Schedule to
	// overwrite; if the handler schedules nothing, it is popped after.
	k.release(idx)
	k.dead = true
	k.now = t
	k.fired++
	fn(t)
	k.dropDead()
	return true
}

// dropDead pops the dead root left by a firing handler, if any.
func (k *Kernel) dropDead() {
	if k.dead {
		k.dead = false
		k.popMin()
	}
}

// Run executes events until the queue is empty or the clock would exceed
// horizon (events after the horizon remain queued), then advances the
// clock to exactly horizon.
func (k *Kernel) Run(horizon float64) error {
	if horizon < k.now {
		return fmt.Errorf("eventq: horizon %v precedes current time %v", horizon, k.now)
	}
	k.dropDead() // a Run nested in a handler
	hkey := timeKey(horizon)
	for len(k.heap) > 0 && k.heap[0].key <= hkey {
		k.Step()
	}
	if k.now < horizon {
		k.now = horizon
	}
	return nil
}

// siftUp restores the heap property from position i toward the root.
func (k *Kernel) siftUp(i int) {
	h := k.heap
	nd := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !nodeLess(nd, h[p]) {
			break
		}
		h[i] = h[p]
		k.arena[h[i].idx].heapIdx = int32(i)
		i = p
	}
	h[i] = nd
	k.arena[nd.idx].heapIdx = int32(i)
}

// siftDown restores the heap property from position i toward the leaves.
// The common interior case (all four children present) finds the min
// child by pairwise tournament — two independent comparisons feeding a
// final — with each winner selected by a conditional move rather than a
// data-dependent branch.
func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	nd := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		var best int
		if c+4 <= n {
			best = minChild4(h, c)
		} else {
			best = c
			for j := c + 1; j < n; j++ {
				if nodeLess(h[j], h[best]) {
					best = j
				}
			}
		}
		if !nodeLess(h[best], nd) {
			break
		}
		h[i] = h[best]
		k.arena[h[i].idx].heapIdx = int32(i)
		i = best
	}
	h[i] = nd
	k.arena[nd.idx].heapIdx = int32(i)
}

// popMin removes the heap minimum using a bottom-up ("hole
// percolation") delete-min: the root hole descends along the min-child
// path without comparing against the displaced last element, which is
// then dropped into the bottom hole and sifted up — almost always zero
// steps, since it came from the bottom. That saves one comparison per
// level over the classic sift-down of the last element, which
// essentially never stops early.
func (k *Kernel) popMin() {
	h := k.heap
	n := len(h) - 1
	last := h[n]
	k.heap = h[:n]
	if n == 0 {
		return
	}
	h = k.heap
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		var best int
		if c+4 <= n {
			best = minChild4(h, c)
		} else {
			best = c
			for j := c + 1; j < n; j++ {
				if nodeLess(h[j], h[best]) {
					best = j
				}
			}
		}
		h[i] = h[best]
		k.arena[h[i].idx].heapIdx = int32(i)
		i = best
	}
	h[i] = last
	k.arena[last.idx].heapIdx = int32(i)
	k.siftUp(i)
}

// removeAt deletes the heap entry at position i, preserving order.
func (k *Kernel) removeAt(i int) {
	n := len(k.heap) - 1
	last := k.heap[n]
	k.heap = k.heap[:n]
	if i == n {
		return
	}
	k.heap[i] = last
	k.arena[last.idx].heapIdx = int32(i)
	if i > 0 && nodeLess(last, k.heap[(i-1)>>2]) {
		k.siftUp(i)
	} else {
		k.siftDown(i)
	}
}
