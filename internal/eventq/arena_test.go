package eventq

// White-box tests for the pooled indexed heap: equivalence against a
// reference container/heap kernel under random Schedule/Cancel/fire
// interleavings, free-list reuse (steady state grows no arena), tie-break
// determinism, and stale-Ref safety across slot reuse.

import (
	"container/heap"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// refEvent / refHeap: the pre-arena future event list — a container/heap
// binary heap of boxed events with lazy cancellation — kept verbatim as
// the behavioral reference the production kernel must match.
type refEvent struct {
	time     float64
	seq      uint64
	index    int
	id       int
	canceled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// refKernel drives refHeap with the reference fire/cancel semantics.
type refKernel struct {
	h   refHeap
	seq uint64
}

func (r *refKernel) schedule(t float64, id int) *refEvent {
	e := &refEvent{time: t, seq: r.seq, id: id}
	r.seq++
	heap.Push(&r.h, e)
	return e
}

func (r *refKernel) cancel(e *refEvent) { e.canceled = true }

// fire pops the earliest non-canceled event's id, or -1 when drained.
func (r *refKernel) fire() (float64, int) {
	for r.h.Len() > 0 {
		e := heap.Pop(&r.h).(*refEvent)
		if e.canceled {
			continue
		}
		return e.time, e.id
	}
	return 0, -1
}

// TestArenaMatchesReferenceHeap drives the production kernel and the
// reference kernel through the same random interleaving of schedules,
// cancels, and fires, and requires identical fire sequences (time and
// event identity). This is the load-bearing equivalence test: it pins the
// (time, seq) total order — and therefore every downstream trajectory —
// to the pre-arena kernel's. The "heap" subtest names the backing.
func TestArenaMatchesReferenceHeap(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		once := func(seed uint64) bool { return matchesReference(400, rng.New(seed).Float64) == nil }
		if err := quick.Check(once, &quick.Config{MaxCount: 150}); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzKernelOrder runs matchesReference on interleavings decoded from the
// input: each byte b is one choice b/256 — an op, a schedule time's
// offset from now, or the live event to cancel or probe. Inputs are cut
// to 4 KiB, since the reference's bookkeeping is quadratic in the live
// events.
func FuzzKernelOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 4<<10)]
		next := func() float64 {
			if len(data) == 0 {
				return 0
			}
			v := float64(data[0]) / 256
			data = data[1:]
			return v
		}
		if err := matchesReference(len(data)/2, next); err != nil {
			t.Fatal(err)
		}
	})
}

// matchesReference runs ops steps of an interleaving of schedules,
// cancels and fires on the production kernel and the reference kernel
// alike, then drains both. next supplies each choice, a value in [0, 1).
// Every handler draws further ops from next until it draws a value below
// 0.5: schedule an event (offset 0 is a same-instant tie), cancel a live
// event, check Len, Pending and TimeOf against the reference, or fire the
// next event with a nested Step. So the kernel is judged on handlers
// that reschedule in place, schedule nothing, and reenter Step. It
// returns an error when the fire sequences (time and event identity),
// an in-handler check, or the kernel's fire count diverge.
func matchesReference(ops int, next func() float64) error {
	k := New()
	ref := &refKernel{}

	type livePair struct {
		r  Ref
		re *refEvent
	}
	var live []livePair
	var refs []Ref // by event id
	var gotT, wantT []float64
	var gotID, wantID []int
	var failed error
	fail := func(format string, args ...any) {
		if failed == nil {
			failed = fmt.Errorf(format, args...)
		}
	}
	// budget bounds the in-handler ops, so handlers that keep scheduling
	// cannot run a quick.Check stream forever.
	budget := 2*ops + 16
	depth := 0

	var schedule func(offset int)
	var fireOne func() bool
	cancel := func() { // a random live event
		i := int(next() * float64(len(live)))
		k.Cancel(live[i].r)
		ref.cancel(live[i].re)
		live = append(live[:i], live[i+1:]...)
	}
	handler := func(id int) Handler {
		return func(now float64) {
			gotT = append(gotT, now)
			gotID = append(gotID, id)
			for failed == nil && budget > 0 {
				v := next()
				if v < 0.5 {
					return
				}
				budget--
				switch {
				case v < 0.65:
					schedule(int(next() * 8))
				case v < 0.75:
					if len(live) > 0 {
						cancel()
					}
				case v < 0.85:
					if n := k.Len(); n != len(live) {
						fail("event %d: Len %d inside its handler, reference %d", id, n, len(live))
					}
					if k.Pending(refs[id]) {
						fail("event %d: pending inside its own handler", id)
					}
					if len(live) > 0 {
						p := live[int(next()*float64(len(live)))]
						if !k.Pending(p.r) || k.TimeOf(p.r) != p.re.time {
							fail("event %d: live event %d not pending at %v", id, p.re.id, p.re.time)
						}
					}
				default:
					if depth < 3 {
						depth++
						fireOne()
						depth--
					}
				}
			}
		}
	}
	schedule = func(offset int) {
		// Coarse times force heavy ties; the tie-break must match.
		tt := k.Now() + float64(offset)
		id := len(refs)
		r, err := k.Schedule(tt, handler(id))
		if err != nil {
			fail("schedule at %v: %v", tt, err)
			return
		}
		refs = append(refs, r)
		live = append(live, livePair{r: r, re: ref.schedule(tt, id)})
	}
	// fireOne fires the reference's next event, then the kernel's, and
	// reports whether there was one.
	fireOne = func() bool {
		wt, wid := ref.fire()
		if wid >= 0 {
			wantT = append(wantT, wt)
			wantID = append(wantID, wid)
			// Drop the fired event from the live set (ids are unique)
			// before its handler runs and probes the set.
			for i := range live {
				if live[i].re.id == wid {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		}
		if fired := k.Step(); (wid >= 0) != fired {
			fail("kernel fired %v, reference fired event %d", fired, wid)
		}
		return wid >= 0
	}

	for op := 0; op < ops && failed == nil; op++ {
		switch v := next(); {
		case v < 0.55:
			schedule(int(next() * 8))
		case v < 0.75 && len(live) > 0:
			cancel()
		default:
			fireOne()
		}
	}
	for failed == nil && fireOne() { // drain both
	}
	if failed != nil {
		return failed
	}
	if len(gotT) != len(wantT) || k.Fired() != uint64(len(wantT)) {
		return fmt.Errorf("kernel fired %d events (Fired %d), reference %d", len(gotT), k.Fired(), len(wantT))
	}
	for i := range gotT {
		if gotT[i] != wantT[i] || gotID[i] != wantID[i] {
			return fmt.Errorf("fire %d: event %d at %v, reference event %d at %v", i, gotID[i], gotT[i], wantID[i], wantT[i])
		}
	}
	return nil
}

// TestFreeListReuse pins the zero-allocation contract structurally: a
// handler that reschedules itself (the continuous-time steady state)
// cycles through the free list without ever growing the arena, and a
// schedule/cancel churn loop holds the arena at its high-water mark.
func TestFreeListReuse(t *testing.T) {
	k := New()
	var tick Handler
	n := 0
	tick = func(now float64) {
		n++
		if n < 10000 {
			k.After(1, tick)
		}
	}
	k.After(1, tick)
	if len(k.arena) != 1 {
		t.Fatalf("arena %d slots after first schedule, want 1", len(k.arena))
	}
	if err := k.Run(20000); err != nil {
		t.Fatal(err)
	}
	if n != 10000 {
		t.Fatalf("fired %d, want 10000", n)
	}
	if len(k.arena) != 1 {
		t.Errorf("self-rescheduling chain grew the arena to %d slots, want 1 (free-list reuse)", len(k.arena))
	}

	// Churn: 4 concurrent timers repeatedly canceled and rescheduled.
	k2 := New()
	refs := make([]Ref, 4)
	for i := range refs {
		refs[i], _ = k2.Schedule(float64(i+1), func(float64) {})
	}
	high := len(k2.arena)
	for round := 0; round < 1000; round++ {
		i := round % len(refs)
		k2.Cancel(refs[i])
		refs[i], _ = k2.Schedule(float64(round%7)+1, func(float64) {})
	}
	if len(k2.arena) != high {
		t.Errorf("cancel/reschedule churn grew the arena %d → %d slots", high, len(k2.arena))
	}

	// The steady-state loop performs no heap allocations.
	k3 := New()
	var spin Handler
	spin = func(now float64) { k3.After(1, spin) }
	k3.After(1, spin)
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			k3.Step()
		}
	})
	if avg > 0 {
		t.Errorf("steady-state schedule/fire loop allocates: %.2f allocs per 1000 events, want 0", avg)
	}
}

// TestTieBreakDeterminism: same-time events fire in schedule order, even
// when interleaved with cancels that shuffle heap positions, and
// independently of how many unrelated events came before.
func TestTieBreakDeterminism(t *testing.T) {
	t.Run("heap", testTieBreakDeterminism)
}

func testTieBreakDeterminism(t *testing.T) {
	run := func(preload int) []int {
		k := New()
		// Unrelated churn first, to displace arena slot assignment.
		var junk []Ref
		for i := 0; i < preload; i++ {
			r, _ := k.Schedule(0.25, func(float64) {})
			junk = append(junk, r)
		}
		for _, r := range junk {
			k.Cancel(r)
		}
		var order []int
		for i := 0; i < 16; i++ {
			i := i
			k.Schedule(1.0, func(float64) { order = append(order, i) })
		}
		// Cancel a few mid-pack to force removeAt re-sifts among ties.
		var extra []Ref
		for i := 0; i < 8; i++ {
			r, _ := k.Schedule(1.0, func(float64) { order = append(order, 100+i) })
			if i%2 == 0 {
				extra = append(extra, r)
			}
		}
		for _, r := range extra {
			k.Cancel(r)
		}
		k.Run(2)
		return order
	}
	want := run(0)
	for i, v := range want[:16] {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", want)
		}
	}
	for _, preload := range []int{1, 7, 33} {
		got := run(preload)
		if len(got) != len(want) {
			t.Fatalf("preload %d changed fire count: %v vs %v", preload, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("preload %d changed tie order at %d: %v vs %v", preload, i, got, want)
			}
		}
	}
}

// TestStaleRefSafety: a Ref to a fired or canceled event must stay dead
// even after its arena slot is reused — Cancel through it must not touch
// the slot's new occupant.
func TestStaleRefSafety(t *testing.T) {
	t.Run("heap", testStaleRefSafety)
}

func testStaleRefSafety(t *testing.T) {
	k := New()
	old, _ := k.Schedule(1, func(float64) {})
	k.Step() // fires; slot returns to the free list
	if k.Pending(old) {
		t.Fatal("fired event still pending")
	}
	replFired := false
	repl, _ := k.Schedule(2, func(float64) { replFired = true }) // reuses the slot
	if repl.slot != old.slot {
		t.Fatalf("expected slot reuse (old %d, new %d)", old.slot, repl.slot)
	}
	k.Cancel(old) // stale: must be a no-op
	if !k.Pending(repl) {
		t.Fatal("stale Cancel killed the slot's new occupant")
	}
	k.Run(5)
	if !replFired {
		t.Fatal("replacement event never fired")
	}

	// Same via cancel-then-reuse.
	a, _ := k.Schedule(10, func(float64) {})
	k.Cancel(a)
	bFired := false
	b, _ := k.Schedule(11, func(float64) { bFired = true })
	if b.slot != a.slot {
		t.Fatalf("expected slot reuse after cancel (old %d, new %d)", a.slot, b.slot)
	}
	k.Cancel(a) // stale again
	k.Run(20)
	if !bFired {
		t.Fatal("stale double-cancel killed the reused slot")
	}
}

// BenchmarkScheduleAndFire: one random-delay schedule + fire per op — the
// kernel's hot cycle. Steady state must be 0 allocs/op.
func BenchmarkScheduleAndFire(b *testing.B) {
	k := New()
	s := rng.New(1)
	fn := func(float64) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(k.Now()+s.Float64(), fn)
		k.Step()
	}
}

// BenchmarkKernelHold measures schedule+fire with a large standing
// population — the regime where the heap pays O(log n) with cold index
// traversals. The heap/ prefix keeps the sub-benchmark names stable
// across baselines.
func BenchmarkKernelHold(b *testing.B) {
	for _, hold := range []struct {
		name string
		n    int
	}{{"heap/1k", 1 << 10}, {"heap/64k", 1 << 16}} {
		b.Run(hold.name, func(b *testing.B) {
			k := New()
			s := rng.New(1)
			fn := func(float64) {}
			for i := 0; i < hold.n; i++ {
				k.Schedule(s.Float64(), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Schedule(k.Now()+s.Float64(), fn)
				k.Step()
			}
		})
	}
}

// BenchmarkKernelReschedule: one fire per op, each handler rescheduling
// itself at a random delay — the continuous-time simulator's tick and
// arrival chains, which the in-place root reschedule serves. The depth
// is the number of such chains, so the future event list holds that
// many events throughout: 1 is a fleet_steady instance, 24 an
// 8-device fleet_coupled_faulted group. Steady state must be 0
// allocs/op.
func BenchmarkKernelReschedule(b *testing.B) {
	for _, depth := range []int{1, 24} {
		b.Run(fmt.Sprintf("depth/%d", depth), func(b *testing.B) {
			k := New()
			s := rng.New(1)
			var fn Handler
			fn = func(now float64) { k.Schedule(now+s.Float64(), fn) }
			for i := 0; i < depth; i++ {
				k.Schedule(s.Float64(), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
		})
	}
}

// BenchmarkScheduleCancel: schedule + cancel per op over a 64-event
// standing population — the wake-timer pattern of event-driven ctsim.
func BenchmarkScheduleCancel(b *testing.B) {
	k := New()
	s := rng.New(1)
	fn := func(float64) {}
	var standing [64]Ref
	for i := range standing {
		standing[i], _ = k.Schedule(s.Float64()*100, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 63
		k.Cancel(standing[j])
		standing[j], _ = k.Schedule(k.Now()+s.Float64()*100, fn)
	}
}
