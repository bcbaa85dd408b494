package eventq

import (
	"math"
	"sort"
	"testing"
)

func TestFiresInTimeOrder(t *testing.T) {
	k := New()
	var got []float64
	times := []float64{5, 1, 3, 2, 4}
	for _, tt := range times {
		if _, err := k.Schedule(tt, func(now float64) { got = append(got, now) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(10); err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestFIFOTieBreak(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(1.0, func(float64) { order = append(order, i) })
	}
	k.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestScheduleInPastRejected(t *testing.T) {
	k := New()
	k.Schedule(5, func(float64) {})
	k.Run(10)
	if _, err := k.Schedule(3, func(float64) {}); err == nil {
		t.Fatal("scheduling in the past accepted")
	}
}

func TestScheduleRejectsBadInput(t *testing.T) {
	k := New()
	if _, err := k.Schedule(math.NaN(), func(float64) {}); err == nil {
		t.Error("NaN time accepted")
	}
	if _, err := k.Schedule(math.Inf(1), func(float64) {}); err == nil {
		t.Error("Inf time accepted")
	}
	if _, err := k.Schedule(1, nil); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := k.After(-1, func(float64) {}); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestCancel(t *testing.T) {
	k := New()
	fired := false
	e, _ := k.Schedule(1, func(float64) { fired = true })
	if !e.Valid() || !k.Pending(e) {
		t.Fatal("scheduled event not pending")
	}
	if tt := k.TimeOf(e); tt != 1 {
		t.Fatalf("TimeOf = %v, want 1", tt)
	}
	k.Cancel(e)
	if k.Pending(e) {
		t.Fatal("canceled event still pending")
	}
	if !math.IsNaN(k.TimeOf(e)) {
		t.Fatal("TimeOf of canceled event not NaN")
	}
	k.Run(5)
	if fired {
		t.Fatal("canceled event fired")
	}
	k.Cancel(e)     // double-cancel is a no-op
	k.Cancel(Ref{}) // zero Ref is a no-op
	if k.Pending(Ref{}) {
		t.Fatal("zero Ref reported pending")
	}
}

func TestCancelOneOfMany(t *testing.T) {
	k := New()
	var got []int
	var events []Ref
	for i := 0; i < 5; i++ {
		i := i
		e, _ := k.Schedule(float64(i), func(float64) { got = append(got, i) })
		events = append(events, e)
	}
	k.Cancel(events[2])
	k.Run(10)
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestHorizonStopsExecution(t *testing.T) {
	k := New()
	fired := 0
	k.Schedule(1, func(float64) { fired++ })
	k.Schedule(9, func(float64) { fired++ })
	if err := k.Run(5); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired %d events before horizon 5, want 1", fired)
	}
	if k.Now() != 5 {
		t.Fatalf("clock at %v, want 5", k.Now())
	}
	// The remaining event still fires on a later Run.
	k.Run(10)
	if fired != 2 {
		t.Fatalf("fired %d after extended horizon, want 2", fired)
	}
}

// TestCalendarHorizonEdge: Run must fire events at exactly the horizon
// (a FIFO tie there included) and one ulp before it, leave the event one
// ulp past it queued, advance the clock to the horizon, and fire the
// leftover on a resumed Run. The name and the "heap" subtest date from
// when the test also ran a calendar-queue backing; they are kept so the
// test id stays stable.
func TestCalendarHorizonEdge(t *testing.T) {
	t.Run("heap", testRunHorizonEdge)
}

func testRunHorizonEdge(t *testing.T) {
	k := New()
	h := 100.0
	var fired []float64
	log := func(now float64) { fired = append(fired, now) }
	k.Schedule(h, log)                      // exactly at horizon
	k.Schedule(math.Nextafter(h, 200), log) // one ulp past
	k.Schedule(math.Nextafter(h, 0), log)   // one ulp before
	k.Schedule(h, log)                      // horizon tie (FIFO)
	if err := k.Run(h); err != nil {
		t.Fatal(err)
	}
	want := []float64{math.Nextafter(h, 0), h, h}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if k.Now() != h {
		t.Fatalf("clock %v after Run, want %v", k.Now(), h)
	}
	if k.Len() != 1 {
		t.Fatalf("%d events left, want the one past the horizon", k.Len())
	}
	if err := k.Run(2 * h); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 || fired[3] != math.Nextafter(h, 200) {
		t.Fatalf("past-horizon event misfired: %v", fired)
	}
}

func TestRunRejectsPastHorizon(t *testing.T) {
	k := New()
	k.Schedule(5, func(float64) {})
	k.Run(6)
	if err := k.Run(2); err == nil {
		t.Fatal("Run with past horizon accepted")
	}
}

// Len must stay exact through schedule/cancel/fire interleavings,
// including cancels of already-fired and already-canceled events — on the
// indexed heap, Cancel removes immediately, so Len is the heap length.
func TestLenCounterExact(t *testing.T) {
	k := New()
	var events []Ref
	for i := 0; i < 6; i++ {
		e, _ := k.Schedule(float64(i+1), func(float64) {})
		events = append(events, e)
	}
	if p := k.Len(); p != 6 {
		t.Fatalf("Len = %d, want 6", p)
	}
	k.Cancel(events[0])
	k.Cancel(events[3])
	k.Cancel(events[3]) // double-cancel: no-op
	if p := k.Len(); p != 4 {
		t.Fatalf("Len after cancels = %d, want 4", p)
	}
	if !k.Step() { // fires event 1 (event 0 was removed by Cancel)
		t.Fatal("Step found nothing")
	}
	if k.Now() != 2 {
		t.Fatalf("Step fired at %v, want 2 (event at 1 was canceled)", k.Now())
	}
	if p := k.Len(); p != 3 {
		t.Fatalf("Len after Step = %d, want 3", p)
	}
	k.Cancel(events[1]) // already fired: no-op
	if p := k.Len(); p != 3 {
		t.Fatalf("Len after cancel-of-fired = %d, want 3", p)
	}
	k.Run(10)
	if p := k.Len(); p != 0 {
		t.Fatalf("Len after drain = %d, want 0", p)
	}
	if k.Fired() != 4 {
		t.Fatalf("Fired = %d, want 4", k.Fired())
	}
	// Cancel-only drain leaves nothing to fire.
	e, _ := k.Schedule(20, func(float64) {})
	k.Cancel(e)
	if p := k.Len(); p != 0 {
		t.Fatalf("Len after cancel-only = %d, want 0", p)
	}
	k.Run(30)
	if k.Fired() != 4 {
		t.Fatalf("canceled event fired (Fired = %d)", k.Fired())
	}
}

func TestHandlerCanScheduleMore(t *testing.T) {
	k := New()
	count := 0
	var tick Handler
	tick = func(now float64) {
		count++
		if count < 10 {
			k.After(1, tick)
		}
	}
	k.After(1, tick)
	k.Run(100)
	if count != 10 {
		t.Fatalf("recurrent event fired %d times, want 10", count)
	}
	if k.Now() != 100 {
		t.Fatalf("clock %v, want 100", k.Now())
	}
}

func TestScheduleAtNowRunsAfterCurrentQueue(t *testing.T) {
	k := New()
	var order []string
	k.Schedule(1, func(now float64) {
		order = append(order, "a")
		k.Schedule(now, func(float64) { order = append(order, "c") })
	})
	k.Schedule(1, func(float64) { order = append(order, "b") })
	k.Run(2)
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order %v, want [a b c]", order)
	}
}

func TestFiredAndLenCounters(t *testing.T) {
	k := New()
	e1, _ := k.Schedule(1, func(float64) {})
	k.Schedule(2, func(float64) {})
	k.Schedule(3, func(float64) {})
	k.Cancel(e1)
	if p := k.Len(); p != 2 {
		t.Fatalf("Len = %d, want 2", p)
	}
	k.Run(10)
	if k.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", k.Fired())
	}
	if p := k.Len(); p != 0 {
		t.Fatalf("Len after run = %d, want 0", p)
	}
}

// Reset must return a reused kernel to a state behaviorally identical to
// a fresh one: clock 0, empty queue, seq restarted (so tie-break order of
// a re-run matches a first run), arena retained.
func TestResetMatchesFreshKernel(t *testing.T) {
	trace := func(k *Kernel) []float64 {
		var got []float64
		var rec Handler
		rec = func(now float64) {
			got = append(got, now)
			if now < 5 {
				k.After(1, rec)
			}
		}
		k.Schedule(1, rec)
		k.Schedule(1, func(now float64) { got = append(got, -now) })
		e, _ := k.Schedule(3.5, func(float64) { got = append(got, 99) })
		k.Cancel(e)
		k.Run(10)
		return got
	}
	k := New()
	first := trace(k)
	k.Reset()
	if k.Now() != 0 || k.Len() != 0 || k.Fired() != 0 {
		t.Fatalf("Reset left state: now=%v len=%d fired=%d", k.Now(), k.Len(), k.Fired())
	}
	second := trace(k)
	if len(first) != len(second) {
		t.Fatalf("re-run diverged: %v vs %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("re-run diverged at %d: %v vs %v", i, first, second)
		}
	}
	// Pending events at Reset are dropped, not fired.
	k.Reset()
	fired := false
	k.Schedule(2, func(float64) { fired = true })
	k.Reset()
	k.Run(10)
	if fired {
		t.Fatal("event scheduled before Reset fired after it")
	}

	// Reset from inside a handler drops the firing event's dead root
	// with the rest of the queue, and the kernel then runs — here
	// through a Run nested in that same handler — like a fresh one.
	k.Reset()
	var nested []float64
	k.Schedule(1, func(float64) {
		k.Reset()
		if k.Now() != 0 || k.Len() != 0 || k.Fired() != 0 {
			t.Errorf("in-handler Reset left state: now=%v len=%d fired=%d", k.Now(), k.Len(), k.Fired())
		}
		nested = trace(k)
	})
	k.Schedule(2, func(float64) { fired = true })
	if err := k.Run(10); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event queued before an in-handler Reset fired after it")
	}
	if len(nested) != len(first) {
		t.Fatalf("run after an in-handler Reset diverged: %v vs %v", nested, first)
	}
	for i := range first {
		if nested[i] != first[i] {
			t.Fatalf("run after an in-handler Reset diverged at %d: %v vs %v", i, nested, first)
		}
	}
	if k.Len() != 0 || k.Fired() != uint64(len(first)) {
		t.Fatalf("after the in-handler Reset: len=%d fired=%d, want 0 and %d", k.Len(), k.Fired(), len(first))
	}
	if k.Step() {
		t.Fatal("Step fired on a drained kernel")
	}
}

// TestHandlerReentry pins the handler contract of the in-place fire: Len
// and Pending exclude the firing event, and a Run nested in a handler
// honors its horizon even though the fired event's key still sits at the
// root.
func TestHandlerReentry(t *testing.T) {
	k := New()
	var order []float64
	log := func(now float64) { order = append(order, now) }
	var self, late Ref
	self, _ = k.Schedule(1, func(now float64) {
		order = append(order, now)
		if k.Len() != 2 || k.Pending(self) || !k.Pending(late) {
			t.Errorf("inside handler: Len %d, self pending %v, later event pending %v; want 2, false, true",
				k.Len(), k.Pending(self), k.Pending(late))
		}
		if err := k.Run(3); err != nil { // nothing due by 3
			t.Fatal(err)
		}
		if k.Now() != 3 || len(order) != 1 {
			t.Errorf("nested Run(3) fired %v, clock at %v; want nothing, 3", order[1:], k.Now())
		}
		if err := k.Run(6); err != nil { // fires the event at 5 only
			t.Fatal(err)
		}
		if k.Now() != 6 || k.Len() != 1 {
			t.Errorf("after nested Run(6): now %v, Len %d; want 6, 1", k.Now(), k.Len())
		}
		k.Schedule(7, log)
	})
	k.Schedule(5, log)
	late, _ = k.Schedule(9, log)
	if !k.Step() {
		t.Fatal("Step found nothing")
	}
	if k.Now() != 6 || k.Len() != 2 {
		t.Fatalf("after the outer Step: now %v, Len %d; want 6, 2", k.Now(), k.Len())
	}
	if err := k.Run(10); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 5, 7, 9}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}
