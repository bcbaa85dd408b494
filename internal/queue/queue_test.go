package queue

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// contents returns the ring's entries, oldest first.
func contents[T comparable](r *Ring[T]) []T {
	out := make([]T, r.n)
	for i := range out {
		out[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	return out
}

func TestFIFOOrderAndWaits(t *testing.T) {
	var q Ring[int64]
	q.Reset(10)
	q.Push(0)
	q.Push(1)
	q.Push(2)
	if q.Len() != 3 {
		t.Fatalf("len %d", q.Len())
	}
	// Serve two in slot 5: waits (5-0) + (5-1) = 9.
	wait := (5 - q.Pop()) + (5 - q.Pop())
	if wait != 9 {
		t.Fatalf("wait slots %d, want 9", wait)
	}
	if q.Len() != 1 {
		t.Fatalf("len after serve %d", q.Len())
	}
	if w := 6 - q.Pop(); w != 4 {
		t.Fatalf("last wait %d, want 4", w)
	}
}

func TestCapacityAndLoss(t *testing.T) {
	var q Ring[int64]
	q.Reset(2)
	if !q.Push(0) || !q.Push(0) {
		t.Fatal("pushes within capacity rejected")
	}
	if q.Push(0) {
		t.Fatal("push over capacity accepted")
	}
	if q.Len() != 2 {
		t.Fatalf("rejected push changed the length to %d", q.Len())
	}
	q.Pop()
	if !q.Push(1) {
		t.Fatal("push after drain rejected")
	}
}

func TestUnboundedGrowth(t *testing.T) {
	var q Ring[int64]
	// Wrap the head before growing, so growth moves a wrapped window.
	for i := int64(0); i < 3; i++ {
		q.Push(-1)
	}
	for i := 0; i < 3; i++ {
		q.Pop()
	}
	for i := int64(0); i < 10000; i++ {
		if !q.Push(i) {
			t.Fatal("unbounded ring rejected a push")
		}
	}
	if q.Len() != 10000 {
		t.Fatalf("len %d", q.Len())
	}
	if n := len(q.buf); n != 16384 {
		t.Fatalf("buffer %d, want 16384 (next power of two)", n)
	}
	for i := int64(0); i < 10000; i++ {
		if v := q.Pop(); v != i {
			t.Fatalf("pop %d returned %d: FIFO order lost across growth", i, v)
		}
	}
}

func TestNegativeCapacityRejected(t *testing.T) {
	var q Ring[int64]
	defer func() {
		if recover() == nil {
			t.Fatal("Reset(-1) did not panic")
		}
	}()
	q.Reset(-1)
}

func TestPopEmptyPanics(t *testing.T) {
	for name, op := range map[string]func(*Ring[int64]){
		"Pop":  func(q *Ring[int64]) { q.Pop() },
		"Peek": func(q *Ring[int64]) { q.Peek() },
	} {
		var q Ring[int64]
		q.Push(1)
		q.Pop()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty ring did not panic", name)
				}
			}()
			op(&q)
		}()
	}
}

func TestRemoveKeepsOrder(t *testing.T) {
	var q Ring[int]
	for _, v := range []int{9, 9, 9, 1, 2, 3, 2, 4} {
		q.Push(v)
	}
	for i := 0; i < 3; i++ {
		q.Pop() // wrap the live window past the buffer's end
	}
	for _, v := range []int{5, 6} {
		q.Push(v)
	}
	if !q.Remove(2) {
		t.Fatal("present entry not found")
	}
	if q.Remove(7) {
		t.Fatal("absent entry removed")
	}
	if got, want := contents(&q), []int{1, 3, 2, 4, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("after Remove(2): %v, want %v", got, want)
	}
	if !q.Remove(6) || !q.Remove(1) {
		t.Fatal("tail or head entry not found")
	}
	if got, want := contents(&q), []int{3, 2, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("after removing the ends: %v, want %v", got, want)
	}
}

// TestResetReuseDoesNotGrow: a ring reset after reaching its high-water
// mark refills to that mark without allocating.
func TestResetReuseDoesNotGrow(t *testing.T) {
	var q Ring[int64]
	fill := func() {
		q.Reset(0)
		for i := int64(0); i < 100; i++ {
			q.Push(i)
		}
		for i := 0; i < 40; i++ {
			q.Pop()
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(50, fill); allocs != 0 {
		t.Fatalf("refill after Reset allocated %v times", allocs)
	}
}

// Property: conservation — pushed = popped + rejected + backlog — and
// the ring behaves identically to a reference slice queue.
func TestConservationProperty(t *testing.T) {
	f := func(seed uint64, capRaw uint8) bool {
		capacity := int(capRaw % 8) // includes 0 = unbounded
		var q Ring[int64]
		q.Reset(capacity)
		var ref []int64
		var pushed, popped, lost int64
		s := rng.New(seed)
		for slot := int64(0); slot < 500; slot++ {
			if s.Bool(0.4) {
				pushed++
				ok := q.Push(slot)
				if capacity > 0 && len(ref) == capacity {
					lost++
					if ok {
						return false
					}
				} else {
					ref = append(ref, slot)
					if !ok {
						return false
					}
				}
			}
			if s.Bool(0.3) {
				for k := s.Intn(3); k > 0 && len(ref) > 0; k-- {
					if q.Pop() != ref[0] {
						return false
					}
					ref = ref[1:]
					popped++
				}
			}
			if q.Len() != len(ref) {
				return false
			}
		}
		return pushed == popped+lost+int64(q.Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRing drives Push/Pop/Remove/Reset sequences against a slice
// reference model. Each input byte is one operation: the low two bits
// pick it, the high six its argument (the pushed or removed value, or
// the new bound modulo 8). Values are drawn from a small range so
// Remove meets duplicates. After every operation Peek must return the
// reference's head.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0x04, 0x08, 0x0c, 0x01, 0x06, 0x0f})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q Ring[int]
		var ref []int
		bound, high := 0, 0
		for step, b := range ops {
			arg := int(b >> 2)
			switch b & 3 {
			case 0: // Push
				ok := q.Push(arg % 16)
				if want := bound == 0 || len(ref) < bound; ok != want {
					t.Fatalf("step %d: Push returned %v at len %d, bound %d", step, ok, len(ref), bound)
				}
				if ok {
					ref = append(ref, arg%16)
				}
			case 1: // Pop
				if len(ref) == 0 {
					continue
				}
				if v := q.Pop(); v != ref[0] {
					t.Fatalf("step %d: Pop returned %d, want %d", step, v, ref[0])
				}
				ref = ref[1:]
			case 2: // Remove
				i := slices.Index(ref, arg%16)
				if got := q.Remove(arg % 16); got != (i >= 0) {
					t.Fatalf("step %d: Remove(%d) returned %v", step, arg%16, got)
				}
				if i >= 0 {
					ref = slices.Delete(ref, i, i+1)
				}
			case 3: // Reset
				bound = arg % 8
				q.Reset(bound)
				ref = ref[:0]
			}
			high = max(high, len(ref))
			if got := contents(&q); !slices.Equal(got, ref) {
				t.Fatalf("step %d: ring holds %v, want %v", step, got, ref)
			}
			if len(ref) > 0 && q.Peek() != ref[0] {
				t.Fatalf("step %d: Peek returned %d, want %d", step, q.Peek(), ref[0])
			}
			if n := len(q.buf); n != 0 && (n&(n-1) != 0 || n > max(minRing, 2*high)) {
				t.Fatalf("step %d: buffer length %d at high-water mark %d", step, n, high)
			}
		}
	})
}
