package queue

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestFIFOOrderAndWaits(t *testing.T) {
	q, err := New(10)
	if err != nil {
		t.Fatal(err)
	}
	q.Push(0)
	q.Push(1)
	q.Push(2)
	if q.Len() != 3 {
		t.Fatalf("len %d", q.Len())
	}
	if got := q.Serve(2, 5); got != 2 {
		t.Fatalf("served %d", got)
	}
	// Waits: (5-0) + (5-1) = 9.
	if q.WaitSlots() != 9 {
		t.Fatalf("wait slots %d, want 9", q.WaitSlots())
	}
	if q.Len() != 1 {
		t.Fatalf("len after serve %d", q.Len())
	}
	q.Serve(10, 6)
	if q.WaitSlots() != 13 { // + (6-2)
		t.Fatalf("wait slots %d, want 13", q.WaitSlots())
	}
	if q.MeanWait() != 13.0/3.0 {
		t.Fatalf("mean wait %v", q.MeanWait())
	}
}

func TestCapacityAndLoss(t *testing.T) {
	q, _ := New(2)
	if !q.Push(0) || !q.Push(0) {
		t.Fatal("pushes within capacity rejected")
	}
	if q.Push(0) {
		t.Fatal("push over capacity accepted")
	}
	if q.Lost() != 1 || q.Arrived() != 3 {
		t.Fatalf("lost %d arrived %d", q.Lost(), q.Arrived())
	}
	q.Serve(1, 1)
	if !q.Push(1) {
		t.Fatal("push after drain rejected")
	}
}

func TestUnboundedGrowth(t *testing.T) {
	q, _ := New(0)
	for i := int64(0); i < 10000; i++ {
		if !q.Push(i) {
			t.Fatal("unbounded queue rejected a push")
		}
	}
	if q.Len() != 10000 || q.Lost() != 0 {
		t.Fatalf("len %d lost %d", q.Len(), q.Lost())
	}
	// FIFO preserved across growth.
	q.Serve(1, 10000)
	if q.WaitSlots() != 10000 {
		t.Fatalf("first served wait %d, want 10000", q.WaitSlots())
	}
}

func TestNegativeCapacityRejected(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestServeEmpty(t *testing.T) {
	q, _ := New(4)
	if got := q.Serve(3, 10); got != 0 {
		t.Fatalf("served %d from empty queue", got)
	}
}

func TestServeNegativePanics(t *testing.T) {
	q, _ := New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("Serve(-1) did not panic")
		}
	}()
	q.Serve(-1, 0)
}

func TestServeBeforeEnqueuePanics(t *testing.T) {
	q, _ := New(4)
	q.Push(5)
	defer func() {
		if recover() == nil {
			t.Fatal("serving before enqueue slot did not panic")
		}
	}()
	q.Serve(1, 3)
}

// Property: conservation — arrived = served + lost + backlog, and ring
// buffer behaves identically to a reference slice queue.
func TestConservationProperty(t *testing.T) {
	f := func(seed uint64, capRaw uint8) bool {
		capacity := int(capRaw % 8) // includes 0 = unbounded
		q, err := New(capacity)
		if err != nil {
			return false
		}
		var ref []int64 // reference implementation
		refLost := int64(0)
		s := rng.New(seed)
		for slot := int64(0); slot < 500; slot++ {
			if s.Bool(0.4) {
				ok := q.Push(slot)
				if capacity > 0 && len(ref) == capacity {
					refLost++
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
				k := s.Intn(3)
				got := q.Serve(k, slot)
				want := k
				if want > len(ref) {
					want = len(ref)
				}
				ref = ref[want:]
				if got != want {
					return false
				}
			}
			if q.Len() != len(ref) || q.Lost() != refLost {
				return false
			}
		}
		return q.Arrived() == q.Served()+q.Lost()+int64(q.Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
