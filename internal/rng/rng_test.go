package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: streams with equal seeds diverged: %d != %d", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("streams with different seeds collided %d/1000 times", same)
	}
}

func TestSubStreamsDiffer(t *testing.T) {
	a := NewWithStream(7, 0)
	b := NewWithStream(7, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("sub-streams of one seed collided %d/1000 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	child := parent.Split()
	// The child must be deterministic given the parent's history.
	parent2 := New(99)
	child2 := parent2.Split()
	for i := 0; i < 100; i++ {
		if child.Uint64() != child2.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
	// Parent and child should not produce identical sequences.
	p := New(99)
	c := p.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if p.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("parent and child streams collided %d/1000 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	s := New(4)
	for i := 0; i < 100000; i++ {
		if f := s.Float64Open(); f <= 0 || f >= 1 {
			t.Fatalf("Float64Open out of (0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(6)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(8)
	const buckets = 10
	const n = 100000
	var count [buckets]int
	for i := 0; i < n; i++ {
		count[s.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range count {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates too far from %v", b, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(9)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := s.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(10)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exp mean = %v, want ~1", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(13)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", p)
	}
	if s.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
}

func TestBoolPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bool(1.5) did not panic")
		}
	}()
	New(1).Bool(1.5)
}

// Property: Uint64n(n) < n for all n > 0.
func TestUint64nPropertyBound(t *testing.T) {
	s := New(31)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return s.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = s.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = s.Float64()
	}
	_ = sink
}

// TestReseedMatchesNew: a reseeded stream is bit-identical to a fresh
// New/NewWithStream stream — the in-place reuse contract the fleet
// instance lifecycle depends on.
func TestReseedMatchesNew(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		s.Uint64() // scramble the state
	}
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		s.Reseed(seed)
		fresh := New(seed)
		for i := 0; i < 64; i++ {
			if got, want := s.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: reseeded %d != fresh %d", seed, i, got, want)
			}
		}
		s.ReseedWithStream(seed, 7)
		freshSel := NewWithStream(seed, 7)
		if s.Uint64() != freshSel.Uint64() {
			t.Fatalf("ReseedWithStream(%d, 7) diverges from NewWithStream", seed)
		}
	}
}

// TestSplitIntoMatchesSplit: SplitInto writes the same child Split would
// return and advances the parent identically.
func TestSplitIntoMatchesSplit(t *testing.T) {
	a, b := New(9), New(9)
	var child Stream
	child.Reseed(999) // pre-dirty the destination
	a.SplitInto(&child)
	ref := b.Split()
	for i := 0; i < 64; i++ {
		if child.Uint64() != ref.Uint64() {
			t.Fatalf("SplitInto child diverges from Split at draw %d", i)
		}
	}
	// Parents advanced identically.
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("parents diverge after split at draw %d", i)
		}
	}
}

// TestReseedSplitIntoAllocationFree: the reuse path performs no heap
// allocations — it is the per-instance seed derivation of the fleet
// layer's zero-allocation lifecycle.
func TestReseedSplitIntoAllocationFree(t *testing.T) {
	var root, pol, sim Stream
	seed := uint64(1)
	allocs := testing.AllocsPerRun(100, func() {
		root.Reseed(seed)
		root.SplitInto(&pol)
		root.SplitInto(&sim)
		seed++
	})
	if allocs != 0 {
		t.Fatalf("Reseed+SplitInto allocates %.1f times per instance", allocs)
	}
}
