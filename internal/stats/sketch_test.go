package stats

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/rng"
)

// sketchOf builds a sketch over xs at the given accuracy.
func sketchOf(t *testing.T, alpha float64, xs []float64) *QuantileSketch {
	t.Helper()
	s, err := NewQuantileSketch(alpha)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// checkBound asserts the documented bound at level q: the estimate is
// within relative error alpha of the exact order statistic of rank
// floor(q·(n-1)), with a sliver of slack for log/pow rounding.
func checkBound(t *testing.T, s *QuantileSketch, sorted []float64, q float64) {
	t.Helper()
	got, err := s.Quantile(q)
	if err != nil {
		t.Fatal(err)
	}
	x := sorted[int(math.Floor(q*float64(len(sorted)-1)))]
	if x <= MinTracked {
		if got != 0 {
			t.Fatalf("q=%v: estimate %v for sub-resolution order statistic %v, want 0", q, got, x)
		}
		return
	}
	tol := s.RelativeAccuracy()*x + 1e-9*x
	if math.Abs(got-x) > tol {
		t.Fatalf("q=%v: estimate %v off exact order statistic %v by %v (> %v)",
			q, got, x, math.Abs(got-x), tol)
	}
}

func TestSketchValidation(t *testing.T) {
	for _, alpha := range []float64{0, -0.1, 1, 1.5, math.NaN()} {
		if _, err := NewQuantileSketch(alpha); err == nil {
			t.Errorf("accuracy %v accepted", alpha)
		}
	}
	s, err := NewQuantileSketch(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Quantile(0.5); err == nil {
		t.Error("empty sketch quantile succeeded")
	}
	s.Add(1)
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := s.Quantile(q); err == nil {
			t.Errorf("quantile level %v accepted", q)
		}
	}
}

// TestSketchErrorBoundProperty: on random heavy-tailed inputs spanning
// ten orders of magnitude, every quantile honours the documented
// relative-error bound against the exact order statistics.
func TestSketchErrorBoundProperty(t *testing.T) {
	stream := rng.New(17)
	for _, alpha := range []float64{0.05, 0.01, 0.001} {
		for trial := 0; trial < 20; trial++ {
			n := 1 + stream.Intn(3000)
			xs := make([]float64, n)
			for i := range xs {
				switch stream.Intn(4) {
				case 0:
					xs[i] = 0 // instances that served nothing
				case 1:
					xs[i] = stream.Float64() * 1e-6
				case 2:
					xs[i] = stream.Float64() * 10
				default:
					xs[i] = math.Exp(stream.Float64()*14 - 7) // log-uniform e^-7..e^7
				}
			}
			s := sketchOf(t, alpha, xs)
			sorted := append([]float64(nil), xs...)
			sortFloats(sorted)
			if got, _ := s.Quantile(0); got != sorted[0] {
				t.Fatalf("q=0 is %v, want exact min %v", got, sorted[0])
			}
			if got, _ := s.Quantile(1); got != sorted[n-1] {
				t.Fatalf("q=1 is %v, want exact max %v", got, sorted[n-1])
			}
			for _, q := range []float64{1e-6, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999} {
				checkBound(t, s, sorted, q)
			}
		}
	}
}

// TestSketchMergeBitIdenticalAnyOrder: merging shard sketches in any
// order — sequential, reversed, pairwise tree — produces bit-identical
// sketch state and quantiles, and matches the sketch built serially.
func TestSketchMergeBitIdenticalAnyOrder(t *testing.T) {
	stream := rng.New(23)
	const shards = 16
	var all []float64
	parts := make([]*QuantileSketch, shards)
	for i := range parts {
		n := 1 + stream.Intn(200)
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = math.Exp(stream.NormFloat64() * 3)
		}
		all = append(all, xs...)
		parts[i] = sketchOf(t, 0.01, xs)
	}
	serial := sketchOf(t, 0.01, all)

	fold := func(order []int) *QuantileSketch {
		m, err := NewQuantileSketch(0.01)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			m.Merge(parts[i])
		}
		return m
	}
	fwd := make([]int, shards)
	rev := make([]int, shards)
	for i := range fwd {
		fwd[i], rev[i] = i, shards-1-i
	}
	a, b := fold(fwd), fold(rev)

	// Pairwise tree.
	level := make([]*QuantileSketch, shards)
	for i := range level {
		level[i] = parts[i].Clone()
	}
	for len(level) > 1 {
		var next []*QuantileSketch
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				level[i].Merge(level[i+1])
			}
			next = append(next, level[i])
		}
		level = next
	}
	c := level[0]

	norm := func(s *QuantileSketch) *QuantileSketch {
		// Trim the counts window so differently-grown arrays compare
		// equal: state equality means equal counts per bin key.
		out := s.Clone()
		lo, hi := 0, len(out.counts)
		for lo < hi && out.counts[lo] == 0 {
			lo++
		}
		for hi > lo && out.counts[hi-1] == 0 {
			hi--
		}
		out.offset += lo
		out.counts = append([]int64(nil), out.counts[lo:hi]...)
		return out
	}
	sa := norm(a)
	for name, s := range map[string]*QuantileSketch{"reverse": b, "tree": c, "serial": serial} {
		if !reflect.DeepEqual(sa, norm(s)) {
			t.Fatalf("%s merge state differs from forward merge", name)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			qa, _ := a.Quantile(q)
			qs, _ := s.Quantile(q)
			if qa != qs {
				t.Fatalf("%s merge quantile(%v) %v != forward %v", name, q, qa, qs)
			}
		}
	}

	// Mismatched accuracies are a programming error.
	other, err := NewQuantileSketch(0.05)
	if err != nil {
		t.Fatal(err)
	}
	other.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched accuracies did not panic")
		}
	}()
	a.Merge(other)
}

// TestSketchAddSteadyStateAllocationFree: after the bin array covers the
// value range, Add performs no allocations — the property that keeps
// fleet summary accumulation off the allocator.
func TestSketchAddSteadyStateAllocationFree(t *testing.T) {
	s, err := NewQuantileSketch(0.01)
	if err != nil {
		t.Fatal(err)
	}
	stream := rng.New(5)
	for i := 0; i < 1000; i++ {
		s.Add(math.Exp(stream.NormFloat64() * 2))
	}
	vals := make([]float64, 256)
	for i := range vals {
		vals[i] = math.Exp(stream.NormFloat64() * 2)
		s.Add(vals[i]) // pre-touch so the range is covered
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		s.Add(vals[i%len(vals)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Add allocates %.1f times", allocs)
	}
}

// TestSketchResetBehavesFresh: a reset sketch refilled with new
// observations is observably bit-identical to a freshly constructed one
// over the same observations — quantiles at every level, min/max/n, and
// merge behavior — even though Reset keeps the old bin array (zeroed)
// and its key offset. This is the contract the fleet shard-summary pool
// relies on.
func TestSketchResetBehavesFresh(t *testing.T) {
	stream := rng.New(11)
	recycled, err := NewQuantileSketch(0.01)
	if err != nil {
		t.Fatal(err)
	}
	// First life: a wide value range, so the retained bin array extends
	// well past what the second life needs.
	for i := 0; i < 500; i++ {
		recycled.Add(math.Exp(stream.NormFloat64() * 4))
	}
	recycled.Reset()
	if recycled.N() != 0 || recycled.Min() != 0 || recycled.Max() != 0 {
		t.Fatalf("reset sketch not empty: n=%d min=%v max=%v", recycled.N(), recycled.Min(), recycled.Max())
	}
	second := make([]float64, 300)
	for i := range second {
		second[i] = math.Exp(stream.NormFloat64())
	}
	second[0], second[1] = 0, MinTracked // exercise the zero bin too
	fresh := sketchOf(t, 0.01, second)
	for _, x := range second {
		recycled.Add(x)
	}
	if recycled.N() != fresh.N() || recycled.Min() != fresh.Min() || recycled.Max() != fresh.Max() {
		t.Fatalf("header mismatch: recycled (n=%d min=%v max=%v) vs fresh (n=%d min=%v max=%v)",
			recycled.N(), recycled.Min(), recycled.Max(), fresh.N(), fresh.Min(), fresh.Max())
	}
	for q := 0.0; q <= 1.0; q += 0.01 {
		a, errA := recycled.Quantile(q)
		b, errB := fresh.Quantile(q)
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("q=%v: recycled %v (%v) vs fresh %v (%v)", q, a, errA, b, errB)
		}
	}
	// Merging the recycled sketch into a target matches merging the
	// fresh one — the reset sketch's wider (zeroed) bin range must not
	// change any downstream number.
	tgtA := sketchOf(t, 0.01, []float64{0.5, 2.5, 9})
	tgtB := tgtA.Clone()
	tgtA.Merge(recycled)
	tgtB.Merge(fresh)
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		a, _ := tgtA.Quantile(q)
		b, _ := tgtB.Quantile(q)
		if a != b {
			t.Fatalf("merge target q=%v: via recycled %v, via fresh %v", q, a, b)
		}
	}
}

// TestSketchCloneIndependent: Clone produces a deep copy.
func TestSketchCloneIndependent(t *testing.T) {
	s := sketchOf(t, 0.01, []float64{1, 2, 3})
	c := s.Clone()
	c.Add(1000)
	if s.N() != 3 || s.Max() != 3 {
		t.Fatalf("clone mutation leaked into original: n=%d max=%v", s.N(), s.Max())
	}
}

// sortFloats sorts test inputs ascending.
func sortFloats(xs []float64) { sort.Float64s(xs) }
