package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", r.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if math.Abs(r.Var()-32.0/7.0) > 1e-12 {
		t.Errorf("var = %v, want %v", r.Var(), 32.0/7.0)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("min/max = %v/%v", r.Min(), r.Max())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 || r.N() != 0 || r.CI95() != 0 {
		t.Error("empty Running should report zeros")
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(3.5)
	if r.Var() != 0 {
		t.Error("variance of one sample must be 0")
	}
	if r.Min() != 3.5 || r.Max() != 3.5 {
		t.Error("min/max of single sample wrong")
	}
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	s := rng.New(1)
	var all, a, b Running
	for i := 0; i < 1000; i++ {
		x := s.NormFloat64()*3 + 10
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() {
		t.Fatalf("merged N %d != %d", a.N(), all.N())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 {
		t.Errorf("merged mean %v != %v", a.Mean(), all.Mean())
	}
	if math.Abs(a.Var()-all.Var()) > 1e-9 {
		t.Errorf("merged var %v != %v", a.Var(), all.Var())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Error("merged min/max mismatch")
	}
}

func TestRunningMergeSingletonBitIdenticalToAdd(t *testing.T) {
	// The parallel experiment engine reduces one-sample accumulators in
	// replica order and promises bit-identical results versus the serial
	// Add loop; this pins the property down at the stats layer.
	s := rng.New(9)
	var serial, merged Running
	for i := 0; i < 500; i++ {
		x := s.NormFloat64()*2 + 1
		serial.Add(x)
		var one Running
		one.Add(x)
		merged.Merge(&one)
	}
	if serial != merged {
		t.Errorf("singleton merges diverged from serial adds:\n merged %+v\n serial %+v", merged, serial)
	}
}

func TestRunningMergeEmptyCases(t *testing.T) {
	var a, b Running
	a.Add(1)
	a.Add(3)
	before := a.Mean()
	a.Merge(&b) // merging empty is a no-op
	if a.Mean() != before || a.N() != 2 {
		t.Error("merge with empty changed accumulator")
	}
	var c Running
	c.Merge(&a) // merging into empty copies
	if c.N() != 2 || c.Mean() != before {
		t.Error("merge into empty did not copy")
	}
}

func TestRunningNumericalStability(t *testing.T) {
	// Large offset + small variance: naive sum-of-squares would lose all
	// precision here.
	var r Running
	const offset = 1e9
	for i := 0; i < 10000; i++ {
		r.Add(offset + float64(i%2)) // values 1e9 and 1e9+1
	}
	if math.Abs(r.Var()-0.25000025) > 1e-4 {
		t.Errorf("variance %v lost precision (want ~0.25)", r.Var())
	}
}

func TestWindowSlides(t *testing.T) {
	w, err := NewWindow(3)
	if err != nil {
		t.Fatal(err)
	}
	w.Add(1)
	w.Add(2)
	if w.Full() {
		t.Error("window full too early")
	}
	if w.Mean() != 1.5 {
		t.Errorf("mean %v, want 1.5", w.Mean())
	}
	w.Add(3)
	if !w.Full() || w.Mean() != 2 {
		t.Errorf("mean %v, want 2", w.Mean())
	}
	w.Add(10) // evicts 1
	if w.Mean() != 5 {
		t.Errorf("mean %v, want 5", w.Mean())
	}
	if w.N() != 3 {
		t.Errorf("N %d, want 3", w.N())
	}
}

func TestWindowEmptyAndBadCapacity(t *testing.T) {
	if _, err := NewWindow(0); err == nil {
		t.Error("NewWindow(0) accepted")
	}
	w, _ := NewWindow(4)
	if w.Mean() != 0 {
		t.Error("empty window mean must be 0")
	}
}

// Property: sliding window mean equals brute-force mean of last k values.
func TestWindowPropertyMatchesBruteForce(t *testing.T) {
	f := func(seed uint64, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		w, _ := NewWindow(capacity)
		s := rng.New(seed)
		var hist []float64
		for i := 0; i < 100; i++ {
			x := s.Float64() * 100
			w.Add(x)
			hist = append(hist, x)
			lo := len(hist) - capacity
			if lo < 0 {
				lo = 0
			}
			want := Mean(hist[lo:])
			if math.Abs(w.Mean()-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	} {
		got, err := Quantile(xs, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("negative q accepted")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Error("q>1 accepted")
	}
}

func TestQuantileSingle(t *testing.T) {
	got, err := Quantile([]float64{7}, 0.99)
	if err != nil || got != 7 {
		t.Errorf("Quantile singleton = %v, %v", got, err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean([1,2,3]) != 2")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "test"
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(10-i))
	}
	if s.Len() != 10 {
		t.Fatalf("len %d", s.Len())
	}
	if s.YMin() != 1 || s.YMax() != 10 {
		t.Errorf("ymin/ymax = %v/%v", s.YMin(), s.YMax())
	}
	// Last 20% of ys = {2, 1}; mean 1.5.
	if tm := s.TailMean(0.2); math.Abs(tm-1.5) > 1e-12 {
		t.Errorf("TailMean(0.2) = %v, want 1.5", tm)
	}
	if tm := s.TailMean(1); math.Abs(tm-5.5) > 1e-12 {
		t.Errorf("TailMean(1) = %v, want 5.5", tm)
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.YMin() != 0 || s.YMax() != 0 || s.TailMean(0.5) != 0 {
		t.Error("empty series should report zeros")
	}
}

// Property: Running mean always lies within [min, max].
func TestRunningPropertyMeanBounded(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		var r Running
		for i := 0; i < 50; i++ {
			r.Add(s.NormFloat64() * 100)
		}
		return r.Mean() >= r.Min()-1e-9 && r.Mean() <= r.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
