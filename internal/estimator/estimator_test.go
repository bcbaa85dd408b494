package estimator

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestWindowRateMLE(t *testing.T) {
	e, err := NewWindowRate(4)
	if err != nil {
		t.Fatal(err)
	}
	if e.Rate() != 0 {
		t.Error("fresh estimator rate != 0")
	}
	for _, a := range []int{1, 0, 1, 1} {
		e.Add(a)
	}
	if !e.Full() {
		t.Error("window should be full")
	}
	if e.Rate() != 0.75 {
		t.Errorf("rate %v, want 0.75", e.Rate())
	}
	// Slide: evict the first 1, add 0 -> 2/4.
	e.Add(0)
	if e.Rate() != 0.5 {
		t.Errorf("rate after slide %v, want 0.5", e.Rate())
	}
}

func TestWindowRateClampsCounts(t *testing.T) {
	e, _ := NewWindowRate(2)
	e.Add(5) // multi-arrival slot counts as 1
	e.Add(0)
	if e.Rate() != 0.5 {
		t.Errorf("rate %v, want 0.5", e.Rate())
	}
}

func TestWindowRateValidation(t *testing.T) {
	if _, err := NewWindowRate(0); err == nil {
		t.Error("zero window accepted")
	}
}

func TestWindowRateConvergence(t *testing.T) {
	e, _ := NewWindowRate(2000)
	s := rng.New(1)
	for i := 0; i < 10000; i++ {
		a := 0
		if s.Bool(0.3) {
			a = 1
		}
		e.Add(a)
	}
	if math.Abs(e.Rate()-0.3) > 0.04 {
		t.Errorf("window rate %v, want ~0.3", e.Rate())
	}
}

func TestCUSUMDetectsUpShift(t *testing.T) {
	c, err := NewCUSUM(0.1, 0.05, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(3)
	// In-control stretch: no alarm expected (probabilistically).
	preAlarms := 0
	for i := 0; i < 2000; i++ {
		a := 0
		if s.Bool(0.1) {
			a = 1
		}
		if c.Add(a) {
			preAlarms++
		}
	}
	// Shift to 0.6: must alarm quickly.
	fired := -1
	for i := 0; i < 500; i++ {
		a := 0
		if s.Bool(0.6) {
			a = 1
		}
		if c.Add(a) {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatal("CUSUM never fired on a 0.1->0.6 shift")
	}
	if fired > 100 {
		t.Errorf("CUSUM detection delay %d slots, want <= 100", fired)
	}
	if preAlarms > 2 {
		t.Errorf("CUSUM false-alarmed %d times in control", preAlarms)
	}
}

func TestCUSUMDetectsDownShift(t *testing.T) {
	c, _ := NewCUSUM(0.7, 0.05, 4)
	s := rng.New(4)
	for i := 0; i < 1000; i++ {
		a := 0
		if s.Bool(0.7) {
			a = 1
		}
		c.Add(a)
	}
	fired := -1
	for i := 0; i < 500; i++ {
		if c.Add(0) { // rate collapses to 0
			fired = i
			break
		}
	}
	if fired < 0 || fired > 30 {
		t.Errorf("CUSUM down-shift detection delay %d, want fast", fired)
	}
}

func TestCUSUMResetRecentres(t *testing.T) {
	c, _ := NewCUSUM(0.1, 0.05, 4)
	s := rng.New(5)
	// Shift and let it fire.
	for i := 0; i < 1000; i++ {
		a := 0
		if s.Bool(0.9) {
			a = 1
		}
		c.Add(a)
	}
	c.Reset(0.9)
	// Now 0.9 is in control: no further alarms for a while.
	alarms := 0
	for i := 0; i < 1000; i++ {
		a := 0
		if s.Bool(0.9) {
			a = 1
		}
		if c.Add(a) {
			alarms++
		}
	}
	if alarms > 1 {
		t.Errorf("CUSUM false-alarmed %d times after re-centring", alarms)
	}
}

func TestCUSUMValidation(t *testing.T) {
	if _, err := NewCUSUM(-0.1, 0.05, 4); err == nil {
		t.Error("bad reference accepted")
	}
	if _, err := NewCUSUM(0.5, -1, 4); err == nil {
		t.Error("negative slack accepted")
	}
	if _, err := NewCUSUM(0.5, 0.05, 0); err == nil {
		t.Error("zero threshold accepted")
	}
}

// mathMaxCUSUM is CUSUM.Add as written with math.Max: the reference the
// builtin-max version must match bit for bit.
type mathMaxCUSUM struct {
	ref, k, h, gPos, gNeg float64
}

func (c *mathMaxCUSUM) add(arrivals int) bool {
	v := 0.0
	if arrivals > 0 {
		v = 1
	}
	d := v - c.ref
	c.gPos = math.Max(0, c.gPos+d-c.k)
	c.gNeg = math.Max(0, c.gNeg-d-c.k)
	if c.gPos > c.h || c.gNeg > c.h {
		c.gPos, c.gNeg = 0, 0
		return true
	}
	return false
}

// TestCUSUMMatchesMathMax checks, for random valid (ref, k, h) and random
// arrival sequences, that Add fires on the same slots as the math.Max
// reference and leaves both statistics with the same bits after every
// call. The slack draws include 0 and the reference draws 0 and 1, where
// a statistic lands on zero.
func TestCUSUMMatchesMathMax(t *testing.T) {
	s := rng.New(7)
	pick := func(edges ...float64) float64 {
		if i := s.Intn(len(edges) + 2); i < len(edges) {
			return edges[i]
		}
		return s.Float64()
	}
	for trial := 0; trial < 200; trial++ {
		ref := pick(0, 1, 0.5)
		k := pick(0, 0.05) * 0.5
		h := 0.1 + s.Float64()*8
		c, err := NewCUSUM(ref, k, h)
		if err != nil {
			t.Fatal(err)
		}
		want := &mathMaxCUSUM{ref: ref, k: k, h: h}
		p := s.Float64()
		for i := 0; i < 2000; i++ {
			a := 0
			if s.Bool(p) {
				a = 1 + s.Intn(3)
			}
			got, exp := c.Add(a), want.add(a)
			if got != exp {
				t.Fatalf("ref=%v k=%v h=%v slot %d: alarm %v, math.Max reference %v", ref, k, h, i, got, exp)
			}
			if math.Float64bits(c.gPos) != math.Float64bits(want.gPos) || math.Float64bits(c.gNeg) != math.Float64bits(want.gNeg) {
				t.Fatalf("ref=%v k=%v h=%v slot %d: (gPos, gNeg) = (%v, %v), math.Max reference (%v, %v)",
					ref, k, h, i, c.gPos, c.gNeg, want.gPos, want.gNeg)
			}
		}
	}
}

func BenchmarkWindowRateAdd(b *testing.B) {
	e, _ := NewWindowRate(1000)
	for i := 0; i < b.N; i++ {
		e.Add(i & 1)
	}
}

func BenchmarkCUSUMAdd(b *testing.B) {
	c, _ := NewCUSUM(0.3, 0.05, 6)
	for i := 0; i < b.N; i++ {
		c.Add(i & 1)
	}
}
