package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/rng"
)

func empiricalRate(t *testing.T, a Arrivals, seed uint64, n int) float64 {
	t.Helper()
	s := rng.New(seed)
	sum := 0
	for i := 0; i < n; i++ {
		c := a.Next(s)
		if c < 0 {
			t.Fatalf("%s produced negative count %d", a, c)
		}
		sum += c
	}
	return float64(sum) / float64(n)
}

func TestBernoulliRate(t *testing.T) {
	b, err := NewBernoulli(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got := empiricalRate(t, b, 1, 200000); math.Abs(got-0.3) > 0.01 {
		t.Errorf("empirical rate %v, want 0.3", got)
	}
	if b.MeanRate() != 0.3 {
		t.Errorf("MeanRate %v", b.MeanRate())
	}
}

func TestBernoulliValidation(t *testing.T) {
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := NewBernoulli(p); err == nil {
			t.Errorf("NewBernoulli(%v) accepted", p)
		}
	}
}

func TestBernoulliBinaryOutput(t *testing.T) {
	b, _ := NewBernoulli(0.5)
	s := rng.New(2)
	for i := 0; i < 1000; i++ {
		if c := b.Next(s); c != 0 && c != 1 {
			t.Fatalf("bernoulli emitted %d", c)
		}
	}
}

func TestPoissonRate(t *testing.T) {
	p, err := NewPoisson(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if got := empiricalRate(t, p, 3, 200000); math.Abs(got-0.8) > 0.02 {
		t.Errorf("empirical rate %v, want 0.8", got)
	}
}

func TestMMPPValidation(t *testing.T) {
	b, _ := NewBernoulli(0.5)
	cases := []struct {
		name   string
		phases []Arrivals
		p      [][]float64
		start  int
	}{
		{"no phases", nil, nil, 0},
		{"row count", []Arrivals{b}, [][]float64{}, 0},
		{"row length", []Arrivals{b}, [][]float64{{0.5, 0.5}}, 0},
		{"bad sum", []Arrivals{b}, [][]float64{{0.5}}, 0},
		{"negative prob", []Arrivals{b, b}, [][]float64{{1.5, -0.5}, {0, 1}}, 0},
		{"bad start", []Arrivals{b}, [][]float64{{1}}, 5},
	}
	for _, tc := range cases {
		if _, err := NewMMPP(tc.phases, tc.p, tc.start); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestMMPPMeanRate(t *testing.T) {
	hi, _ := NewBernoulli(0.9)
	lo, _ := NewBernoulli(0.1)
	// Symmetric chain: stationary distribution (0.5, 0.5), mean rate 0.5.
	m, err := NewMMPP([]Arrivals{hi, lo}, [][]float64{{0.9, 0.1}, {0.1, 0.9}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MeanRate(); math.Abs(got-0.5) > 1e-6 {
		t.Errorf("analytic mean rate %v, want 0.5", got)
	}
	if got := empiricalRate(t, m, 4, 400000); math.Abs(got-0.5) > 0.02 {
		t.Errorf("empirical mean rate %v, want 0.5", got)
	}
}

func TestMMPPBurstiness(t *testing.T) {
	// An on/off source must produce longer silent runs than a Bernoulli of
	// the same mean rate.
	oo, err := NewOnOff(0.8, 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	meanRate := oo.MeanRate()
	bern, _ := NewBernoulli(meanRate)

	longestRun := func(a Arrivals, seed uint64) int {
		s := rng.New(seed)
		run, best := 0, 0
		for i := 0; i < 100000; i++ {
			if a.Next(s) == 0 {
				run++
				if run > best {
					best = run
				}
			} else {
				run = 0
			}
		}
		return best
	}
	if lb, lo := longestRun(bern, 5), longestRun(oo, 5); lo < 2*lb {
		t.Errorf("on/off longest silent run %d not clearly burstier than bernoulli %d", lo, lb)
	}
}

func TestOnOffValidation(t *testing.T) {
	if _, err := NewOnOff(0.5, 0.5, 10); err == nil {
		t.Error("mean-on < 1 accepted")
	}
	if _, err := NewOnOff(1.5, 10, 10); err == nil {
		t.Error("pOn > 1 accepted")
	}
}

func TestPiecewiseSwitching(t *testing.T) {
	one, _ := NewBernoulli(1)
	zero, _ := NewBernoulli(0)
	p, err := NewPiecewise([]Segment{
		{Slots: 3, Proc: one},
		{Slots: 2, Proc: zero},
		{Slots: 2, Proc: one},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(6)
	var got []int
	for i := 0; i < 10; i++ {
		got = append(got, p.Next(s))
	}
	want := []int{1, 1, 1, 0, 0, 1, 1, 1, 1, 1} // last segment holds
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
	sp := p.SwitchPoints()
	if len(sp) != 2 || sp[0] != 3 || sp[1] != 5 {
		t.Fatalf("switch points %v, want [3 5]", sp)
	}
}

func TestPiecewiseValidation(t *testing.T) {
	one, _ := NewBernoulli(1)
	if _, err := NewPiecewise(nil); err == nil {
		t.Error("empty schedule accepted")
	}
	if _, err := NewPiecewise([]Segment{{Slots: 0, Proc: one}}); err == nil {
		t.Error("zero-length segment accepted")
	}
	if _, err := NewPiecewise([]Segment{{Slots: 5, Proc: nil}}); err == nil {
		t.Error("nil process accepted")
	}
}

func TestPiecewiseMeanRate(t *testing.T) {
	a, _ := NewBernoulli(0.2)
	b, _ := NewBernoulli(0.8)
	p, _ := NewPiecewise([]Segment{{Slots: 30, Proc: a}, {Slots: 10, Proc: b}})
	want := (30*0.2 + 10*0.8) / 40
	if got := p.MeanRate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("mean rate %v, want %v", got, want)
	}
}

func TestRenewalPoissonEquivalence(t *testing.T) {
	// Exponential interarrivals with mean 2 slots -> rate 0.5/slot.
	d, _ := dist.NewExponential(0.5)
	r, err := NewRenewal(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := empiricalRate(t, r, 7, 200000); math.Abs(got-0.5) > 0.01 {
		t.Errorf("renewal empirical rate %v, want 0.5", got)
	}
	if got := r.MeanRate(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("renewal MeanRate %v, want 0.5", got)
	}
}

func TestRenewalHeavyTailZeroRate(t *testing.T) {
	d, _ := dist.NewPareto(1, 0.9) // infinite mean
	r, err := NewRenewal(d)
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanRate() != 0 {
		t.Errorf("infinite-mean renewal should report rate 0, got %v", r.MeanRate())
	}
}

func TestRenewalCountConservation(t *testing.T) {
	// Total arrivals over N slots must match the count of renewal points
	// below N.
	d, _ := dist.NewExponential(0.3)
	r, _ := NewRenewal(d)
	s := rng.New(8)
	total := 0
	for i := 0; i < 10000; i++ {
		total += r.Next(s)
	}
	// Regenerate the same point process and count directly.
	s2 := rng.New(8)
	t2 := d.Sample(s2)
	direct := 0
	for t2 < 10000 {
		direct++
		t2 += d.Sample(s2)
	}
	if total != direct {
		t.Errorf("binned total %d != direct count %d", total, direct)
	}
}

func TestPlayback(t *testing.T) {
	p, err := NewPlayback([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(9)
	got := []int{p.Next(s), p.Next(s), p.Next(s), p.Next(s), p.Next(s)}
	want := []int{2, 0, 1, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("playback %v, want %v", got, want)
		}
	}
	if mr := p.MeanRate(); mr != 1 {
		t.Errorf("MeanRate %v, want 1", mr)
	}
}

func TestPlaybackValidation(t *testing.T) {
	if _, err := NewPlayback([]int{1, -1}); err == nil {
		t.Error("negative count accepted")
	}
}

func TestCloneResetsPhase(t *testing.T) {
	one, _ := NewBernoulli(1)
	zero, _ := NewBernoulli(0)
	p, _ := NewPiecewise([]Segment{{Slots: 2, Proc: one}, {Slots: 2, Proc: zero}})
	s := rng.New(11)
	for i := 0; i < 3; i++ {
		p.Next(s) // advance into segment 2
	}
	c := p.Clone()
	if got := c.Next(s); got != 1 {
		t.Fatalf("clone did not reset to first segment, got %d", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	m, _ := NewOnOff(0.9, 10, 10)
	c := m.Clone()
	s1, s2 := rng.New(12), rng.New(12)
	// Advancing the original must not affect the clone's determinism.
	for i := 0; i < 100; i++ {
		m.Next(s1)
	}
	c2 := m.Clone()
	a, b := 0, 0
	for i := 0; i < 1000; i++ {
		a += c.Next(s2)
	}
	s3 := rng.New(12)
	for i := 0; i < 1000; i++ {
		b += c2.Next(s3)
	}
	if a != b {
		t.Errorf("clones with equal streams diverged: %d vs %d", a, b)
	}
}

// Property: every process's empirical rate over many slots is close to its
// declared MeanRate.
func TestMeanRatePropertyConsistency(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		p := float64(pRaw%100) / 100
		b, err := NewBernoulli(p)
		if err != nil {
			return false
		}
		got := 0
		s := rng.New(seed)
		const n = 20000
		for i := 0; i < n; i++ {
			got += b.Next(s)
		}
		rate := float64(got) / n
		return math.Abs(rate-p) < 0.03
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBernoulliNext(b *testing.B) {
	w, _ := NewBernoulli(0.3)
	s := rng.New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = w.Next(s)
	}
	_ = sink
}

func BenchmarkMMPPNext(b *testing.B) {
	w, _ := NewOnOff(0.8, 100, 300)
	s := rng.New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = w.Next(s)
	}
	_ = sink
}
