package dist

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// sampleMean draws n variates and returns their mean.
func sampleMean(d Continuous, n int, seed uint64) float64 {
	s := rng.New(seed)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(s)
	}
	return sum / float64(n)
}

func TestValidation(t *testing.T) {
	if _, err := NewExponential(0); err == nil {
		t.Error("exp rate 0 accepted")
	}
	if _, err := NewPareto(0, 1); err == nil {
		t.Error("pareto xm 0 accepted")
	}
	if _, err := NewPareto(1, 0); err == nil {
		t.Error("pareto alpha 0 accepted")
	}
	if _, err := NewWeibull(0, 1); err == nil {
		t.Error("weibull scale 0 accepted")
	}
	if _, err := NewErlang(0, 1); err == nil {
		t.Error("erlang k 0 accepted")
	}
	if _, err := NewHyperExp(1.5, 1, 1); err == nil {
		t.Error("hyperexp p > 1 accepted")
	}
	if _, err := NewUniform(2, 2); err == nil {
		t.Error("empty uniform accepted")
	}
	if _, err := NewPoisson(-1); err == nil {
		t.Error("negative poisson accepted")
	}
	if _, err := NewPoisson(math.Inf(1)); err == nil {
		t.Error("infinite poisson accepted")
	}
}

func TestMeans(t *testing.T) {
	cases := []struct {
		d    Continuous
		want float64
	}{
		{mustExp(t, 2), 0.5},
		{mustPareto(t, 1, 3), 1.5},
		{mustErlang(t, 3, 6), 0.5},
		{mustUniform(t, 1, 3), 2},
	}
	for _, c := range cases {
		if got := c.d.Mean(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Mean() = %v, want %v", c.d, got, c.want)
		}
		// Empirical mean within 3% on 200k samples.
		if got := sampleMean(c.d, 200000, 1); math.Abs(got-c.want)/c.want > 0.03 {
			t.Errorf("%s: empirical mean %v, want ~%v", c.d, got, c.want)
		}
	}
	w := mustWeibull(t, 2, 1) // k=1 degenerates to Exp(1/2): mean 2
	if math.Abs(w.Mean()-2) > 1e-12 {
		t.Errorf("weibull mean %v, want 2", w.Mean())
	}
	h, _ := NewHyperExp(0.3, 5, 0.5)
	want := 0.3/5 + 0.7/0.5
	if math.Abs(h.Mean()-want) > 1e-12 {
		t.Errorf("hyperexp mean %v, want %v", h.Mean(), want)
	}
	if got := sampleMean(h, 300000, 2); math.Abs(got-want)/want > 0.03 {
		t.Errorf("hyperexp empirical mean %v, want ~%v", got, want)
	}
}

func TestParetoInfiniteMean(t *testing.T) {
	p := mustPareto(t, 1, 0.9)
	if !math.IsInf(p.Mean(), 1) {
		t.Errorf("Pareto(α=0.9) mean %v, want +Inf", p.Mean())
	}
}

func TestPoissonMoments(t *testing.T) {
	for _, lambda := range []float64{0, 0.1, 3, 50} {
		p, err := NewPoisson(lambda)
		if err != nil {
			t.Fatal(err)
		}
		s := rng.New(7)
		n := 200000
		sum, sq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := float64(p.SampleInt(s))
			sum += v
			sq += v * v
		}
		mean := sum / float64(n)
		variance := sq/float64(n) - mean*mean
		if lambda == 0 {
			if mean != 0 {
				t.Errorf("Poisson(0) emitted arrivals")
			}
			continue
		}
		if math.Abs(mean-lambda)/lambda > 0.03 {
			t.Errorf("Poisson(%g) empirical mean %v", lambda, mean)
		}
		if math.Abs(variance-lambda)/lambda > 0.06 {
			t.Errorf("Poisson(%g) empirical variance %v, want ~λ", lambda, variance)
		}
	}
}

func TestDeterministicSampling(t *testing.T) {
	d := mustExp(t, 1)
	a, b := rng.New(3), rng.New(3)
	for i := 0; i < 100; i++ {
		if d.Sample(a) != d.Sample(b) {
			t.Fatal("equal streams diverged")
		}
	}
}

func mustExp(t *testing.T, rate float64) Exponential {
	t.Helper()
	d, err := NewExponential(rate)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustPareto(t *testing.T, xm, alpha float64) Pareto {
	t.Helper()
	d, err := NewPareto(xm, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustWeibull(t *testing.T, lambda, k float64) Weibull {
	t.Helper()
	d, err := NewWeibull(lambda, k)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustErlang(t *testing.T, k int, rate float64) Erlang {
	t.Helper()
	d, err := NewErlang(k, rate)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustUniform(t *testing.T, a, b float64) Uniform {
	t.Helper()
	d, err := NewUniform(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Every named law must have mean interarrival exactly 1/rate: the trace
// generator advertises `-rate R` as "R arrivals per second", so a
// miscalibrated mixture (the old hyperexp had mean 1.46/R) silently skews
// every downstream experiment.
func TestByNameMeansMatchRate(t *testing.T) {
	for _, name := range Names() {
		for _, rate := range []float64{0.25, 1, 2, 8} {
			d, err := ByName(name, rate)
			if err != nil {
				t.Errorf("%s rate %g: %v", name, rate, err)
				continue
			}
			want := 1 / rate
			if got := d.Mean(); math.Abs(got-want) > 1e-12*want {
				t.Errorf("%s rate %g: mean %v, want %v", name, rate, got, want)
			}
		}
	}
}

// The hyperexponential must keep its defining property, CV > 1, after the
// mean recalibration.
func TestByNameHyperExpHighVariance(t *testing.T) {
	d, err := ByName("hyperexp", 2)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(5)
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := d.Sample(s)
		sum += x
		sumsq += x * x
	}
	mean := sum / float64(n)
	cv := math.Sqrt(sumsq/float64(n)-mean*mean) / mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("empirical mean %v, want ~0.5", mean)
	}
	if cv < 1.1 {
		t.Errorf("CV %v, want > 1.1 (high-variance mixture)", cv)
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("nope", 1); err == nil {
		t.Error("unknown name accepted")
	}
	if _, err := ByName("exp", 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := ByName("exp", -2); err == nil {
		t.Error("negative rate accepted")
	}
	// 3·1e308 overflows to an infinite phase rate, which used to compile
	// to a zero-mean Erlang; at 1e-310 the mean 1/rate is +Inf.
	if _, err := ByName("erlang", 1e308); err == nil {
		t.Error("erlang rate 1e308 accepted")
	}
	for _, name := range Names() {
		if _, err := ByName(name, 1e-310); err == nil {
			t.Errorf("%s rate 1e-310 accepted", name)
		}
	}
}

// FuzzByName: every (name, rate) ByName accepts compiles to a law whose
// mean is positive, finite and 1/rate, and whose draws are finite and
// nonnegative. Seeds live in testdata/fuzz/FuzzByName.
func FuzzByName(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string, rate float64, seed uint64) {
		d, err := ByName(name, rate)
		if err != nil {
			return
		}
		m := d.Mean()
		if !(m > 0) || math.IsInf(m, 1) || math.Abs(m*rate-1) > 1e-9 {
			t.Fatalf("ByName(%q, %v) = %v with mean %v, want 1/rate", name, rate, d, m)
		}
		s := rng.New(seed)
		for i := 0; i < 4; i++ {
			if x := d.Sample(s); !(x >= 0) || math.IsInf(x, 1) {
				t.Fatalf("ByName(%q, %v) = %v drew %v", name, rate, d, x)
			}
		}
	})
}
