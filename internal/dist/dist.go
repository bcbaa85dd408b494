// Package dist provides the parametric probability distributions used by
// the workload generators and the trace synthesizer: continuous
// interarrival laws (exponential, Pareto, Weibull, Erlang, two-phase
// hyperexponential, uniform) and the discrete Poisson counting law.
//
// All sampling draws exclusively from an rng.Stream so every consumer
// inherits the repository-wide determinism guarantee: a distribution value
// plus a stream state fully determines the sample sequence.
package dist

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Continuous is a continuous distribution over the positive reals, used
// for interarrival times measured in slots.
type Continuous interface {
	// Sample draws one variate.
	Sample(s *rng.Stream) float64
	// Mean returns the expectation (+Inf when it does not exist, e.g.
	// Pareto with alpha <= 1).
	Mean() float64
	// String describes the distribution and its parameters.
	String() string
}

// BulkSampler is the block-draw extension of Continuous: SampleInto
// fills dst with exactly the sequence len(dst) successive Sample calls
// would produce — same stream consumption, same bits — in one concrete
// (devirtualized) call. Batched consumers such as ctsim's arrival source
// draw a block per interface dispatch instead of one variate per event;
// rejection steps inside a law (Float64Open) stay per-variate and
// in-order, which is what makes the bit-equivalence unconditional.
// Every law in this package implements it; TestSampleIntoMatchesSample
// audits the equivalence for each.
type BulkSampler interface {
	Continuous
	// SampleInto fills dst with len(dst) variates.
	SampleInto(s *rng.Stream, dst []float64)
}

// ---------------------------------------------------------------------------
// Exponential

// Exponential is the memoryless law with rate Rate (mean 1/Rate).
type Exponential struct {
	Rate float64
}

// NewExponential validates rate > 0.
func NewExponential(rate float64) (Exponential, error) {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return Exponential{}, fmt.Errorf("dist: exponential rate %v must be positive and finite", rate)
	}
	return Exponential{Rate: rate}, nil
}

// Sample draws via inverse CDF.
func (e Exponential) Sample(s *rng.Stream) float64 { return s.ExpFloat64() / e.Rate }

// SampleInto fills dst, bit-identical to len(dst) Sample calls.
func (e Exponential) SampleInto(s *rng.Stream, dst []float64) {
	for i := range dst {
		dst[i] = s.ExpFloat64() / e.Rate
	}
}

// Mean returns 1/Rate.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

func (e Exponential) String() string { return fmt.Sprintf("Exp(rate=%g)", e.Rate) }

// ---------------------------------------------------------------------------
// Pareto

// Pareto is the heavy-tailed law with scale Xm (minimum value) and shape
// Alpha. The mean is infinite for Alpha <= 1.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// NewPareto validates finite xm > 0 and alpha > 0.
func NewPareto(xm, alpha float64) (Pareto, error) {
	if !(xm > 0) || math.IsInf(xm, 1) {
		return Pareto{}, fmt.Errorf("dist: pareto scale %v must be positive and finite", xm)
	}
	if !(alpha > 0) {
		return Pareto{}, fmt.Errorf("dist: pareto shape %v must be positive", alpha)
	}
	return Pareto{Xm: xm, Alpha: alpha}, nil
}

// Sample draws via inverse CDF.
func (p Pareto) Sample(s *rng.Stream) float64 {
	u := s.Float64Open()
	if p.Alpha == 1.5 {
		// Exactly the ByName recipe's shape: u^(1/1.5) = cbrt(u²), ~5x
		// cheaper than the general pow — Pareto sampling is the hottest
		// arrival draw in heavy-tailed fleet mixes. May differ from Pow
		// in the last ulp, but the branch keys on the parameter VALUE,
		// so the sampler stays a pure function of (Xm, Alpha, stream) —
		// every construction route with the same parameters draws the
		// same sequence. Other shapes take the general path.
		return p.Xm / math.Cbrt(u*u)
	}
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// SampleInto fills dst, bit-identical to len(dst) Sample calls. The
// Alpha == 1.5 value test is hoisted out of the loop; both branches draw
// exactly Sample's sequence.
func (p Pareto) SampleInto(s *rng.Stream, dst []float64) {
	if p.Alpha == 1.5 {
		for i := range dst {
			u := s.Float64Open()
			dst[i] = p.Xm / math.Cbrt(u*u)
		}
		return
	}
	inv := 1 / p.Alpha
	for i := range dst {
		dst[i] = p.Xm / math.Pow(s.Float64Open(), inv)
	}
}

// Mean returns alpha·xm/(alpha-1), or +Inf when alpha <= 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

func (p Pareto) String() string { return fmt.Sprintf("Pareto(xm=%g, α=%g)", p.Xm, p.Alpha) }

// ---------------------------------------------------------------------------
// Weibull

// Weibull has scale Lambda and shape K; K < 1 gives a heavier-than-
// exponential tail.
type Weibull struct {
	Lambda float64
	K      float64
}

// NewWeibull validates finite lambda > 0 and k > 0.
func NewWeibull(lambda, k float64) (Weibull, error) {
	if !(lambda > 0) || math.IsInf(lambda, 1) {
		return Weibull{}, fmt.Errorf("dist: weibull scale %v must be positive and finite", lambda)
	}
	if !(k > 0) {
		return Weibull{}, fmt.Errorf("dist: weibull shape %v must be positive", k)
	}
	return Weibull{Lambda: lambda, K: k}, nil
}

// Sample draws via inverse CDF.
func (w Weibull) Sample(s *rng.Stream) float64 {
	return w.Lambda * math.Pow(s.ExpFloat64(), 1/w.K)
}

// SampleInto fills dst, bit-identical to len(dst) Sample calls.
func (w Weibull) SampleInto(s *rng.Stream, dst []float64) {
	inv := 1 / w.K
	for i := range dst {
		dst[i] = w.Lambda * math.Pow(s.ExpFloat64(), inv)
	}
}

// Mean returns lambda·Γ(1 + 1/k).
func (w Weibull) Mean() float64 { return w.Lambda * math.Gamma(1+1/w.K) }

func (w Weibull) String() string { return fmt.Sprintf("Weibull(λ=%g, k=%g)", w.Lambda, w.K) }

// ---------------------------------------------------------------------------
// Erlang

// Erlang is the sum of K independent Exponential(Rate) phases.
type Erlang struct {
	K    int
	Rate float64
}

// NewErlang validates k >= 1 and finite rate > 0.
func NewErlang(k int, rate float64) (Erlang, error) {
	if k < 1 {
		return Erlang{}, fmt.Errorf("dist: erlang phase count %d must be >= 1", k)
	}
	if !(rate > 0) || math.IsInf(rate, 1) {
		return Erlang{}, fmt.Errorf("dist: erlang rate %v must be positive and finite", rate)
	}
	return Erlang{K: k, Rate: rate}, nil
}

// Sample sums K exponential phases.
func (e Erlang) Sample(s *rng.Stream) float64 {
	sum := 0.0
	for i := 0; i < e.K; i++ {
		sum += s.ExpFloat64()
	}
	return sum / e.Rate
}

// SampleInto fills dst, bit-identical to len(dst) Sample calls.
func (e Erlang) SampleInto(s *rng.Stream, dst []float64) {
	for i := range dst {
		sum := 0.0
		for j := 0; j < e.K; j++ {
			sum += s.ExpFloat64()
		}
		dst[i] = sum / e.Rate
	}
}

// Mean returns K/Rate.
func (e Erlang) Mean() float64 { return float64(e.K) / e.Rate }

func (e Erlang) String() string { return fmt.Sprintf("Erlang(k=%d, rate=%g)", e.K, e.Rate) }

// ---------------------------------------------------------------------------
// HyperExp

// HyperExp is the two-phase hyperexponential: with probability P the draw
// is Exponential(Rate1), otherwise Exponential(Rate2). CV > 1 whenever the
// rates differ — the standard model for high-variance interarrivals.
type HyperExp struct {
	P     float64
	Rate1 float64
	Rate2 float64
}

// NewHyperExp validates p in [0,1] and both rates positive and finite.
func NewHyperExp(p, rate1, rate2 float64) (HyperExp, error) {
	if !(p >= 0 && p <= 1) {
		return HyperExp{}, fmt.Errorf("dist: hyperexp mix %v out of [0,1]", p)
	}
	if !(rate1 > 0) || !(rate2 > 0) || math.IsInf(rate1, 1) || math.IsInf(rate2, 1) {
		return HyperExp{}, fmt.Errorf("dist: hyperexp rates (%v, %v) must be positive and finite", rate1, rate2)
	}
	return HyperExp{P: p, Rate1: rate1, Rate2: rate2}, nil
}

// Sample picks a phase then draws exponentially.
func (h HyperExp) Sample(s *rng.Stream) float64 {
	rate := h.Rate2
	if s.Float64() < h.P {
		rate = h.Rate1
	}
	return s.ExpFloat64() / rate
}

// SampleInto fills dst, bit-identical to len(dst) Sample calls (the
// phase pick and the exponential draw stay sequential per variate).
func (h HyperExp) SampleInto(s *rng.Stream, dst []float64) {
	for i := range dst {
		rate := h.Rate2
		if s.Float64() < h.P {
			rate = h.Rate1
		}
		dst[i] = s.ExpFloat64() / rate
	}
}

// Mean returns p/rate1 + (1-p)/rate2.
func (h HyperExp) Mean() float64 { return h.P/h.Rate1 + (1-h.P)/h.Rate2 }

func (h HyperExp) String() string {
	return fmt.Sprintf("HyperExp(p=%g, rates=%g/%g)", h.P, h.Rate1, h.Rate2)
}

// ---------------------------------------------------------------------------
// Uniform

// Uniform is the continuous uniform law on [A, B).
type Uniform struct {
	A float64
	B float64
}

// NewUniform validates a < b, a >= 0 (interarrivals are nonnegative) and
// a finite b.
func NewUniform(a, b float64) (Uniform, error) {
	if !(a < b) || math.IsInf(b, 1) {
		return Uniform{}, fmt.Errorf("dist: uniform requires finite a < b, got [%v,%v)", a, b)
	}
	if a < 0 {
		return Uniform{}, fmt.Errorf("dist: uniform lower bound %v must be >= 0", a)
	}
	return Uniform{A: a, B: b}, nil
}

// Sample draws uniformly on [A, B).
func (u Uniform) Sample(s *rng.Stream) float64 { return u.A + (u.B-u.A)*s.Float64() }

// SampleInto fills dst, bit-identical to len(dst) Sample calls. The
// uniform law has no rejection step, so it rides the stream's bulk fill
// and applies the affine map in place.
func (u Uniform) SampleInto(s *rng.Stream, dst []float64) {
	s.FillFloat64(dst)
	w := u.B - u.A
	for i := range dst {
		dst[i] = u.A + w*dst[i]
	}
}

// Mean returns (A+B)/2.
func (u Uniform) Mean() float64 { return (u.A + u.B) / 2 }

func (u Uniform) String() string { return fmt.Sprintf("Uniform[%g,%g)", u.A, u.B) }

// ---------------------------------------------------------------------------
// Named constructors

// ByName builds one of the stock interarrival laws used by the trace
// generator and the continuous-time experiments, calibrated so the mean
// interarrival time is exactly 1/rate — i.e. every law produces `rate`
// arrivals per second in the long run. This is the single source of truth
// for the shape parameters; TestByNameMeansMatchRate audits every branch.
//
// A rate is rejected when the law it compiles to would not have a
// positive, finite mean or could draw +Inf: a rate so large that a phase
// rate overflows (erlang's 3·rate, hyperexp's 5·rate), or so small that
// 1/rate leaves no room for the largest draw (see minRate).
func ByName(name string, rate float64) (Continuous, error) {
	if !(rate >= minRate) || math.IsInf(rate, 1) {
		return nil, fmt.Errorf("dist: rate %v must be finite and at least %.3g", rate, minRate)
	}
	mean := 1 / rate
	switch name {
	case "exp":
		return NewExponential(rate)
	case "pareto":
		// Heavy tail with finite mean: alpha = 1.5, xm solved from the
		// mean formula alpha·xm/(alpha-1) = mean.
		const alpha = 1.5
		return NewPareto(mean*(alpha-1)/alpha, alpha)
	case "weibull":
		// Heavier-than-exponential tail (k < 1), rescaled to the mean.
		const k = 0.7
		w, err := NewWeibull(1, k)
		if err != nil {
			return nil, err
		}
		w.Lambda = mean / w.Mean()
		return w, nil
	case "erlang":
		// Three phases: smoother than exponential (CV = 1/sqrt(3)).
		return NewErlang(3, 3*rate)
	case "hyperexp":
		// Two-phase hyperexponential, CV ≈ 1.24: with probability 0.3 a
		// fast phase of mean mean/5, otherwise a slow phase calibrated so
		// the mixture mean is exactly `mean`:
		//   0.3·mean/5 + 0.7·(0.94·mean/0.7) = (0.06 + 0.94)·mean.
		// (An earlier version used rates 5/mean and 0.5/mean, whose
		// mixture mean is 1.46·mean — a ~32% arrival-rate error.)
		return NewHyperExp(0.3, 5*rate, 0.7/(0.94*mean))
	case "uniform":
		return NewUniform(0, 2*mean)
	default:
		return nil, fmt.Errorf("dist: unknown distribution %q (want exp, pareto, weibull, erlang, hyperexp, or uniform)", name)
	}
}

// minRate is the smallest rate ByName accepts. Every ByName law draws at
// most 2^36 means: the largest is Pareto's at the smallest uniform
// Float64Open returns, (1/3)·(2^53)^(2/3) ≈ 1.4e10 means, and the others
// stay below 200. A mean of at most MaxFloat64/2^36 keeps every draw
// finite.
const minRate = (1 << 36) / math.MaxFloat64

// Names lists the distributions ByName accepts, in display order.
func Names() []string {
	return []string{"exp", "pareto", "weibull", "erlang", "hyperexp", "uniform"}
}

// ---------------------------------------------------------------------------
// Poisson

// Poisson is the discrete counting law with mean Lambda per slot.
type Poisson struct {
	Lambda float64
}

// NewPoisson validates lambda >= 0 and finite.
func NewPoisson(lambda float64) (Poisson, error) {
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 1) {
		return Poisson{}, fmt.Errorf("dist: poisson lambda %v must be finite and >= 0", lambda)
	}
	return Poisson{Lambda: lambda}, nil
}

// SampleInt draws one count. Small means use Knuth's product method; large
// means (> 30) sum an exact Poisson split so the loop stays short without
// losing exactness: Poisson(λ) = Poisson(λ/2) + Poisson(λ/2).
func (p Poisson) SampleInt(s *rng.Stream) int {
	return samplePoisson(p.Lambda, s)
}

func samplePoisson(lambda float64, s *rng.Stream) int {
	if lambda == 0 {
		return 0
	}
	if lambda > 30 {
		half := lambda / 2
		return samplePoisson(half, s) + samplePoisson(half, s)
	}
	// Knuth: count multiplications until the product drops below e^-λ.
	limit := math.Exp(-lambda)
	n := 0
	prod := s.Float64Open()
	for prod > limit {
		n++
		prod *= s.Float64Open()
	}
	return n
}

// Mean returns Lambda.
func (p Poisson) Mean() float64 { return p.Lambda }

func (p Poisson) String() string { return fmt.Sprintf("Poisson(λ=%g)", p.Lambda) }
