// Package workload provides the slot-based arrival processes that drive
// the Q-DPM experiments: stationary processes for Fig. 1, the piecewise-
// stationary process for Fig. 2, Markov-modulated and on/off bursty
// processes for the derived tables, and playback of recorded counts.
//
// An arrival process emits the number of requests arriving in each
// successive slot. Processes carry internal phase (slot counters, Markov
// modulating state, renewal residue), so one value must not be shared
// between simulator instances; use Clone (or rebuild) per replica.
package workload

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/rng"
)

// Arrivals produces per-slot request counts.
type Arrivals interface {
	// Next returns the number of requests arriving in the next slot,
	// advancing the process state.
	Next(s *rng.Stream) int
	// MeanRate returns the long-run average arrivals per slot.
	MeanRate() float64
	// Clone returns an independent copy with the phase reset to the
	// initial state.
	Clone() Arrivals
	// String describes the process.
	String() string
}

// ---------------------------------------------------------------------------
// Bernoulli

// Bernoulli emits 0 or 1 arrival per slot with probability P. This is the
// process the exact DTMDP in internal/mdp models, so Fig. 1's "analytically
// optimal" comparison is exact.
type Bernoulli struct{ P float64 }

// NewBernoulli validates p ∈ [0,1].
func NewBernoulli(p float64) (*Bernoulli, error) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("workload: bernoulli rate %v out of [0,1]", p)
	}
	return &Bernoulli{P: p}, nil
}

// Next returns 0 or 1.
func (b *Bernoulli) Next(s *rng.Stream) int {
	if s.Float64() < b.P {
		return 1
	}
	return 0
}

// MeanRate returns P.
func (b *Bernoulli) MeanRate() float64 { return b.P }

// Clone returns a copy (Bernoulli is stateless).
func (b *Bernoulli) Clone() Arrivals { c := *b; return &c }

func (b *Bernoulli) String() string { return fmt.Sprintf("Bernoulli(p=%g)", b.P) }

// ---------------------------------------------------------------------------
// Poisson

// Poisson emits Poisson(Lambda) arrivals per slot.
type Poisson struct{ d dist.Poisson }

// NewPoisson validates lambda >= 0.
func NewPoisson(lambda float64) (*Poisson, error) {
	d, err := dist.NewPoisson(lambda)
	if err != nil {
		return nil, err
	}
	return &Poisson{d: d}, nil
}

// Next returns the slot's arrival count.
func (p *Poisson) Next(s *rng.Stream) int { return p.d.SampleInt(s) }

// MeanRate returns lambda.
func (p *Poisson) MeanRate() float64 { return p.d.Lambda }

// Clone returns a copy.
func (p *Poisson) Clone() Arrivals { c := *p; return &c }

func (p *Poisson) String() string { return fmt.Sprintf("Poisson(λ=%g/slot)", p.d.Lambda) }

// ---------------------------------------------------------------------------
// MMPP — Markov-modulated process

// MMPP is a Markov-modulated arrival process: a hidden Markov chain over
// modulating phases, each with its own per-slot arrival process. The chain
// steps once per slot. MMPPs generate the bursty, correlated traffic that
// makes timeout heuristics misfire.
type MMPP struct {
	// Phases holds the per-phase arrival processes.
	Phases []Arrivals
	// P is the phase transition matrix (rows sum to 1).
	P [][]float64
	// Start is the initial phase.
	Start int

	cur int
}

// NewMMPP validates the chain and returns the process.
func NewMMPP(phases []Arrivals, p [][]float64, start int) (*MMPP, error) {
	n := len(phases)
	if n == 0 {
		return nil, fmt.Errorf("workload: MMPP needs at least one phase")
	}
	if len(p) != n {
		return nil, fmt.Errorf("workload: MMPP transition matrix has %d rows, want %d", len(p), n)
	}
	for i, row := range p {
		if len(row) != n {
			return nil, fmt.Errorf("workload: MMPP row %d has %d entries, want %d", i, len(row), n)
		}
		sum := 0.0
		for j, v := range row {
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("workload: MMPP P[%d][%d] = %v invalid", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return nil, fmt.Errorf("workload: MMPP row %d sums to %v, want 1", i, sum)
		}
	}
	if start < 0 || start >= n {
		return nil, fmt.Errorf("workload: MMPP start phase %d out of range", start)
	}
	return &MMPP{Phases: phases, P: p, Start: start, cur: start}, nil
}

// Next steps the modulating chain then samples the current phase.
func (m *MMPP) Next(s *rng.Stream) int {
	u := s.Float64()
	acc := 0.0
	row := m.P[m.cur]
	next := len(row) - 1
	for j, v := range row {
		acc += v
		if u < acc {
			next = j
			break
		}
	}
	m.cur = next
	return m.Phases[m.cur].Next(s)
}

// MeanRate returns the stationary-weighted mean rate, computed by power
// iteration on the modulating chain.
func (m *MMPP) MeanRate() float64 {
	n := len(m.Phases)
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	next := make([]float64, n)
	for iter := 0; iter < 500; iter++ {
		for j := range next {
			next[j] = 0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				next[j] += pi[i] * m.P[i][j]
			}
		}
		copy(pi, next)
	}
	rate := 0.0
	for i, ph := range m.Phases {
		rate += pi[i] * ph.MeanRate()
	}
	return rate
}

// Clone returns an independent copy reset to the start phase.
func (m *MMPP) Clone() Arrivals {
	phases := make([]Arrivals, len(m.Phases))
	for i, ph := range m.Phases {
		phases[i] = ph.Clone()
	}
	c, err := NewMMPP(phases, m.P, m.Start)
	if err != nil {
		panic("workload: clone of valid MMPP failed: " + err.Error())
	}
	return c
}

func (m *MMPP) String() string { return fmt.Sprintf("MMPP(%d phases)", len(m.Phases)) }

// NewOnOff builds the classic two-phase bursty process: an "on" phase with
// per-slot arrival probability pOn and a silent "off" phase, with geometric
// sojourns of the given mean lengths (in slots).
func NewOnOff(pOn float64, meanOn, meanOff float64) (*MMPP, error) {
	if !(meanOn >= 1) || !(meanOff >= 1) {
		return nil, fmt.Errorf("workload: on/off mean sojourns must be >= 1 slot, got %v/%v", meanOn, meanOff)
	}
	on, err := NewBernoulli(pOn)
	if err != nil {
		return nil, err
	}
	off, err := NewBernoulli(0)
	if err != nil {
		return nil, err
	}
	a, b := 1/meanOn, 1/meanOff
	return NewMMPP(
		[]Arrivals{on, off},
		[][]float64{{1 - a, a}, {b, 1 - b}},
		1, // start silent
	)
}

// ---------------------------------------------------------------------------
// Piecewise — the Fig. 2 driver

// Segment is one stationary stretch of a piecewise process.
type Segment struct {
	// Slots is the segment length.
	Slots int64
	// Proc is the arrival process active during the segment.
	Proc Arrivals
}

// Piecewise is a piecewise-stationary arrival process: it plays each
// segment for its duration, then switches. After the last segment it
// keeps playing the final process indefinitely. The slot indices at which
// switches occur are exposed for figure annotation (the vertical lines in
// Fig. 2).
type Piecewise struct {
	Segments []Segment

	seg  int
	used int64
}

// NewPiecewise validates the schedule.
func NewPiecewise(segments []Segment) (*Piecewise, error) {
	if len(segments) == 0 {
		return nil, fmt.Errorf("workload: piecewise needs at least one segment")
	}
	for i, sg := range segments {
		if sg.Slots <= 0 {
			return nil, fmt.Errorf("workload: segment %d has non-positive length %d", i, sg.Slots)
		}
		if sg.Proc == nil {
			return nil, fmt.Errorf("workload: segment %d has nil process", i)
		}
	}
	return &Piecewise{Segments: segments}, nil
}

// Next plays the current segment, advancing to the next at its boundary.
func (p *Piecewise) Next(s *rng.Stream) int {
	if p.seg < len(p.Segments)-1 && p.used >= p.Segments[p.seg].Slots {
		p.seg++
		p.used = 0
	}
	p.used++
	return p.Segments[p.seg].Proc.Next(s)
}

// SwitchPoints returns the absolute slot indices at which the process
// changes segment (length = len(Segments)-1).
func (p *Piecewise) SwitchPoints() []int64 {
	var out []int64
	acc := int64(0)
	for _, sg := range p.Segments[:len(p.Segments)-1] {
		acc += sg.Slots
		out = append(out, acc)
	}
	return out
}

// MeanRate returns the duration-weighted mean rate over one pass of the
// schedule.
func (p *Piecewise) MeanRate() float64 {
	total := int64(0)
	acc := 0.0
	for _, sg := range p.Segments {
		total += sg.Slots
		acc += float64(sg.Slots) * sg.Proc.MeanRate()
	}
	return acc / float64(total)
}

// Clone returns a copy reset to the first segment.
func (p *Piecewise) Clone() Arrivals {
	segs := make([]Segment, len(p.Segments))
	for i, sg := range p.Segments {
		segs[i] = Segment{Slots: sg.Slots, Proc: sg.Proc.Clone()}
	}
	c, err := NewPiecewise(segs)
	if err != nil {
		panic("workload: clone of valid piecewise failed: " + err.Error())
	}
	return c
}

func (p *Piecewise) String() string {
	return fmt.Sprintf("Piecewise(%d segments)", len(p.Segments))
}

// ---------------------------------------------------------------------------
// Renewal — continuous interarrivals binned into slots

// Renewal bins a continuous renewal process (arbitrary interarrival
// distribution, in units of slots) into per-slot counts, carrying the
// residual across slot boundaries. Use it to drive the slotted simulator
// with Pareto or Weibull interarrivals.
type Renewal struct {
	// D is the interarrival distribution in slot units.
	D dist.Continuous

	nextAt float64 // absolute time of the next arrival, in slots
	now    float64 // current slot start
	primed bool
}

// NewRenewal validates the distribution has positive mean.
func NewRenewal(d dist.Continuous) (*Renewal, error) {
	if d == nil {
		return nil, fmt.Errorf("workload: renewal needs a distribution")
	}
	if m := d.Mean(); !(m > 0) {
		return nil, fmt.Errorf("workload: renewal interarrival mean %v must be positive", m)
	}
	return &Renewal{D: d}, nil
}

// Next counts arrivals inside the next slot.
func (r *Renewal) Next(s *rng.Stream) int {
	if !r.primed {
		r.nextAt = r.D.Sample(s)
		r.primed = true
	}
	end := r.now + 1
	n := 0
	for r.nextAt < end {
		n++
		r.nextAt += r.D.Sample(s)
	}
	r.now = end
	return n
}

// MeanRate returns 1/mean interarrival (0 when the mean is infinite, e.g.
// Pareto α <= 1).
func (r *Renewal) MeanRate() float64 {
	m := r.D.Mean()
	if math.IsInf(m, 1) {
		return 0
	}
	return 1 / m
}

// Clone returns a reset copy.
func (r *Renewal) Clone() Arrivals { return &Renewal{D: r.D} }

func (r *Renewal) String() string { return fmt.Sprintf("Renewal(%s)", r.D) }

// ---------------------------------------------------------------------------
// Playback

// Playback replays a fixed sequence of per-slot counts; after the sequence
// is exhausted it returns 0 forever.
type Playback struct {
	Counts []int
	pos    int
}

// NewPlayback validates counts are non-negative.
func NewPlayback(counts []int) (*Playback, error) {
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("workload: playback count %d at slot %d is negative", c, i)
		}
	}
	return &Playback{Counts: counts}, nil
}

// Next returns the next recorded count.
func (p *Playback) Next(*rng.Stream) int {
	if p.pos >= len(p.Counts) {
		return 0
	}
	c := p.Counts[p.pos]
	p.pos++
	return c
}

// MeanRate returns the average of the recorded counts.
func (p *Playback) MeanRate() float64 {
	if len(p.Counts) == 0 {
		return 0
	}
	s := 0
	for _, c := range p.Counts {
		s += c
	}
	return float64(s) / float64(len(p.Counts))
}

// Clone returns a copy reset to the beginning.
func (p *Playback) Clone() Arrivals {
	return &Playback{Counts: p.Counts}
}

func (p *Playback) String() string { return fmt.Sprintf("Playback(%d slots)", len(p.Counts)) }
