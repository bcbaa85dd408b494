// Package rng provides deterministic, splittable pseudo-random number
// streams for simulation.
//
// Reproducibility is a hard requirement for the experiment harness: every
// figure and table in EXPERIMENTS.md must regenerate bit-identically from a
// seed. The standard library's math/rand is seedable but its stream layout
// is not guaranteed across Go releases, so this package implements PCG-XSL-
// RR-128/64 (O'Neill's PCG family) from scratch. The generator state is two
// uint64 words; output is a 64-bit permuted xorshift of the 128-bit LCG
// state.
//
// Streams are splittable: Split derives an independent child stream from a
// parent, so concurrent simulation replicas never share state and adding a
// consumer never perturbs existing streams.
package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Stream is a deterministic pseudo-random number generator. It implements
// the subset of math/rand methods the simulator needs plus splitting.
// The zero value is not valid; use New or Split.
type Stream struct {
	hi, lo uint64 // 128-bit LCG state
	incHi  uint64 // stream selector (must be odd in low word)
	incLo  uint64
}

// LCG multiplier for the 128-bit PCG state (from the PCG reference
// implementation).
const (
	mulHi = 2549297995355413924
	mulLo = 4865540595714422341
)

// New returns a Stream seeded from seed with the default stream selector.
// Distinct seeds give statistically independent streams.
func New(seed uint64) *Stream {
	return NewWithStream(seed, 0)
}

// NewWithStream returns a Stream seeded from seed on sub-stream sel. The
// (seed, sel) pair fully determines the output sequence.
func NewWithStream(seed, sel uint64) *Stream {
	s := &Stream{}
	s.ReseedWithStream(seed, sel)
	return s
}

// Reseed reinitializes s in place so that it produces exactly the
// sequence New(seed) would, without allocating. It is the reuse path of
// New: callers that cycle through many seeds (one fleet instance per
// seed) hold one Stream value and reseed it per instance.
func (s *Stream) Reseed(seed uint64) { s.ReseedWithStream(seed, 0) }

// ReseedWithStream is Reseed onto sub-stream sel; it is the in-place
// equivalent of NewWithStream(seed, sel).
func (s *Stream) ReseedWithStream(seed, sel uint64) {
	// Derive the increment from the selector; the low word must be odd.
	s.incHi = splitmix(&sel)
	s.incLo = splitmix(&sel) | 1
	// Standard PCG seeding: state = 0, advance, add seed, advance.
	s.hi, s.lo = 0, 0
	s.step()
	s.lo, _ = add128(s.lo, seed)
	h := splitmix(&seed)
	s.hi += h
	s.step()
}

// splitmix is SplitMix64; used only for seeding and splitting.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func add128(aLo, bLo uint64) (lo uint64, carry uint64) {
	lo, c := bits.Add64(aLo, bLo, 0)
	return lo, c
}

// step advances the 128-bit LCG state.
func (s *Stream) step() {
	// state = state*mul + inc (128-bit arithmetic).
	hi, lo := bits.Mul64(s.lo, mulLo)
	hi += s.hi*mulLo + s.lo*mulHi
	lo, c := bits.Add64(lo, s.incLo, 0)
	hi += s.incHi + c
	s.hi, s.lo = hi, lo
}

// Uint64 returns the next 64-bit value in the stream.
func (s *Stream) Uint64() uint64 {
	s.step()
	// XSL-RR output function: xor-fold the state, rotate by the top bits.
	rot := uint(s.hi >> 58)
	return bits.RotateLeft64(s.hi^s.lo, -int(rot))
}

// FillUint64 fills dst with the next len(dst) values of the stream —
// exactly the sequence len(dst) successive Uint64 calls would produce.
// The LCG step and XSL-RR output function are inlined into one loop with
// the state in registers, so bulk consumers (batched arrival sampling)
// amortize the per-call state load/store that dominates single draws.
func (s *Stream) FillUint64(dst []uint64) {
	hi, lo := s.hi, s.lo
	incHi, incLo := s.incHi, s.incLo
	for i := range dst {
		h, l := bits.Mul64(lo, mulLo)
		h += hi*mulLo + lo*mulHi
		l, c := bits.Add64(l, incLo, 0)
		h += incHi + c
		hi, lo = h, l
		rot := uint(hi >> 58)
		dst[i] = bits.RotateLeft64(hi^lo, -int(rot))
	}
	s.hi, s.lo = hi, lo
}

// FillFloat64 fills dst with uniform [0, 1) values — exactly the
// sequence len(dst) successive Float64 calls would produce — via one
// FillUint64 pass over dst's bits.
func (s *Stream) FillFloat64(dst []float64) {
	hi, lo := s.hi, s.lo
	incHi, incLo := s.incHi, s.incLo
	for i := range dst {
		h, l := bits.Mul64(lo, mulLo)
		h += hi*mulLo + lo*mulHi
		l, c := bits.Add64(l, incLo, 0)
		h += incHi + c
		hi, lo = h, l
		rot := uint(hi >> 58)
		dst[i] = float64(bits.RotateLeft64(hi^lo, -int(rot))>>11) / (1 << 53)
	}
	s.hi, s.lo = hi, lo
}

// Split derives an independent child stream. The parent advances by one
// draw; the child's sequence shares no state with the parent afterwards.
func (s *Stream) Split() *Stream {
	child := &Stream{}
	s.SplitInto(child)
	return child
}

// SplitInto derives an independent child stream into dst without
// allocating: dst produces exactly the sequence Split's return value
// would, and the parent advances identically. dst may be any Stream
// value (its prior state is overwritten); it must not alias s.
func (s *Stream) SplitInto(dst *Stream) {
	seed := s.Uint64()
	sel := s.Uint64()
	dst.ReseedWithStream(seed, sel)
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1); useful for inverse-CDF
// transforms that must not see exactly 0 (e.g. -log(u)).
func (s *Stream) Float64Open() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// NormFloat64 returns a standard normal variate via the polar
// (Marsaglia) method.
func (s *Stream) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// ExpFloat64 returns an Exp(1) variate via inverse CDF.
func (s *Stream) ExpFloat64() float64 {
	return -math.Log(s.Float64Open())
}

// Bool returns true with probability p. It panics if p is outside [0, 1].
func (s *Stream) Bool(p float64) bool {
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("rng: Bool probability %v out of [0,1]", p))
	}
	return s.Float64() < p
}

// State returns the serializable state of the stream.
func (s *Stream) State() State {
	return State{Hi: s.hi, Lo: s.lo, IncHi: s.incHi, IncLo: s.incLo}
}

// State is a snapshot of a Stream's position: two streams with equal
// States produce the same sequence from there on.
type State struct {
	Hi, Lo, IncHi, IncLo uint64
}
