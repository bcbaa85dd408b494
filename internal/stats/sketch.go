// Log-binned mergeable quantile sketch.
//
// The fleet layer needs latency percentiles over millions of instances
// without holding one float per instance. QuantileSketch is a DDSketch-
// style structure: nonnegative values are counted into geometrically
// spaced bins keyed by ceil(log_gamma(x)) with gamma = (1+a)/(1-a) for a
// configured relative accuracy a, so any value in a bin is within a
// relative distance a of the bin's representative value. Memory is
// O(log(max/min)/log(gamma)) — a few hundred int64 counters for
// second-scale waits at a = 1% — independent of the number of
// observations.
//
// Error bound. For q in (0, 1), Quantile(q) estimates the exact order
// statistic x of rank floor(q·(n-1)) (0-based): if x > MinTracked the
// estimate v satisfies |v - x| <= a·x up to floating-point rounding of
// log/pow; values in [0, MinTracked] are returned exactly as 0.
// Quantile(0) and Quantile(1) return the exactly tracked min and max.
//
// Merge contract. Sketch state is integer bin counts plus exact min/max,
// so merging is exact integer addition: merges are associative and
// commutative at the bit level, and a merge tree of any shape over the
// same observations yields the same bits. (The fleet layer still merges
// in shard-index order, matching the contract of the float accumulators
// it carries alongside.)
package stats

import (
	"fmt"
	"math"
)

// MinTracked is the smallest positive value the sketch resolves; values
// at or below it (including zeros — instances that served no requests)
// are counted exactly in a dedicated zero bin and reported as 0.
const MinTracked = 1e-12

// QuantileSketch is a mergeable log-binned quantile estimator for
// nonnegative observations. The zero value is not valid; use
// NewQuantileSketch. Not safe for concurrent use.
type QuantileSketch struct {
	alpha  float64
	gamma  float64
	lg     float64 // log(gamma)
	zero   int64   // observations <= MinTracked
	offset int     // bin key of counts[0]
	counts []int64
	n      int64
	min    float64
	max    float64
}

// NewQuantileSketch returns a sketch with the given relative accuracy
// (0 < alpha < 1). alpha = 0.01 bounds every quantile within 1% of the
// corresponding exact order statistic.
func NewQuantileSketch(alpha float64) (*QuantileSketch, error) {
	if !(alpha > 0) || alpha >= 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("stats: sketch relative accuracy %v out of (0,1)", alpha)
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &QuantileSketch{alpha: alpha, gamma: gamma, lg: math.Log(gamma)}, nil
}

// RelativeAccuracy returns the configured bound alpha.
func (s *QuantileSketch) RelativeAccuracy() float64 { return s.alpha }

// N returns the number of observations.
func (s *QuantileSketch) N() int64 { return s.n }

// Min returns the smallest observation (0 if empty).
func (s *QuantileSketch) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 if empty).
func (s *QuantileSketch) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// key maps a value > MinTracked to its bin: values in
// (gamma^(k-1), gamma^k] share key k.
func (s *QuantileSketch) key(x float64) int {
	return int(math.Ceil(math.Log(x) / s.lg))
}

// Add counts one observation. Negative and NaN values (which the wait
// metrics never produce) are clamped into the zero bin.
func (s *QuantileSketch) Add(x float64) {
	if x < 0 || math.IsNaN(x) {
		x = 0
	}
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	if x <= MinTracked {
		s.zero++
		return
	}
	k := s.key(x)
	// In-range increment without the ensure call: after the range's
	// high-water mark is reached every Add lands here.
	if i := k - s.offset; uint(i) < uint(len(s.counts)) {
		s.counts[i]++
		return
	}
	s.ensure(k, k)
	s.counts[k-s.offset]++
}

// ensure grows the bin array to cover keys [lo, hi]. Growth doubles the
// backing array and only happens until the observed value range's
// high-water mark, so steady-state Adds allocate nothing.
func (s *QuantileSketch) ensure(lo, hi int) {
	if len(s.counts) == 0 {
		s.offset = lo
		s.counts = append(s.counts, make([]int64, hi-lo+1)...)
		return
	}
	if lo >= s.offset && hi < s.offset+len(s.counts) {
		return
	}
	newLo, newHi := s.offset, s.offset+len(s.counts)-1
	if lo < newLo {
		newLo = lo
	}
	if hi > newHi {
		newHi = hi
	}
	need := newHi - newLo + 1
	if need < 2*len(s.counts) {
		need = 2 * len(s.counts)
		// Bias the slack toward the side being extended.
		if lo < s.offset {
			newLo = newHi - need + 1
		} else {
			newHi = newLo + need - 1
		}
	}
	nb := make([]int64, need)
	copy(nb[s.offset-newLo:], s.counts)
	s.offset = newLo
	s.counts = nb
}

// Merge folds another sketch into s — exact integer addition of bin
// counts, so the result is bit-identical for any merge order. Both
// sketches must share the same relative accuracy; merging mismatched
// sketches is a programming error and panics. o is not modified.
func (s *QuantileSketch) Merge(o *QuantileSketch) {
	if o == nil || o.n == 0 {
		return
	}
	if s.alpha != o.alpha {
		panic(fmt.Sprintf("stats: merging sketches with accuracies %v and %v", s.alpha, o.alpha))
	}
	if s.n == 0 {
		s.min, s.max = o.min, o.max
	} else {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	s.n += o.n
	s.zero += o.zero
	// Fold only o's nonzero span. A reset-then-reused sketch keeps its
	// widest-ever bin array (see Reset), so growing s to o's full extent
	// would make s's bin layout depend on o's reuse history — and with
	// pooled shard summaries, on worker scheduling. Trimming keeps the
	// merged layout a pure function of the observations.
	lo, hi := 0, len(o.counts)-1
	for lo <= hi && o.counts[lo] == 0 {
		lo++
	}
	for hi >= lo && o.counts[hi] == 0 {
		hi--
	}
	if lo <= hi {
		s.ensure(o.offset+lo, o.offset+hi)
		mergeCounts(s.counts[o.offset+lo-s.offset:], o.counts[lo:hi+1])
	}
}

// Reset returns the sketch to its freshly constructed state — no
// observations — while keeping the bin array at capacity (zeroed in
// place) and its key offset. A reset sketch's observable behavior is
// bit-identical to a fresh one's: quantiles, merges, and adds depend
// only on the nonzero bin counts and the exact min/max/n header, never
// on the bin array's extent, so pooled shard summaries can recycle
// sketches without perturbing any downstream number.
func (s *QuantileSketch) Reset() {
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.zero = 0
	s.n = 0
	s.min = 0
	s.max = 0
}

// Clone returns an independent deep copy.
func (s *QuantileSketch) Clone() *QuantileSketch {
	c := *s
	c.counts = append([]int64(nil), s.counts...)
	return &c
}

// Quantile returns the estimate for the exact order statistic of rank
// floor(q·(n-1)), within the documented relative-error bound. It errors
// on an empty sketch or q outside [0, 1].
func (s *QuantileSketch) Quantile(q float64) (float64, error) {
	if s == nil || s.n == 0 {
		return 0, fmt.Errorf("stats: quantile of empty sketch")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile level %v out of [0,1]", q)
	}
	if q == 0 {
		return s.min, nil
	}
	if q == 1 {
		return s.max, nil
	}
	rank := int64(math.Floor(q * float64(s.n-1)))
	if rank < s.zero {
		return 0, nil
	}
	cum := s.zero
	for i, c := range s.counts {
		cum += c
		if cum > rank {
			// Representative value of bin k = (gamma^(k-1), gamma^k]:
			// the harmonic-style midpoint 2·gamma^k/(gamma+1), within
			// relative distance alpha of every value in the bin. Clamping
			// into the exact [min, max] envelope only moves the estimate
			// toward the true order statistic.
			v := 2 * math.Pow(s.gamma, float64(s.offset+i)) / (1 + s.gamma)
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v, nil
		}
	}
	return s.max, nil // counts exhausted: the top-ranked observation
}

// mergeCounts adds src into dst element-wise (len(dst) >= len(src)) —
// the integer-accumulation kernel of QuantileSketch.Merge; integer
// addition is what makes the merge bit-exact under any merge-tree shape.
func mergeCounts(dst, src []int64) {
	for i, c := range src {
		dst[i] += c
	}
}
