// Package stats provides the summary statistics used by the simulator's
// metric accounting and the experiment harness: numerically stable running
// moments, sliding-window means, quantiles (exact and a mergeable sketch),
// and normal-approximation confidence intervals.
package stats

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/queue"
)

// Running accumulates mean and variance with Welford's algorithm, which is
// numerically stable over the multi-million-sample runs the Fig. 1/Fig. 2
// experiments produce.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the observation count.
func (r *Running) N() int64 { return r.n }

// Mean returns the running mean (0 if empty).
func (r *Running) Mean() float64 { return r.mean }

// Var returns the unbiased sample variance (0 if fewer than 2 samples).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the sample standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// Min returns the smallest observation (0 if empty).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (0 if empty).
func (r *Running) Max() float64 { return r.max }

// Merge combines another accumulator into r (parallel Welford merge), so
// per-replica statistics can be pooled across seeds. A single-observation
// merge takes the exact Add path, which makes reducing one-sample
// accumulators in order bit-identical to adding the samples serially —
// the property the parallel experiment engine's determinism guarantee
// rests on.
func (r *Running) Merge(o *Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *o
		return
	}
	if o.n == 1 {
		r.Add(o.mean)
		return
	}
	n := r.n + o.n
	d := o.mean - r.mean
	r.m2 += o.m2 + d*d*float64(r.n)*float64(o.n)/float64(n)
	r.mean += d * float64(o.n) / float64(n)
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n = n
}

// CI95 returns the half-width of the 95% normal-approximation confidence
// interval of the mean.
func (r *Running) CI95() float64 {
	if r.n < 2 {
		return 0
	}
	return 1.96 * r.Std() / math.Sqrt(float64(r.n))
}

// ---------------------------------------------------------------------------

// Window is a fixed-size sliding-window mean over the last Cap observations,
// used for the windowed power/energy-reduction series in Figs. 1 and 2.
type Window struct {
	ring     queue.Ring[float64]
	capacity int
	sum      float64
}

// NewWindow returns a window of the given capacity (must be positive).
func NewWindow(capacity int) (*Window, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("stats: window capacity %d must be positive", capacity)
	}
	return &Window{capacity: capacity}, nil
}

// Add pushes one observation, evicting the oldest when full.
func (w *Window) Add(x float64) {
	if w.Full() {
		w.sum -= w.ring.Pop()
	}
	w.ring.Push(x)
	w.sum += x
}

// Mean returns the mean of the retained observations (0 if empty).
func (w *Window) Mean() float64 {
	if w.ring.Len() == 0 {
		return 0
	}
	return w.sum / float64(w.ring.Len())
}

// Full reports whether the window has reached capacity.
func (w *Window) Full() bool { return w.ring.Len() == w.capacity }

// N returns the number of retained observations.
func (w *Window) N() int { return w.ring.Len() }

// ---------------------------------------------------------------------------

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns an error for empty
// input or out-of-range q. The input slice is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile level %v out of [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ---------------------------------------------------------------------------

// Series accumulates an (x, y) time series, e.g. slot index vs windowed
// average power; the experiment harness renders these as figure data.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// YMin returns the minimum y value (0 for empty series).
func (s *Series) YMin() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	m := s.Y[0]
	for _, v := range s.Y[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// YMax returns the maximum y value (0 for empty series).
func (s *Series) YMax() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	m := s.Y[0]
	for _, v := range s.Y[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// TailMean returns the mean of the last frac portion of the series
// (frac in (0,1]); used to measure post-convergence level in Fig. 1.
func (s *Series) TailMean(frac float64) float64 {
	if len(s.Y) == 0 || frac <= 0 {
		return 0
	}
	if frac > 1 {
		frac = 1
	}
	start := len(s.Y) - int(math.Ceil(frac*float64(len(s.Y))))
	if start < 0 {
		start = 0
	}
	return Mean(s.Y[start:])
}
