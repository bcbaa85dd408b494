// Package estimator implements the online parameter-estimation and change-
// detection machinery that model-based adaptive DPM needs and Q-DPM
// dispenses with: a sliding-window rate estimator for the arrival process,
// and a CUSUM detector for the "mode-switch controller" that decides when
// the model has drifted enough to warrant re-running policy optimization.
//
// The paper's core claim is that this whole pipeline costs time and delays
// adaptation; this package exists so the claim can be measured (Fig. 2 and
// Table R1) rather than asserted.
package estimator

import (
	"fmt"
	"math"

	"repro/internal/queue"
)

// WindowRate estimates a Bernoulli per-slot arrival probability from the
// last W slots (sliding-window maximum likelihood: arrivals/W).
type WindowRate struct {
	ring queue.Ring[uint8]
	w    int
	sum  int
}

// NewWindowRate returns an estimator over a window of w slots.
func NewWindowRate(w int) (*WindowRate, error) {
	if w <= 0 {
		return nil, fmt.Errorf("estimator: window %d must be positive", w)
	}
	return &WindowRate{w: w}, nil
}

// Add records one slot's arrival indicator (count clamped to {0,1}).
func (e *WindowRate) Add(arrivals int) {
	v := uint8(0)
	if arrivals > 0 {
		v = 1
	}
	if e.Full() {
		e.sum -= int(e.ring.Pop())
	}
	e.ring.Push(v)
	e.sum += int(v)
}

// Rate returns the MLE of the per-slot arrival probability (0 before any
// observation).
func (e *WindowRate) Rate() float64 {
	if e.ring.Len() == 0 {
		return 0
	}
	return float64(e.sum) / float64(e.ring.Len())
}

// Full reports whether the window has filled once.
func (e *WindowRate) Full() bool { return e.ring.Len() == e.w }

// N returns the number of retained observations.
func (e *WindowRate) N() int { return e.ring.Len() }

// ---------------------------------------------------------------------------

// CUSUM is a two-sided cumulative-sum change detector on a Bernoulli
// stream. It tracks deviations of the observed indicator from a reference
// rate; when either one-sided statistic exceeds the threshold h, a change
// is declared.
type CUSUM struct {
	ref  float64 // reference rate the statistics are centred on
	k    float64 // slack per observation
	h    float64 // decision threshold
	gPos float64
	gNeg float64
}

// NewCUSUM returns a detector centred on rate ref with slack k and
// threshold h. Typical values: k = half the smallest shift worth
// detecting, h = 4..8 for Bernoulli streams.
func NewCUSUM(ref, k, h float64) (*CUSUM, error) {
	if ref < 0 || ref > 1 || math.IsNaN(ref) {
		return nil, fmt.Errorf("estimator: CUSUM reference %v out of [0,1]", ref)
	}
	if !(k >= 0) {
		return nil, fmt.Errorf("estimator: CUSUM slack %v must be >= 0", k)
	}
	if !(h > 0) {
		return nil, fmt.Errorf("estimator: CUSUM threshold %v must be positive", h)
	}
	return &CUSUM{ref: ref, k: k, h: h}, nil
}

// Reset re-centres the detector on a new reference rate.
func (c *CUSUM) Reset(ref float64) {
	c.ref = ref
	c.gPos, c.gNeg = 0, 0
}

// Add consumes one arrival indicator and reports whether a change fired
// this slot. After an alarm the statistics reset automatically.
func (c *CUSUM) Add(arrivals int) bool {
	v := 0.0
	if arrivals > 0 {
		v = 1
	}
	d := v - c.ref
	// The builtin max gives math.Max's results, NaN and signed zeros
	// included, and inlines; on amd64 math.Max is an out-of-line call.
	c.gPos = max(0, c.gPos+d-c.k)
	c.gNeg = max(0, c.gNeg-d-c.k)
	if c.gPos > c.h || c.gNeg > c.h {
		c.gPos, c.gNeg = 0, 0
		return true
	}
	return false
}
