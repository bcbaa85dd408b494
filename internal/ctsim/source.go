// Arrival sources: renewal processes over any continuous interarrival law
// and trace playback.
package ctsim

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Source emits successive absolute arrival times in seconds,
// nondecreasing. It returns +Inf when exhausted. Sources carry a cursor;
// build a fresh one per simulation.
type Source interface {
	// Next returns the next arrival time, drawing randomness from s.
	Next(s *rng.Stream) float64
	// String describes the source.
	String() string
}

// renewalGapBlock sizes the interarrival gap buffer: block draws start
// at renewalMinBlock gaps and double per refill up to renewalMaxBlock,
// so a low-rate instance whose first gap already clears its horizon
// draws exactly one variate while long runs amortize one bulk-fill call
// across 64 events. SetLimit replaces the ramp with expectation-sized
// blocks (see refillSize), so a bounded-horizon instance typically pays
// one bulk fill total. Over-drawing is pure waste — at a million
// short-horizon instances discarded variates dominate the per-instance
// reset cost — so blocks never exceed the expected remaining draws.
const (
	renewalMinBlock = 1
	renewalMaxBlock = 64
)

// RenewalSource draws i.i.d. interarrival gaps from a continuous law —
// Poisson arrivals for Exponential, heavy-tailed renewal traffic for
// Pareto or Weibull.
//
// When the law implements dist.BulkSampler (every law in package dist
// does), the source draws gaps in geometrically growing blocks through
// one devirtualized SampleInto call instead of one interface dispatch
// per event. Block draws consume the stream exactly as sequential
// Sample calls would (the BulkSampler contract), so arrival sequences —
// and therefore all simulation output — are bit-identical with and
// without batching. The stream passed to Next must be dedicated to this
// source (the ctsim.Config.Stream contract): gaps are pre-drawn, so
// interleaving another consumer on the same stream would reorder draws.
type RenewalSource struct {
	// D is the interarrival distribution in seconds.
	D dist.Continuous

	t     float64
	bulk  dist.BulkSampler // D, when it supports block draws (else nil)
	buf   []float64        // pre-drawn gaps, buf[pos:] unconsumed
	pos   int
	blk   int     // next refill size cap
	limit float64 // consumer's time limit (0 = none); sizing hint only
	mean  float64 // D's mean gap when finite and positive (else 0)
	n     int64   // arrivals emitted since Reset (rate estimate input)
}

// NewRenewalSource validates the distribution and arms block drawing
// when the law supports it.
func NewRenewalSource(d dist.Continuous) (*RenewalSource, error) {
	if d == nil {
		return nil, fmt.Errorf("ctsim: renewal source needs a distribution")
	}
	r := &RenewalSource{D: d}
	if bs, ok := d.(dist.BulkSampler); ok {
		r.bulk = bs
		r.buf = make([]float64, 0, renewalMaxBlock)
		r.blk = renewalMinBlock
		if m := d.Mean(); m > 0 && !math.IsInf(m, 1) {
			r.mean = m
		}
	}
	return r, nil
}

// SetLimit declares the absolute time beyond which the consumer will
// stop asking for arrivals (0 clears it). It is purely a pre-draw
// sizing hint: refills past the limit draw one gap at a time, and
// refills near it are capped by an empirical estimate of the arrivals
// left before it, so a bounded-horizon consumer never buys a large
// block for its final draw. The emitted arrival sequence is unchanged —
// gaps are served from the stream in order regardless of how they are
// blocked — so output stays bit-identical for every limit value. The
// limit survives Reset (it is a property of the consumer, not the run).
func (r *RenewalSource) SetLimit(t float64) { r.limit = t }

// refillSize returns the next block size. Without a limit it is the ramp
// value. With one, it is the expected number of draws left before the
// limit plus one (the consumer's final past-limit draw): the law's mean
// before any arrival has been seen, the empirical rate after. Sizing the
// first block to the expectation replaces the 1,2,4,… ramp's refill-per-
// refill overhead (slice setup plus one interface dispatch each) with a
// single bulk fill per instance for typical bounded-horizon runs, while
// keeping the expected over-draw near the sampling fluctuation of the
// arrival count.
func (r *RenewalSource) refillSize() int {
	if r.limit <= 0 {
		return r.blk
	}
	rem := r.limit - r.t
	if rem <= 0 {
		// Past the limit every draw is speculative; the consumer
		// typically wants exactly one more.
		return 1
	}
	var est float64
	switch {
	case r.n > 0 && r.t > 0:
		est = rem * float64(r.n) / r.t
	case r.mean > 0:
		est = rem / r.mean
	default:
		return r.blk
	}
	// Cap before converting: int(est) wraps once est reaches 2^63
	// (a huge limit), and a negative size would panic the refill.
	if !(est < renewalMaxBlock) {
		return renewalMaxBlock
	}
	return int(est) + 1
}

// Next advances by one sampled gap. Literal-constructed sources (no
// NewRenewalSource) have no buffer armed and fall back to per-call
// sampling — same bits, no batching.
func (r *RenewalSource) Next(s *rng.Stream) float64 {
	if r.pos < len(r.buf) {
		r.t += r.buf[r.pos]
		r.pos++
		r.n++
		return r.t
	}
	if r.bulk == nil {
		r.t += r.D.Sample(s)
		r.n++
		return r.t
	}
	r.buf = r.buf[:r.refillSize()]
	r.bulk.SampleInto(s, r.buf)
	if r.blk < renewalMaxBlock {
		r.blk *= 2
	}
	r.t = r.t + r.buf[0]
	r.pos = 1
	r.n++
	return r.t
}

// Reset rewinds the cursor to time zero and discards any pre-drawn gaps
// (they belong to the previous instance's stream), so the source can
// drive a new simulation instance without reconstruction and with the
// same stream-consumption pattern as a fresh source. The distribution is
// untouched (it is stateless by the dist.Continuous contract).
func (r *RenewalSource) Reset() {
	r.t = 0
	r.buf = r.buf[:0]
	r.pos = 0
	r.n = 0
	if r.bulk != nil {
		r.blk = renewalMinBlock
	}
}

func (r *RenewalSource) String() string { return fmt.Sprintf("renewal(%s)", r.D) }

// TraceSource replays a recorded trace's arrival times. Multiple sources
// may share one trace; each keeps its own cursor.
type TraceSource struct {
	times []float64
	pos   int
}

// NewTraceSource validates the trace and wraps it.
func NewTraceSource(tr *trace.Trace) (*TraceSource, error) {
	if tr == nil {
		return nil, fmt.Errorf("ctsim: nil trace")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &TraceSource{times: tr.Times}, nil
}

// Next returns the next recorded time, +Inf once exhausted. The stream is
// untouched: playback is deterministic by construction.
func (t *TraceSource) Next(*rng.Stream) float64 {
	if t.pos >= len(t.times) {
		return math.Inf(1)
	}
	v := t.times[t.pos]
	t.pos++
	return v
}

// Reset rewinds the playback cursor to the first recorded arrival.
func (t *TraceSource) Reset() { t.pos = 0 }

func (t *TraceSource) String() string { return fmt.Sprintf("trace(%d requests)", len(t.times)) }
