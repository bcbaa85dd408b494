package ctsim_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/rng"
)

// chainLearner is a native learner that records the feedback chain it is
// handed and checks it as it goes. Its rule cycles the device through
// its latent transitions: wake on backlog, park shallow while recently
// idle (asking to be woken when the idle clock crosses the threshold),
// drop deep after threshold seconds of idleness.
type chainLearner struct {
	wake, shallow, deep device.StateID
	threshold           float64

	decides   int
	feedbacks int
	first     ctsim.Observation // the first Decide's observation
	lastNext  ctsim.Observation // the last delivered fb.Next
	pending   bool              // a feedback was delivered and no Decide followed yet

	crashedTicks int // feedbacks on a settled device followed by no Decide
	transTicks   int // feedbacks on a mid-transition device followed by no Decide
	latent       int // intervals whose action started a latent transition

	psm *device.PSM
	err error // the first broken link
}

func (l *chainLearner) Name() string { return "chain-recorder" }

func (l *chainLearner) fail(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf(format, args...)
	}
}

func (l *chainLearner) Decide(obs ctsim.Observation) ctsim.Decision {
	switch {
	case l.decides == 0:
		l.first = obs
	case !l.pending:
		l.fail("decide %d at t=%v: no feedback delivered since the previous decide", l.decides, obs.Now)
	case !sameObs(obs, l.lastNext):
		l.fail("decide %d: sees %+v, but the feedback just delivered ended at %+v", l.decides, obs, l.lastNext)
	}
	l.decides++
	l.pending = false
	switch {
	case obs.Queue > 0:
		return ctsim.Decision{Target: l.wake}
	case obs.IdleTime >= l.threshold:
		return ctsim.Decision{Target: l.deep}
	default:
		return ctsim.Decision{Target: l.shallow, Wake: l.threshold - obs.IdleTime}
	}
}

func (l *chainLearner) Observe(fb *ctsim.Feedback) {
	if l.pending {
		// The previous interval closed without a decision: the device was
		// either switching or crashed at that tick.
		if l.lastNext.Transitioning {
			l.transTicks++
		} else {
			l.crashedTicks++
		}
	}
	want := l.lastNext
	if l.feedbacks == 0 {
		want = l.first
	}
	if !sameObs(fb.Prev, want) {
		l.fail("feedback %d: Prev = %+v, want the previous Next %+v", l.feedbacks, fb.Prev, want)
	}
	if fb.Action != fb.Prev.Phase && l.psm.Trans[fb.Prev.Phase][fb.Action].Latency > 0 {
		l.latent++
	}
	l.feedbacks++
	l.lastNext = fb.Next
	l.pending = true
}

// sameObs compares two observations bit for bit.
func sameObs(a, b ctsim.Observation) bool {
	return a.Phase == b.Phase && a.Transitioning == b.Transitioning &&
		a.Queue == b.Queue &&
		math.Float64bits(a.IdleTime) == math.Float64bits(b.IdleTime) &&
		math.Float64bits(a.Now) == math.Float64bits(b.Now)
}

// TestLearnerFeedbackChain pins what the simulator promises a learner:
// each interval opens on the observation the previous one closed with
// (fb.Prev is the previous fb.Next, bit for bit), every Decide after
// the first sees the fb.Next that was just delivered, and a tick on a crashed device delivers its
// feedback without consulting the policy. It runs under the periodic
// governor and event-driven, with and without crash faults, on a device
// whose deep state is reached and left through latent transitions.
func TestLearnerFeedbackChain(t *testing.T) {
	psm := device.Synthetic3()
	for _, tc := range []struct {
		name   string
		period float64
		faults bool
	}{
		{"governor", 0.5, false},
		{"governor-crash", 0.5, true},
		{"event-driven", 0, false},
		{"event-driven-crash", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := &chainLearner{wake: 0, shallow: 1, deep: 2, threshold: 2, psm: psm}
			cfg := ctsim.Config{
				Device: psm, QueueCap: 8, LatencyWeight: 0.6, Policy: l,
				Source: expSource(t, 0.4), Stream: rng.New(11),
				DecisionPeriod: tc.period,
			}
			if tc.faults {
				cfg.Faults = &ctsim.Faults{
					CrashMTBF: 40, RepairMean: 3,
					FailProb: 0.1, RetryMax: 2, Backoff: 0.2,
					Stream: rng.New(12),
				}
			}
			sim, err := ctsim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(3000); err != nil {
				t.Fatal(err)
			}
			if l.err != nil {
				t.Fatal(l.err)
			}
			m := sim.Metrics()
			if l.feedbacks < 1000 || l.latent == 0 {
				t.Fatalf("chain too thin to pin anything: %d feedbacks, %d latent-transition intervals", l.feedbacks, l.latent)
			}
			if tc.faults && m.Crashes == 0 {
				t.Fatal("fault run never crashed")
			}
			// Only the governor closes intervals without deciding: mid-
			// transition, and on a crashed device.
			periodic := tc.period > 0
			if periodic != (l.transTicks > 0) {
				t.Errorf("%d feedbacks delivered mid-transition without a decision, want some exactly under the governor", l.transTicks)
			}
			if (periodic && tc.faults) != (l.crashedTicks > 0) {
				t.Errorf("%d feedbacks on a settled device without a decision, want some exactly under the governor with crashes", l.crashedTicks)
			}
		})
	}
}
