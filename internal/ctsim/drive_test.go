package ctsim_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/slotsim"
)

// A Sim drives a policy built by ctsim.Adapt itself, quantizing each
// decision point once; any other Policy, including one that wraps an
// adapted policy, goes through the adapter's own Decide and Observe.
// The tests here pin that both paths hand the slotted policy the same
// observations and feedback, so the two give the same run bit for bit.

// wrapped hides an adapted policy from the simulator behind a
// transparent ctsim.Policy, forcing the adapter path. decides counts the
// calls, so a test can tell the wrapper was consulted.
type wrapped struct {
	p       ctsim.Policy
	decides int
}

func (w *wrapped) Name() string { return w.p.Name() }

func (w *wrapped) Decide(o ctsim.Observation) ctsim.Decision {
	w.decides++
	return w.p.Decide(o)
}

// wrappedLearner is wrapped for an adapted learner.
type wrappedLearner struct {
	wrapped
	l ctsim.Learner
}

func (w *wrappedLearner) Observe(fb *ctsim.Feedback) { w.l.Observe(fb) }

// wrap returns p behind a transparent wrapper that keeps its Learner-ness.
func wrap(p ctsim.Policy) ctsim.Policy {
	if l, ok := p.(ctsim.Learner); ok {
		return &wrappedLearner{wrapped{p: p}, l}
	}
	return &wrapped{p: p}
}

// wrapperDecides reports how often a wrap result was consulted, and
// false for a policy that is not one.
func wrapperDecides(p ctsim.Policy) (int, bool) {
	switch w := p.(type) {
	case *wrapped:
		return w.decides, true
	case *wrappedLearner:
		return w.decides, true
	}
	return 0, false
}

// driveConfig builds a validated governor replica of an adapted slotted
// policy on synthetic3 with Poisson arrivals, optionally behind wrap and
// with crash and retry faults. Every piece of state — policy, source,
// streams — is fresh, so two builds of one seed run independently.
func driveConfig(t *testing.T, learner, wrapIt, faults bool, seed uint64) ctsim.Config {
	t.Helper()
	psm := device.Synthetic3()
	var sp slotsim.Policy
	if learner {
		sp = qdpmManager(t, psm, 0.5, 8, 0.6, rng.New(seed+1))
	} else {
		dev, err := psm.Slot(0.5)
		if err != nil {
			t.Fatal(err)
		}
		if sp, err = policy.NewFixedTimeout(dev, 6); err != nil {
			t.Fatal(err)
		}
	}
	pol := ctsim.Adapt(sp, 0.5)
	if wrapIt {
		pol = wrap(pol)
	}
	cfg := ctsim.Config{
		Device: psm, QueueCap: 8, LatencyWeight: 0.6, Policy: pol,
		Source: expSource(t, 0.4), Stream: rng.New(seed),
		DecisionPeriod: 0.5,
	}
	if faults {
		cfg.Faults = &ctsim.Faults{
			CrashMTBF: 40, RepairMean: 3,
			FailProb: 0.1, RetryMax: 2, Backoff: 0.2,
			Stream: rng.New(seed + 2),
		}
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestDirectDriveMatchesWrappedAdapter runs an adapted Q-DPM learner and
// an adapted fixed timeout under the governor, with and without crash
// faults, once driven directly and once behind a transparent wrapper,
// and requires bit-identical Metrics. Each simulator then takes the
// other path for a second replica through ResetValidated, so a reset
// that switches between the direct drive and the adapter path must
// leave nothing of the previous one behind.
func TestDirectDriveMatchesWrappedAdapter(t *testing.T) {
	const horizon = 1500
	for _, learner := range []bool{true, false} {
		for _, faults := range []bool{false, true} {
			t.Run(fmt.Sprintf("learner=%v/faults=%v", learner, faults), func(t *testing.T) {
				run := func(sim *ctsim.Sim, cfg ctsim.Config) ctsim.Metrics {
					t.Helper()
					if err := sim.Run(horizon); err != nil {
						t.Fatal(err)
					}
					m := sim.Metrics()
					if n, ok := wrapperDecides(cfg.Policy); ok && n != int(m.Decisions) {
						t.Fatalf("wrapper consulted %d times over %d decisions", n, m.Decisions)
					}
					return m
				}
				newSim := func(cfg ctsim.Config) *ctsim.Sim {
					t.Helper()
					sim, err := ctsim.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return sim
				}
				// Replica 1 (seed 21): direct on one simulator, wrapped on
				// the other. Replica 2 (seed 31): each simulator switches.
				d1, w1 := driveConfig(t, learner, false, faults, 21), driveConfig(t, learner, true, faults, 21)
				d2, w2 := driveConfig(t, learner, false, faults, 31), driveConfig(t, learner, true, faults, 31)
				simA, simB := newSim(d1), newSim(w1)
				direct1, wrapped1 := run(simA, d1), run(simB, w1)
				if direct1.Decisions < 1000 || direct1.Commands == 0 {
					t.Fatalf("run too thin to pin anything: %d decisions, %d commands", direct1.Decisions, direct1.Commands)
				}
				if faults && direct1.Crashes == 0 {
					t.Fatal("fault run never crashed")
				}
				if d := diffMetrics(direct1, wrapped1); d != "" {
					t.Fatalf("direct drive differs from the wrapped adapter: %s", d)
				}
				if err := simA.ResetValidated(w2); err != nil {
					t.Fatal(err)
				}
				if err := simB.ResetValidated(d2); err != nil {
					t.Fatal(err)
				}
				wrapped2, direct2 := run(simA, w2), run(simB, d2)
				if d := diffMetrics(direct2, wrapped2); d != "" {
					t.Fatalf("after ResetValidated, direct drive differs from the wrapped adapter: %s", d)
				}
				if d := diffMetrics(direct2, direct1); d == "" {
					t.Fatal("replicas of two seeds read the same: the comparison pins nothing")
				}
			})
		}
	}
}

// slotChainLearner is chainLearner's slotted analog: an adapted slotted
// learner that records the feedback chain the simulator hands it and
// checks it as it goes. Its rule wakes on backlog, parks shallow while
// recently idle and drops deep after threshold idle slots, so its
// intervals cross latent transitions both ways.
type slotChainLearner struct {
	wake, shallow, deep device.StateID
	threshold           int64

	decides   int
	feedbacks int
	first     slotsim.Observation // the first Decide's observation
	lastNext  slotsim.Observation // the last delivered fb.Next
	pending   bool                // a feedback was delivered and no Decide followed yet

	crashedTicks int // feedbacks on a settled device followed by no Decide
	transTicks   int // feedbacks on a mid-transition device followed by no Decide

	// Running totals of the delivered Action, Energy and Arrived fields.
	actions, arrived int
	energy           float64

	err error // the first broken link
}

func (l *slotChainLearner) Name() string { return "slot-chain-recorder" }

func (l *slotChainLearner) fail(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf(format, args...)
	}
}

func (l *slotChainLearner) Decide(obs slotsim.Observation) device.StateID {
	switch {
	case l.decides == 0:
		l.first = obs
	case !l.pending:
		l.fail("decide %d at slot %d: no feedback delivered since the previous decide", l.decides, obs.Slot)
	case obs != l.lastNext:
		l.fail("decide %d: sees %+v, but the feedback just delivered ended at %+v", l.decides, obs, l.lastNext)
	}
	l.decides++
	l.pending = false
	switch {
	case obs.Queue > 0:
		return l.wake
	case obs.IdleSlots >= l.threshold:
		return l.deep
	default:
		return l.shallow
	}
}

func (l *slotChainLearner) Observe(fb *slotsim.Feedback) {
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
	if fb.Prev != want {
		l.fail("feedback %d: Prev = %+v, want the previous Next %+v", l.feedbacks, fb.Prev, want)
	}
	l.feedbacks++
	l.actions += int(fb.Action)
	l.arrived += fb.Arrived
	l.energy += fb.Energy
	l.lastNext = fb.Next
	l.pending = true
}

// TestSlottedLearnerFeedbackChain is TestLearnerFeedbackChain for an
// adapted slotted learner: each slotted interval opens on the
// observation the previous one closed with (Prev is the previous Next,
// bit for bit), every Decide after the first sees the Next just
// delivered, and a tick on a crashed device delivers its feedback
// without a Decide. It runs under the periodic governor and
// event-driven, with and without crash faults, on the direct drive and
// behind a wrapper (the adapter path); the two paths must deliver the
// same decisions and feedback totals.
func TestSlottedLearnerFeedbackChain(t *testing.T) {
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
		var direct *slotChainLearner
		for _, wrapIt := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/wrapped=%v", tc.name, wrapIt), func(t *testing.T) {
				l := &slotChainLearner{wake: 0, shallow: 1, deep: 2, threshold: 4}
				pol := ctsim.Adapt(l, 0.5)
				if wrapIt {
					pol = wrap(pol)
				}
				cfg := ctsim.Config{
					Device: psm, QueueCap: 8, LatencyWeight: 0.6, Policy: pol,
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
				if l.feedbacks < 1000 || m.Commands == 0 {
					t.Fatalf("chain too thin to pin anything: %d feedbacks, %d commands", l.feedbacks, m.Commands)
				}
				if tc.faults && m.Crashes == 0 {
					t.Fatal("fault run never crashed")
				}
				periodic := tc.period > 0
				if periodic != (l.transTicks > 0) {
					t.Errorf("%d feedbacks delivered mid-transition without a decision, want some exactly under the governor", l.transTicks)
				}
				if (periodic && tc.faults) != (l.crashedTicks > 0) {
					t.Errorf("%d feedbacks on a settled device without a decision, want some exactly under the governor with crashes", l.crashedTicks)
				}
				if !wrapIt {
					direct = l
				} else if direct == nil {
					t.Skip("no direct run to compare with")
				} else if l.decides != direct.decides || l.feedbacks != direct.feedbacks || l.actions != direct.actions ||
					l.arrived != direct.arrived || math.Float64bits(l.energy) != math.Float64bits(direct.energy) {
					t.Errorf("wrapped run delivered %d decides, %d feedbacks, actions %d, arrived %d, energy %v; direct %d, %d, %d, %d, %v",
						l.decides, l.feedbacks, l.actions, l.arrived, l.energy,
						direct.decides, direct.feedbacks, direct.actions, direct.arrived, direct.energy)
				}
			})
		}
	}
}
