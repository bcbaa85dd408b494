// Package policy implements the classical DPM policies Q-DPM is compared
// against in the derived tables, plus the adapter that turns an exactly-
// solved MDP policy into a simulator policy (the "optimal policy derived
// by analytical techniques" of Fig. 1):
//
//   - AlwaysOn: never leaves the service state (the energy-reduction
//     baseline every series is normalized against);
//   - GreedyOff: sleeps the instant the queue is empty;
//   - FixedTimeout: sleeps after a fixed idle period (the policy every
//     commercial OS ships);
//   - AdaptiveTimeout: multiplicative-increase/linear-decrease timeout
//     adjustment (Douglis-style);
//   - Predictive: exponential-average idle-period prediction (Hwang–Wu);
//   - Optimal: exact DTMDP policy from internal/mdp.
package policy

import (
	"fmt"
	"sort"

	"repro/internal/device"
	"repro/internal/mdp"
	"repro/internal/slotsim"
)

// Roles identifies the wake/shallow/deep states of a device by power
// ordering. The slotted policies here and the continuous-time policies in
// internal/ctsim (which manage the physical PSM directly) share it.
type Roles struct {
	// Wake is the first servicing state.
	Wake device.StateID
	// Shallow is the hungriest non-servicing parking state reachable from
	// Wake (and back).
	Shallow device.StateID
	// Deep is the thriftiest such parking state.
	Deep device.StateID
}

// DeriveRoles computes the role states of a PSM: wake = first servicing
// state; candidates are non-servicing states with an allowed round trip to
// wake; deep is the thriftiest candidate and shallow the hungriest.
func DeriveRoles(psm *device.PSM) (Roles, error) {
	var r Roles
	found := false
	for i, st := range psm.States {
		if st.CanService {
			r.Wake = device.StateID(i)
			found = true
			break
		}
	}
	if !found {
		return r, fmt.Errorf("policy: device %s has no service state", psm.Name)
	}
	// Candidates: reachable from wake, can reach wake back.
	type cand struct {
		id    device.StateID
		power float64
	}
	var cands []cand
	for j := range psm.States {
		id := device.StateID(j)
		if id == r.Wake || psm.States[j].CanService {
			continue
		}
		if psm.Allowed(r.Wake, id) && psm.Allowed(id, r.Wake) {
			cands = append(cands, cand{id: id, power: psm.States[j].Power})
		}
	}
	if len(cands) == 0 {
		return r, fmt.Errorf("policy: device %s has no parking state reachable from wake", psm.Name)
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].power < cands[b].power })
	r.Deep = cands[0].id
	r.Shallow = cands[len(cands)-1].id // hungriest parking state
	return r, nil
}

// ---------------------------------------------------------------------------

// AlwaysOn keeps the device in its service state forever.
type AlwaysOn struct{ wake device.StateID }

var _ slotsim.Policy = (*AlwaysOn)(nil)

// NewAlwaysOn derives the service state from the device.
func NewAlwaysOn(dev *device.Slotted) (*AlwaysOn, error) {
	r, err := DeriveRoles(dev.PSM)
	if err != nil {
		return nil, err
	}
	return &AlwaysOn{wake: r.Wake}, nil
}

// Name identifies the policy.
func (p *AlwaysOn) Name() string { return "always-on" }

// Decide always returns the service state.
func (p *AlwaysOn) Decide(slotsim.Observation) device.StateID { return p.wake }

// Reset restores the freshly-constructed state (a no-op: AlwaysOn is
// stateless). Every classical policy carries a Reset so one instance can
// be reused across independent replicas without reconstruction.
func (p *AlwaysOn) Reset() {}

// ---------------------------------------------------------------------------

// GreedyOff sleeps the moment the queue is empty and wakes the moment it
// is not — optimal when transitions are free, pathological when they are
// not.
type GreedyOff struct{ r Roles }

var _ slotsim.Policy = (*GreedyOff)(nil)

// NewGreedyOff derives role states from the device.
func NewGreedyOff(dev *device.Slotted) (*GreedyOff, error) {
	r, err := DeriveRoles(dev.PSM)
	if err != nil {
		return nil, err
	}
	return &GreedyOff{r: r}, nil
}

// Name identifies the policy.
func (p *GreedyOff) Name() string { return "greedy-off" }

// Decide wakes on backlog, sleeps otherwise.
func (p *GreedyOff) Decide(obs slotsim.Observation) device.StateID {
	if obs.Queue > 0 {
		return p.r.Wake
	}
	return p.r.Deep
}

// Reset restores the freshly-constructed state (a no-op: GreedyOff is
// stateless).
func (p *GreedyOff) Reset() {}

// ---------------------------------------------------------------------------

// FixedTimeout parks in the shallow state when idle and drops to the deep
// state once the idle period exceeds TimeoutSlots.
type FixedTimeout struct {
	r            Roles
	TimeoutSlots int64
}

var _ slotsim.Policy = (*FixedTimeout)(nil)

// NewFixedTimeout validates the timeout: at least 0 (0 degenerates to
// greedy) and at most slotsim.IdleSaturation, where the observed idle
// count stops growing — a longer timeout would never fire.
func NewFixedTimeout(dev *device.Slotted, timeoutSlots int64) (*FixedTimeout, error) {
	if timeoutSlots < 0 {
		return nil, fmt.Errorf("policy: negative timeout %d", timeoutSlots)
	}
	if err := checkIdleCap("timeout", timeoutSlots); err != nil {
		return nil, err
	}
	r, err := DeriveRoles(dev.PSM)
	if err != nil {
		return nil, err
	}
	return &FixedTimeout{r: r, TimeoutSlots: timeoutSlots}, nil
}

// Name identifies the policy.
func (p *FixedTimeout) Name() string { return fmt.Sprintf("timeout-%d", p.TimeoutSlots) }

// Decide wakes on backlog; otherwise parks shallow until the timeout
// expires, then deep.
func (p *FixedTimeout) Decide(obs slotsim.Observation) device.StateID {
	if obs.Queue > 0 {
		return p.r.Wake
	}
	if obs.IdleSlots >= p.TimeoutSlots {
		return p.r.Deep
	}
	if obs.Phase == p.r.Wake {
		return p.r.Shallow
	}
	return obs.Phase
}

// Reset restores the freshly-constructed state (a no-op: FixedTimeout
// is stateless — the idle counter lives in the observation).
func (p *FixedTimeout) Reset() {}

// ---------------------------------------------------------------------------

// checkIdleCap rejects a timeout the idle-slot count can never reach: it
// saturates at slotsim.IdleSaturation.
func checkIdleCap(what string, slots int64) error {
	if slots > slotsim.IdleSaturation {
		return fmt.Errorf("policy: %s %d slots above the idle-slot cap %d (slotsim.IdleSaturation): it would never fire",
			what, slots, slotsim.IdleSaturation)
	}
	return nil
}

// AdaptiveTimeout adjusts a FixedTimeout online: a premature shutdown
// (sleep shorter than the device break-even) doubles the timeout; a
// well-amortized sleep shortens it by one slot.
type AdaptiveTimeout struct {
	r        Roles
	timeout  int64
	initial  int64
	min, max int64

	breakEvenSlots int64
	sleepStart     int64 // slot the device entered deep (-1 = not sleeping)
}

var _ slotsim.Learner = (*AdaptiveTimeout)(nil)

// NewAdaptiveTimeout derives the break-even horizon from the device. The
// bounds must satisfy 0 <= min <= initial <= max <= slotsim.IdleSaturation.
func NewAdaptiveTimeout(dev *device.Slotted, initial, min, max int64) (*AdaptiveTimeout, error) {
	if min < 0 || max < min || initial < min || initial > max {
		return nil, fmt.Errorf("policy: adaptive timeout bounds invalid: initial=%d min=%d max=%d", initial, min, max)
	}
	if err := checkIdleCap("adaptive timeout max", max); err != nil {
		return nil, err
	}
	r, err := DeriveRoles(dev.PSM)
	if err != nil {
		return nil, err
	}
	tbe, err := dev.PSM.BreakEven(r.Shallow, r.Deep)
	if err != nil {
		return nil, err
	}
	be := int64(tbe / dev.SlotDuration)
	if be < 1 {
		be = 1
	}
	return &AdaptiveTimeout{
		r: r, timeout: initial, initial: initial, min: min, max: max,
		breakEvenSlots: be, sleepStart: -1,
	}, nil
}

// Reset restores the freshly-constructed state: the timeout returns to
// its initial value and any in-progress sleep judgement is discarded.
func (p *AdaptiveTimeout) Reset() {
	p.timeout = p.initial
	p.sleepStart = -1
}

// Name identifies the policy.
func (p *AdaptiveTimeout) Name() string { return "adaptive-timeout" }

// Timeout returns the current timeout in slots.
func (p *AdaptiveTimeout) Timeout() int64 { return p.timeout }

// Decide behaves like FixedTimeout with the current timeout.
func (p *AdaptiveTimeout) Decide(obs slotsim.Observation) device.StateID {
	if obs.Queue > 0 {
		return p.r.Wake
	}
	if obs.IdleSlots >= p.timeout {
		return p.r.Deep
	}
	if obs.Phase == p.r.Wake {
		return p.r.Shallow
	}
	return obs.Phase
}

// Observe adapts the timeout on sleep outcomes.
func (p *AdaptiveTimeout) Observe(fb *slotsim.Feedback) {
	// Entering deep sleep.
	if p.sleepStart < 0 && fb.Action == p.r.Deep && fb.Prev.Phase != p.r.Deep {
		p.sleepStart = fb.Prev.Slot
		return
	}
	// Waking up: judge the sleep length.
	if p.sleepStart >= 0 && fb.Arrived > 0 {
		sleptFor := fb.Next.Slot - p.sleepStart
		if sleptFor < p.breakEvenSlots {
			p.timeout *= 2
			if p.timeout > p.max {
				p.timeout = p.max
			}
		} else if p.timeout > p.min {
			p.timeout--
		}
		p.sleepStart = -1
	}
}

// ---------------------------------------------------------------------------

// Predictive implements Hwang–Wu exponential-average idle prediction: at
// the start of each idle period it predicts the period's length from an
// exponential average of past idle periods and sleeps immediately when the
// prediction exceeds the device break-even.
type Predictive struct {
	r              Roles
	predicted      float64
	breakEvenSlots float64

	idleStart int64 // slot the current idle period began (-1 = busy)
}

var _ slotsim.Learner = (*Predictive)(nil)

// predictiveAlpha is the weight of the latest idle period in the
// exponential average.
const predictiveAlpha = 0.5

// NewPredictive returns the predictor for dev, its prediction starting
// at the break-even time.
func NewPredictive(dev *device.Slotted) (*Predictive, error) {
	r, err := DeriveRoles(dev.PSM)
	if err != nil {
		return nil, err
	}
	tbe, err := dev.PSM.BreakEven(r.Shallow, r.Deep)
	if err != nil {
		return nil, err
	}
	be := tbe / dev.SlotDuration
	if be < 1 {
		be = 1
	}
	return &Predictive{r: r, breakEvenSlots: be, idleStart: -1, predicted: be}, nil
}

// Reset restores the freshly-constructed state: the prediction returns
// to the break-even prior and the idle-period tracker clears.
func (p *Predictive) Reset() {
	p.predicted = p.breakEvenSlots
	p.idleStart = -1
}

// Name identifies the policy.
func (p *Predictive) Name() string { return "predictive" }

// Decide sleeps at idle start when the predicted idle period beats
// break-even, else parks shallow.
func (p *Predictive) Decide(obs slotsim.Observation) device.StateID {
	if obs.Queue > 0 {
		return p.r.Wake
	}
	if p.predicted >= p.breakEvenSlots {
		return p.r.Deep
	}
	if obs.Phase == p.r.Wake {
		return p.r.Shallow
	}
	return obs.Phase
}

// Observe tracks idle periods and updates the exponential average.
func (p *Predictive) Observe(fb *slotsim.Feedback) {
	busy := fb.Next.Queue > 0 || fb.Arrived > 0
	switch {
	case p.idleStart < 0 && !busy:
		p.idleStart = fb.Next.Slot
	case p.idleStart >= 0 && busy:
		actual := float64(fb.Next.Slot - p.idleStart)
		p.predicted = predictiveAlpha*actual + (1-predictiveAlpha)*p.predicted
		p.idleStart = -1
	}
}

// ---------------------------------------------------------------------------

// Optimal adapts an exactly-solved MDP policy (internal/mdp) to the
// simulator: the analytical reference of Fig. 1.
type Optimal struct {
	d   *mdp.DPM
	pol mdp.Policy
}

var _ slotsim.Policy = (*Optimal)(nil)

// NewOptimal wraps a solved policy. The policy must belong to the model.
func NewOptimal(d *mdp.DPM, pol mdp.Policy) (*Optimal, error) {
	if d == nil {
		return nil, fmt.Errorf("policy: nil model")
	}
	if len(pol) != d.N {
		return nil, fmt.Errorf("policy: policy length %d != model states %d", len(pol), d.N)
	}
	return &Optimal{d: d, pol: pol}, nil
}

// Name identifies the policy.
func (p *Optimal) Name() string { return "optimal" }

// Reset restores the freshly-constructed state (a no-op: the solved
// policy is immutable).
func (p *Optimal) Reset() {}

// Decide looks the commanded state up in the solved policy.
func (p *Optimal) Decide(obs slotsim.Observation) device.StateID {
	q := obs.Queue
	if q > p.d.Cfg.QueueCap {
		q = p.d.Cfg.QueueCap
	}
	target, err := p.d.ActionTarget(p.pol, obs.Phase, q)
	if err != nil {
		return obs.Phase
	}
	return target
}
