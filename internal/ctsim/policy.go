// Continuous-time decision interface, native baseline policies, and the
// adapter that runs any slotted policy (including the Q-DPM learner)
// unmodified in continuous time.
package ctsim

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/policy"
	"repro/internal/slotsim"
)

// Decision is a policy's command at a decision point.
type Decision struct {
	// Target is the desired power state.
	Target device.StateID
	// Wake > 0 requests a decision callback after Wake seconds even if no
	// other event occurs (event-driven mode only; each decision replaces
	// the previous request). Timeout-style policies use it to fire their
	// shutdown exactly when the idle threshold crosses.
	Wake float64
}

// Policy decides power-state commands in continuous time.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Decide returns the command for the coming interval. It is only
	// called when the device is settled (not mid-transition).
	Decide(obs Observation) Decision
}

// Learner is a Policy that adapts online from per-interval feedback.
type Learner interface {
	Policy
	// Observe delivers the outcome of each decision interval. fb points
	// into scratch the simulator reuses every interval: it is valid only
	// for the duration of the call, and implementations must copy any
	// fields they keep. Implementations must not modify *fb: fb.Next is
	// the observation the simulator then decides on and opens the next
	// interval with (that interval's fb.Prev).
	Observe(fb *Feedback)
}

// ---------------------------------------------------------------------------
// Native continuous-time baselines

// AlwaysOn keeps the device in its service state forever.
type AlwaysOn struct{ wake device.StateID }

// NewAlwaysOn derives the service state from the device.
func NewAlwaysOn(psm *device.PSM) (*AlwaysOn, error) {
	r, err := policy.DeriveRoles(psm)
	if err != nil {
		return nil, err
	}
	return &AlwaysOn{wake: r.Wake}, nil
}

// Name identifies the policy.
func (p *AlwaysOn) Name() string { return "always-on" }

// Decide always returns the service state.
func (p *AlwaysOn) Decide(Observation) Decision { return Decision{Target: p.wake} }

// GreedyOff sleeps the moment the queue is empty and wakes the moment it
// is not. Arrivals and completions are the only relevant state changes, so
// it needs no wake timer.
type GreedyOff struct{ r policy.Roles }

// NewGreedyOff derives role states from the device.
func NewGreedyOff(psm *device.PSM) (*GreedyOff, error) {
	r, err := policy.DeriveRoles(psm)
	if err != nil {
		return nil, err
	}
	return &GreedyOff{r: r}, nil
}

// Name identifies the policy.
func (p *GreedyOff) Name() string { return "greedy-off" }

// Decide wakes on backlog, sleeps otherwise.
func (p *GreedyOff) Decide(obs Observation) Decision {
	if obs.Queue > 0 {
		return Decision{Target: p.r.Wake}
	}
	return Decision{Target: p.r.Deep}
}

// Timeout is the continuous-time fixed timeout: park shallow while idle,
// drop to the deep state once the idle period exceeds Timeout seconds. In
// event-driven mode it requests a wake timer for the exact expiry instant,
// so the shutdown is not quantized to any grid.
type Timeout struct {
	r policy.Roles
	// Timeout is the idle threshold in seconds.
	Timeout float64
}

// NewTimeout validates the threshold (>= 0; 0 degenerates to greedy-off).
func NewTimeout(psm *device.PSM, timeout float64) (*Timeout, error) {
	if timeout < 0 || math.IsNaN(timeout) {
		return nil, fmt.Errorf("ctsim: negative timeout %v", timeout)
	}
	r, err := policy.DeriveRoles(psm)
	if err != nil {
		return nil, err
	}
	return &Timeout{r: r, Timeout: timeout}, nil
}

// Name identifies the policy.
func (p *Timeout) Name() string { return fmt.Sprintf("ct-timeout-%g", p.Timeout) }

// Decide wakes on backlog; otherwise parks shallow until the timeout
// expires, then deep, asking to be woken exactly at the expiry.
func (p *Timeout) Decide(obs Observation) Decision {
	if obs.Queue > 0 {
		return Decision{Target: p.r.Wake}
	}
	if obs.IdleTime >= p.Timeout {
		return Decision{Target: p.r.Deep}
	}
	d := Decision{Target: obs.Phase, Wake: p.Timeout - obs.IdleTime}
	if obs.Phase == p.r.Wake {
		d.Target = p.r.Shallow
	}
	return d
}

// ---------------------------------------------------------------------------
// Slotted-policy adapter

// slotAdapter exposes a slotsim.Policy as a ctsim.Policy under a periodic
// governor: continuous observations are quantized onto the reference slot
// (idle seconds → idle-slot count saturating at slotsim.IdleSaturation,
// clock → slot index), so the slotted policy sees exactly the observation
// stream it was written for.
//
// A Sim whose Config.Policy is an adapter does not call the adapter's
// Decide and Observe: it drives p and l itself, quantizing each decision
// point's observation once, straight from its own state (Sim.observe).
// The methods below serve a caller that wraps the adapted policy, which
// hides the adapter from the Sim; both paths quantize through the one
// function, quantize, so they hand the slotted policy the same bits.
type slotAdapter struct {
	p slotsim.Policy
	// l is p as a learner, nil when p does not learn.
	l    slotsim.Learner
	slot float64

	// invSlot is 1/slot when slot is a power of two, else 0. For a
	// power-of-two slot, x/slot and x*(1/slot) are the same exponent
	// shift — bit-identical for every x — and the multiply avoids two
	// hardware divides per quantization on the canonical 0.5 s grid.
	invSlot float64
}

// slotLearnerAdapter additionally forwards per-interval feedback, so
// slotted learners — the Q-DPM manager above all — run unmodified: the
// manager's SMDP update sees one feedback per decision interval and its
// γ^k discount over k intervals equals a discount over the actual sojourn
// time k·slot seconds.
type slotLearnerAdapter struct {
	slotAdapter

	// sfb is the quantized-feedback scratch of the wrapped path,
	// forwarded by pointer each interval (the slotsim.Learner contract:
	// receivers copy what they keep).
	sfb slotsim.Feedback
}

// Adapt wraps a slotted policy for continuous time with the given
// reference slot duration (seconds). The result implements Learner when p
// does. Use it with Config.DecisionPeriod == refSlot: slotted policies
// expect a decision per slot, so the periodic governor supplies their
// cadence; event-driven mode would starve them. A Sim configured with the
// result drives p directly, one quantized observation per decision point;
// the result's own Decide and Observe run only when another Policy wraps
// it. A non-positive or non-finite refSlot is a programming error and
// panics.
func Adapt(p slotsim.Policy, refSlot float64) Policy {
	if !(refSlot > 0) || math.IsInf(refSlot, 0) {
		panic(fmt.Sprintf("ctsim: Adapt requires a positive finite reference slot, got %v", refSlot))
	}
	a := slotAdapter{p: p, slot: refSlot}
	if frac, _ := math.Frexp(refSlot); frac == 0.5 {
		a.invSlot = 1 / refSlot
	}
	if l, ok := p.(slotsim.Learner); ok {
		a.l = l
		return &slotLearnerAdapter{slotAdapter: a}
	}
	return &a
}

// Name identifies the wrapped policy.
func (a *slotAdapter) Name() string { return a.p.Name() }

// quantize writes the slotted view of a continuous observation into out,
// every field in place (a composite literal would build a temporary and
// block-copy it): idle seconds floor to idle slots, saturating at
// slotsim.IdleSaturation, and the clock rounds to the slot index.
func (a *slotAdapter) quantize(out *slotsim.Observation, phase device.StateID, transitioning bool, queue int, idleTime, now float64) {
	var idleSlots float64
	if a.invSlot != 0 {
		idleSlots, now = idleTime*a.invSlot, now*a.invSlot
	} else {
		idleSlots, now = idleTime/a.slot, now/a.slot
	}
	idle := int64(math.Floor(idleSlots + 1e-9))
	if idle > slotsim.IdleSaturation {
		idle = slotsim.IdleSaturation
	}
	out.Phase = phase
	out.Transitioning = transitioning
	out.Queue = queue
	out.IdleSlots = idle
	out.Slot = int64(math.Round(now))
}

// sObs quantizes a continuous observation onto the reference slot grid.
func (a *slotAdapter) sObs(in *Observation, out *slotsim.Observation) {
	a.quantize(out, in.Phase, in.Transitioning, in.Queue, in.IdleTime, in.Now)
}

// Decide forwards the quantized observation.
func (a *slotAdapter) Decide(o Observation) Decision {
	var so slotsim.Observation
	a.sObs(&o, &so)
	return Decision{Target: a.p.Decide(so)}
}

// Observe forwards the interval outcome as one slot of feedback,
// quantizing both observations straight into the scratch record and
// filling the rest field by field — a composite literal would build a
// temporary Feedback and block-copy it into the scratch.
func (a *slotLearnerAdapter) Observe(fb *Feedback) {
	a.sObs(&fb.Prev, &a.sfb.Prev)
	a.sfb.Action = fb.Action
	a.sfb.Energy = fb.Energy
	a.sfb.Arrived = fb.Arrived
	a.sObs(&fb.Next, &a.sfb.Next)
	a.l.Observe(&a.sfb)
}
