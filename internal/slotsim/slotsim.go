// Package slotsim implements the slotted discrete-time simulation of a
// power-managed system: service requester (workload) → bounded queue →
// service provider (device PSM) under the control of a pluggable power-
// management policy.
//
// Per-slot semantics (mirrored exactly by the DTMDP in internal/mdp, so
// "optimal" policies computed there are optimal here):
//
//  1. The policy observes (device phase, queue length, idle slots) and
//     commands a target power state. Commands are only accepted when the
//     device is not mid-transition; disallowed targets clamp to "stay".
//  2. A commanded change with positive latency L puts the device into a
//     transition for L slots, charging Energy/L joules per transition slot
//     (the transition energy subsumes state power during the switch). A
//     zero-latency change takes effect immediately and charges its full
//     energy in the current slot.
//  3. This slot's arrivals join the queue; overflow requests are lost.
//  4. If the device occupies a servicing state (not transitioning), it
//     serves up to ServePerSlot requests.
//  5. Energy and latency metrics accumulate; learning policies receive a
//     Feedback record.
//
// The per-slot scalar cost is energy + LatencyWeight × post-service
// backlog. The model-based optimizers minimize the long-run average of
// exactly this cost, and Q-DPM's reward is its negation, so every policy in
// the repository optimizes the same objective and Fig. 1's comparison is
// apples-to-apples.
package slotsim

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/queue"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Observation is what a policy sees at the start of a slot.
type Observation struct {
	// Phase is the current power state (the source state while a
	// transition is in progress).
	Phase device.StateID
	// Transitioning reports whether the device is mid-transition; while
	// true, Decide is not consulted.
	Transitioning bool
	// Queue is the number of buffered requests.
	Queue int
	// IdleSlots counts slots since the last arrival, saturating at
	// IdleSaturation.
	IdleSlots int64
	// Slot is the absolute slot index.
	Slot int64
}

// Feedback is the post-slot record handed to learning policies.
type Feedback struct {
	// Prev is the observation the decision was made on.
	Prev Observation
	// Action is the state the policy commanded (after clamping).
	Action device.StateID
	// Energy is the joules consumed this slot.
	Energy float64
	// Arrived counts this slot's arrivals.
	Arrived int
	// Next is the observation at the start of the following slot.
	Next Observation
}

// IdleSaturation caps Observation.IdleSlots, in slotsim and in ctsim's
// slot adapter alike: an idle threshold above it is never reached.
const IdleSaturation = 1024

// Policy decides power-state commands.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Decide returns the desired power state for the coming slot. It is
	// only called when the device is not transitioning.
	Decide(obs Observation) device.StateID
}

// Learner is a Policy that adapts online from per-slot feedback.
type Learner interface {
	Policy
	// Observe delivers the slot outcome after every slot (including
	// transition slots, where Action equals the transition target). fb
	// points into scratch the simulator reuses every slot: it is valid
	// only for the duration of the call, and implementations must copy
	// any fields they keep.
	Observe(fb *Feedback)
}

// Config assembles a simulation.
type Config struct {
	// Device is the slotted PSM under management.
	Device *device.Slotted
	// Arrivals drives request generation. The simulator owns the value
	// and advances its phase; pass a Clone if you reuse the process.
	Arrivals workload.Arrivals
	// QueueCap bounds the request queue (0 = unbounded).
	QueueCap int
	// Policy is the power manager.
	Policy Policy
	// Stream supplies all randomness.
	Stream *rng.Stream
	// LatencyWeight converts backlog into cost units (joules per
	// request-slot). It must be positive: at zero, "never serve" is
	// optimal.
	LatencyWeight float64
	// InitialState is the device state at slot 0 (default: state 0).
	InitialState device.StateID
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Device == nil {
		return fmt.Errorf("slotsim: config needs a device")
	}
	if c.Arrivals == nil {
		return fmt.Errorf("slotsim: config needs an arrival process")
	}
	if c.Policy == nil {
		return fmt.Errorf("slotsim: config needs a policy")
	}
	if c.Stream == nil {
		return fmt.Errorf("slotsim: config needs an rng stream")
	}
	if c.QueueCap < 0 {
		return fmt.Errorf("slotsim: negative queue capacity %d", c.QueueCap)
	}
	if !(c.LatencyWeight > 0) {
		return fmt.Errorf("slotsim: latency weight %v must be positive (at 0, starving the queue is optimal)", c.LatencyWeight)
	}
	if int(c.InitialState) < 0 || int(c.InitialState) >= c.Device.PSM.NumStates() {
		return fmt.Errorf("slotsim: initial state %d out of range", c.InitialState)
	}
	return nil
}

// Metrics summarizes a run.
type Metrics struct {
	// Slots is the number of simulated slots.
	Slots int64
	// EnergyJ is the total energy in joules.
	EnergyJ float64
	// CostTotal is the accumulated energy+latency cost.
	CostTotal float64
	// Arrived, Served, Lost count requests.
	Arrived, Served, Lost int64
	// WaitSlots is the cumulative waiting of served requests.
	WaitSlots int64
	// BacklogSum is the sum over slots of post-service backlog.
	BacklogSum int64
	// StateSlots[i] counts slots spent settled in state i.
	StateSlots []int64
	// TransitionSlots counts slots spent switching states.
	TransitionSlots int64
	// Commands counts accepted state-change commands.
	Commands int64
	// Clamped counts decisions rejected as disallowed transitions.
	Clamped int64
}

// AvgPowerW returns mean power in watts given the slot duration.
func (m *Metrics) AvgPowerW(slotDuration float64) float64 {
	if m.Slots == 0 {
		return 0
	}
	return m.EnergyJ / (float64(m.Slots) * slotDuration)
}

// AvgCost returns mean per-slot cost.
func (m *Metrics) AvgCost() float64 {
	if m.Slots == 0 {
		return 0
	}
	return m.CostTotal / float64(m.Slots)
}

// MeanWaitSlots returns the average served-request waiting time in slots.
func (m *Metrics) MeanWaitSlots() float64 {
	if m.Served == 0 {
		return 0
	}
	return float64(m.WaitSlots) / float64(m.Served)
}

// MeanBacklog returns the time-average queue backlog.
func (m *Metrics) MeanBacklog() float64 {
	if m.Slots == 0 {
		return 0
	}
	return float64(m.BacklogSum) / float64(m.Slots)
}

// LossRate returns the fraction of arrivals that were dropped.
func (m *Metrics) LossRate() float64 {
	if m.Arrived == 0 {
		return 0
	}
	return float64(m.Lost) / float64(m.Arrived)
}

// SlotRecord is the per-slot sample passed to Run's observer callback.
type SlotRecord struct {
	Slot          int64
	Energy        float64
	Cost          float64
	Backlog       int
	Arrived       int
	Served        int
	Lost          int
	Phase         device.StateID
	Transitioning bool
}

// Sim is a single simulation instance. Create with New, drive with Run or
// Step.
type Sim struct {
	cfg Config
	q   queue.Ring[int64] // arrival slot of each pending request

	phase     device.StateID
	transTo   device.StateID
	transLeft int
	transCost float64 // per-slot energy while transitioning
	idleSlots int64
	slot      int64
	metrics   Metrics
	learner   Learner  // non-nil when cfg.Policy implements Learner
	fb        Feedback // per-slot feedback scratch, rewritten every slot
}

// New validates cfg and returns a ready simulator.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:     cfg,
		phase:   cfg.InitialState,
		metrics: Metrics{StateSlots: make([]int64, cfg.Device.PSM.NumStates())},
	}
	s.q.Reset(cfg.QueueCap)
	s.learner, _ = cfg.Policy.(Learner)
	return s, nil
}

// Observe returns the current observation without advancing time.
func (s *Sim) Observe() Observation {
	var o Observation
	s.observe(&o)
	return o
}

// observe writes the current observation into o field by field. The slot
// loop fills its observations in place through it: a composite literal
// copied out stores each field with a word-sized write and reads them
// back with 16-byte block moves, which the CPU cannot forward from the
// pending stores, so every such copy stalls.
func (s *Sim) observe(o *Observation) {
	o.Phase = s.phase
	o.Transitioning = s.transLeft > 0
	o.Queue = s.q.Len()
	o.IdleSlots = s.idleSlots
	o.Slot = s.slot
}

// Step advances one slot and returns its record.
func (s *Sim) Step() SlotRecord {
	var rec SlotRecord
	s.step(&rec)
	return rec
}

// step advances one slot, filling rec when non-nil. The rec == nil path
// is the hot loop of every replicated experiment: it skips the record
// entirely, and together with the preallocated policy scratch buffers it
// performs no per-slot heap allocations (guarded by BenchmarkRunBare's
// -benchmem output).
func (s *Sim) step(rec *SlotRecord) {
	dev := s.cfg.Device
	// A local, not s.fb.Prev: built there, Decide's by-value argument
	// would block-copy the fresh stores. fb.Prev = prev below copies
	// stores that retired long before.
	var prev Observation
	s.observe(&prev)

	// 1. Decision.
	action := s.phase
	if s.transLeft > 0 {
		action = s.transTo
	} else {
		want := s.cfg.Policy.Decide(prev)
		if want != s.phase {
			if int(want) >= 0 && int(want) < dev.PSM.NumStates() && dev.TransSlots[s.phase][want] >= 0 {
				action = want
				lat := dev.TransSlots[s.phase][want]
				s.metrics.Commands++
				if lat == 0 {
					// Instant switch: full transition energy lands on this
					// slot, which is otherwise an ordinary slot in `want`.
					s.metrics.EnergyJ += dev.TransEnergy[s.phase][want]
					s.metrics.CostTotal += dev.TransEnergy[s.phase][want]
					s.phase = want
				} else {
					s.transTo = want
					s.transLeft = lat
					s.transCost = dev.TransEnergy[s.phase][want] / float64(lat)
				}
			} else {
				s.metrics.Clamped++
			}
		}
	}

	// 2. Arrivals.
	arrived := s.cfg.Arrivals.Next(s.cfg.Stream)
	lost := 0
	for i := 0; i < arrived; i++ {
		if !s.q.Push(s.slot) {
			lost++
		}
	}
	if arrived > 0 {
		s.idleSlots = 0
	} else if s.idleSlots < IdleSaturation {
		s.idleSlots++
	}

	// 3. Service + 4. energy for this slot.
	served := 0
	var slotEnergy float64
	transitioning := s.transLeft > 0
	if transitioning {
		slotEnergy = s.transCost
		s.metrics.TransitionSlots++
		s.transLeft--
		if s.transLeft == 0 {
			s.phase = s.transTo
		}
	} else {
		slotEnergy = dev.StateEnergy[s.phase]
		s.metrics.StateSlots[s.phase]++
		if dev.PSM.States[s.phase].CanService {
			// A request's wait is the whole slots from arrival to service.
			for served < dev.ServePerSlot && s.q.Len() > 0 {
				s.metrics.WaitSlots += s.slot - s.q.Pop()
				served++
			}
		}
	}

	backlog := s.q.Len()
	cost := slotEnergy + s.cfg.LatencyWeight*float64(backlog)

	// 5. Metrics.
	s.metrics.Slots++
	s.metrics.EnergyJ += slotEnergy
	s.metrics.CostTotal += cost
	s.metrics.Arrived += int64(arrived)
	s.metrics.Served += int64(served)
	s.metrics.Lost += int64(lost)
	s.metrics.BacklogSum += int64(backlog)

	s.slot++
	if rec != nil {
		rec.Slot = prev.Slot
		rec.Energy = slotEnergy
		rec.Cost = cost
		rec.Backlog = backlog
		rec.Arrived = arrived
		rec.Served = served
		rec.Lost = lost
		rec.Phase = s.phase
		rec.Transitioning = transitioning
	}

	if s.learner != nil {
		// Written into persistent scratch and passed by pointer: the
		// feedback record is two embedded observations wide, and copying
		// it down the learner call chain (adapter, manager) shows up in
		// fleet profiles. Receivers must not retain the pointer (the
		// Learner contract). Field by field, and Next in place: a
		// composite literal would be built on the stack and then
		// block-copied in (see observe).
		fb := &s.fb
		fb.Prev = prev
		fb.Action = action
		fb.Energy = slotEnergy
		fb.Arrived = arrived
		s.observe(&fb.Next)
		s.learner.Observe(fb)
	}
}

// Run advances n slots, invoking observer (if non-nil) after each slot,
// and returns the accumulated metrics. Run may be called repeatedly; the
// metrics accumulate across calls. The observer choice selects the loop
// at call time: the nil-observer loop never materializes slot records.
func (s *Sim) Run(n int64, observer func(SlotRecord)) (Metrics, error) {
	if n < 0 {
		return Metrics{}, fmt.Errorf("slotsim: negative slot count %d", n)
	}
	if observer == nil {
		for i := int64(0); i < n; i++ {
			s.step(nil)
		}
	} else {
		// One record, reused across the run; the observer receives it by
		// value so retaining it is safe.
		var rec SlotRecord
		for i := int64(0); i < n; i++ {
			s.step(&rec)
			observer(rec)
		}
	}
	return s.metrics, nil
}

// Metrics returns a snapshot of the accumulated metrics.
func (s *Sim) Metrics() Metrics { return s.metrics }
