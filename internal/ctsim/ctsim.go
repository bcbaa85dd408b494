// Package ctsim implements the event-driven continuous-time simulation of
// a power-managed system on the eventq kernel: request arrivals at
// real-valued times (any renewal interarrival law or trace playback) →
// bounded queue → device PSM with real transition latencies and energies,
// under a pluggable decision policy.
//
// The paper's Q-DPM formulation is an SMDP over real-valued
// inter-decision times; the slotted simulator (internal/slotsim) studies
// its discretization. ctsim simulates the underlying continuous process
// directly, which opens workloads the slot grid cannot express
// (heavy-tailed Pareto/Weibull interarrivals at native resolution,
// measured traces) and cross-validates the slotted results: in
// slot-compatible mode (periodic decisions, batch service) a ctsim run
// over slot-quantized arrivals and latencies reproduces a slotsim run
// event for event — energy, service, and loss counts match exactly (see
// TestCrossValidationSlotQuantized).
//
// Two decision regimes:
//
//   - Periodic (Config.DecisionPeriod > 0): a governor tick polls the
//     policy every period seconds, the cadence OS-level power managers
//     actually run at. Any slotsim policy or learner runs unmodified via
//     Adapt, and the Q-DPM learner's SMDP update then discounts by the
//     actual sojourn time between decision points (k ticks = k·period
//     seconds) rather than an abstract slot count.
//   - Event-driven (DecisionPeriod == 0): the policy is consulted only
//     when the state changes (arrival, service completion, transition
//     completion) or when a timer it requested via Decision.Wake expires —
//     the native SMDP decision-epoch structure.
//
// Energy is accrued piecewise-exactly: state power × settled time, plus
// transition energy spread uniformly over the transition latency (a
// zero-latency transition charges its full energy at the switch instant),
// matching the slotted simulator's accounting.
package ctsim

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/eventq"
	"repro/internal/queue"
	"repro/internal/rng"
	"repro/internal/slotsim"
)

// Config assembles a continuous-time simulation.
type Config struct {
	// Device is the physical PSM under management (unslotted: latencies in
	// seconds, powers in watts).
	Device *device.PSM
	// InitialState is the device state at time 0 (default: state 0).
	InitialState device.StateID
	// QueueCap bounds the request queue (0 = unbounded).
	QueueCap int
	// LatencyWeight converts backlog into cost units: joules per
	// request-second of queueing. Only the CostTotal metric uses it.
	LatencyWeight float64
	// Policy is the power manager (wrap a slotted policy with Adapt).
	Policy Policy
	// Source produces the arrival times. The simulator owns the value and
	// advances it; build a fresh Source per replica.
	Source Source
	// Stream supplies the Source's randomness (policies carry their own
	// streams). Required even for stream-free sources so the determinism
	// contract is uniform.
	Stream *rng.Stream
	// DecisionPeriod > 0 selects the periodic governor with the given tick
	// interval in seconds; 0 selects event-driven decisions.
	DecisionPeriod float64
	// SlotCompatible selects batch service at governor ticks (requires
	// DecisionPeriod > 0): while the device is settled in a servicing
	// state for a full period, up to
	// floor(DecisionPeriod/Device.ServiceTime) queued requests complete
	// instantly at the tick, matching device.Slot. This reproduces the
	// slotted simulator's service law exactly. Default (false):
	// sequential service.
	SlotCompatible bool
	// ServiceDist, when non-nil, draws each sequential service duration
	// i.i.d. from this law instead of the fixed Device.ServiceTime.
	// Requires sequential service and a dedicated ServiceStream. nil
	// keeps deterministic service and makes no service-stream draws —
	// bit-identical to a build without this field. The analytic conformance harness uses an exponential law
	// here to pin ctsim against M/M/1 and M/M/1/K closed forms.
	ServiceDist dist.Continuous
	// ServiceStream supplies ServiceDist's randomness. Required when
	// ServiceDist is non-nil; kept separate from Stream so arrival and
	// service draws stay independent streams under the determinism
	// contract.
	ServiceStream *rng.Stream
	// Resource, when non-nil, arbitrates shared capacity with the other
	// instances scheduling against the same kernel (see NewShared):
	// service starts go through Resource.RequestService and commanded
	// state changes through Resource.AllowTransition. Requires
	// sequential service (incompatible with SlotCompatible, whose
	// batched ticks bypass the service-start hook). nil disables
	// arbitration — the uncoupled path makes no hook calls at all.
	Resource Resource
	// Faults, when non-nil, enables deterministic fault injection:
	// device crash/repair cycles and transient service failures with
	// bounded retry + exponential backoff. Requires sequential service.
	// nil disables the layer — a fault-free run makes no fault-stream
	// draws and is bit-identical to a build without the fault code.
	Faults *Faults
}

// Validate checks the configuration; it does not modify it. New and
// Reset call it implicitly; callers that reuse one Config value across
// many instances (the fleet layer runs millions of Resets against
// per-class configs that never change) validate once up front and take
// the Sim.ResetValidated fast path thereafter.
func (c *Config) Validate() error {
	if c.Device == nil {
		return fmt.Errorf("ctsim: config needs a device")
	}
	if c.Policy == nil {
		return fmt.Errorf("ctsim: config needs a policy")
	}
	if c.Source == nil {
		return fmt.Errorf("ctsim: config needs an arrival source")
	}
	if c.Stream == nil {
		return fmt.Errorf("ctsim: config needs an rng stream")
	}
	if c.QueueCap < 0 {
		return fmt.Errorf("ctsim: negative queue capacity %d", c.QueueCap)
	}
	if c.LatencyWeight < 0 || math.IsNaN(c.LatencyWeight) {
		return fmt.Errorf("ctsim: latency weight %v must be >= 0", c.LatencyWeight)
	}
	if int(c.InitialState) < 0 || int(c.InitialState) >= c.Device.NumStates() {
		return fmt.Errorf("ctsim: initial state %d out of range", c.InitialState)
	}
	if c.DecisionPeriod < 0 || math.IsNaN(c.DecisionPeriod) || math.IsInf(c.DecisionPeriod, 0) {
		return fmt.Errorf("ctsim: decision period %v must be >= 0 and finite", c.DecisionPeriod)
	}
	if c.SlotCompatible && c.DecisionPeriod == 0 {
		return fmt.Errorf("ctsim: slot-compatible service requires a decision period")
	}
	if c.Resource != nil && c.SlotCompatible {
		return fmt.Errorf("ctsim: a shared resource requires sequential service (slot-compatible batching bypasses the service-start hook)")
	}
	if st := c.Device.ServiceTime; !(st > 0) || math.IsInf(st, 0) {
		return fmt.Errorf("ctsim: service time %v must be positive and finite", st)
	}
	if c.SlotCompatible && batchServe(c) < 1 {
		return fmt.Errorf("ctsim: decision period %v shorter than service time %v", c.DecisionPeriod, c.Device.ServiceTime)
	}
	if c.ServiceDist != nil {
		if c.SlotCompatible {
			return fmt.Errorf("ctsim: a service distribution requires sequential service (slot-compatible batching has no per-request durations)")
		}
		if c.ServiceStream == nil {
			return fmt.Errorf("ctsim: a service distribution needs a dedicated service stream")
		}
	}
	return c.validateFaults()
}

// batchServe is the per-tick service capacity in slot-compatible mode,
// matching device.Slot's ServePerSlot.
func batchServe(c *Config) int {
	return int(math.Floor(c.DecisionPeriod/c.Device.ServiceTime + 1e-9))
}

// Observation is what a policy sees at a decision point.
type Observation struct {
	// Phase is the current power state (the source state while a
	// transition is in progress).
	Phase device.StateID
	// Transitioning reports whether the device is mid-transition; while
	// true, Decide is not consulted.
	Transitioning bool
	// Queue is the number of buffered requests (including one in service).
	Queue int
	// IdleTime is the time in seconds since the last arrival.
	IdleTime float64
	// Now is the current simulation time in seconds.
	Now float64
}

// Feedback is the record handed to learning policies at the end of each
// decision interval: every governor tick in periodic mode (including
// intervals spent transitioning, where Action is the transition target),
// or the span between consecutive decision points in event-driven mode.
type Feedback struct {
	// Prev is the observation the interval's decision was made on.
	Prev Observation
	// Action is the state commanded for the interval (after clamping; the
	// transition target while switching).
	Action device.StateID
	// Energy is the joules consumed during the interval. Instantaneous
	// transition energy charged by a zero-latency switch at the interval's
	// opening decision is excluded, mirroring the slotted simulator's
	// per-slot feedback.
	Energy float64
	// Arrived counts the interval's arrivals.
	Arrived int
	// Next is the observation at the end of the interval.
	Next Observation
}

// Metrics summarizes a run.
type Metrics struct {
	// Horizon is the simulated time in seconds.
	Horizon float64
	// EnergyJ is the total energy in joules.
	EnergyJ float64
	// CostTotal is EnergyJ + LatencyWeight × BacklogSeconds.
	CostTotal float64
	// Arrived, Served, and Lost count requests.
	Arrived, Served, Lost int64
	// WaitSeconds is the cumulative sojourn (arrival → completion) of
	// served requests.
	WaitSeconds float64
	// BacklogSeconds is the time integral of the queue length.
	BacklogSeconds float64
	// StateTime[i] is the time in seconds spent settled in state i.
	StateTime []float64
	// TransitionTime is the time spent switching states.
	TransitionTime float64
	// Commands counts accepted state-change commands; Clamped counts
	// decisions rejected as disallowed transitions.
	Commands, Clamped int64
	// Decisions counts policy consultations.
	Decisions int64
	// ResourceWaitSec is the cumulative time spent queued for the
	// shared Resource before service could start — the cross-device
	// contention wait. Zero without a Resource.
	ResourceWaitSec float64
	// ResourceDrops counts service requests the Resource rejected with
	// a Drop verdict; each drop also counts in Lost.
	ResourceDrops int64
	// BudgetDenied counts commanded state changes the Resource vetoed
	// via AllowTransition (budget-denied transitions). Denied commands
	// are not counted in Commands or Clamped.
	BudgetDenied int64

	// Resilience metrics, all zero on a fault-free run (Config.Faults
	// nil and no DropOutage verdicts from the Resource).

	// DowntimeSec is the time spent crashed (no power draw, no state
	// occupancy, no service).
	DowntimeSec float64
	// EnergyOutageJ is the energy burned while the device was settled
	// but held idle by a retry backoff — power spent making no
	// progress because of a fault.
	EnergyOutageJ float64
	// Crashes counts crash events; Retries counts retried service
	// failures; RetryExhausted counts requests dropped after their
	// retry budget ran out (each also counts in Lost).
	Crashes, Retries, RetryExhausted int64
	// LostToOutage counts requests lost to an outage: dropped by a
	// DropOutage resource verdict, or shed against the queue cap while
	// the device was crashed. Each also counts in Lost.
	LostToOutage int64
}

// AvgPowerW returns the mean power in watts.
func (m *Metrics) AvgPowerW() float64 {
	if m.Horizon == 0 {
		return 0
	}
	return m.EnergyJ / m.Horizon
}

// MeanWaitSeconds returns the average served-request sojourn.
func (m *Metrics) MeanWaitSeconds() float64 {
	if m.Served == 0 {
		return 0
	}
	return m.WaitSeconds / float64(m.Served)
}

// MeanBacklog returns the time-average queue length.
func (m *Metrics) MeanBacklog() float64 {
	if m.Horizon == 0 {
		return 0
	}
	return m.BacklogSeconds / m.Horizon
}

// LossRate returns the fraction of arrivals that were dropped.
func (m *Metrics) LossRate() float64 {
	if m.Arrived == 0 {
		return 0
	}
	return float64(m.Lost) / float64(m.Arrived)
}

// Sim is a single continuous-time simulation instance. Create with New,
// drive with Run; not safe for concurrent use. Reset reinitializes an
// existing Sim for a new replica, reusing its buffers.
//
// The event loop is allocation-free in steady state: handlers are bound
// once at construction (no per-Schedule closure), the kernel recycles
// event slots through its arena free list (the tick, wake, arrival,
// service, and transition events each cycle through their own recycled
// slot), and the request queue is a queue.Ring that grows only to its
// high-water mark.
// BenchmarkCTReplica* and TestCTHotPathAllocationFree guard this.
type Sim struct {
	cfg Config
	// serviceTime is cfg.Device.ServiceTime, copied so a service start
	// reads it without dereferencing the device.
	serviceTime float64
	k           *eventq.Kernel
	// q holds the arrival time of each pending request. It sits behind a
	// pointer because inline it would grow Sim from the 896-byte
	// allocation size class to the 1024-byte one.
	q *queue.Ring[float64]
	// learner is cfg.Policy as a native Learner; nil when the policy does
	// not learn or is driven through slot.
	learner Learner
	// slot is non-nil when cfg.Policy was built by Adapt: the simulator
	// then drives the slotted policy (and learner) itself, through sfb.
	slot *slotAdapter

	// Pre-bound event handlers: method values are closures, so binding
	// them once here keeps every Schedule call on the hot path from
	// allocating a fresh one.
	hArrival   eventq.Handler
	hTick      eventq.Handler
	hDecision  eventq.Handler
	hServeDone eventq.Handler
	hTransDone eventq.Handler
	hWake      eventq.Handler
	hCrash     eventq.Handler
	hRepair    eventq.Handler
	hRetry     eventq.Handler

	// Device state.
	phase       device.StateID
	transInProg bool
	transTarget device.StateID
	transEnd    float64
	transPower  float64 // W drawn while transitioning (energy/latency)
	settledAt   float64 // time the device last became settled
	batchServe  int     // per-tick capacity in slot-compatible mode

	// Accrual clocks.
	accrueT  float64 // energy + state-time integrated up to here
	backlogT float64 // backlog integral advanced up to here

	lastArrival float64
	lastAction  device.StateID

	// Hard horizon (SetHorizonHint): the consumer's promise that no Run
	// will extend past this time (enforced by Run). Arrivals and
	// periodic ticks landing strictly beyond it skip the kernel insert,
	// and the final tick skips feedback/decision work that cannot
	// influence any pre-horizon observable. +Inf disables (the
	// default); the promise survives ResetValidated.
	hardHorizon float64

	// Sequential service.
	serving bool
	serveEv eventq.Ref

	// Shared-resource arbitration (cfg.Resource != nil).
	resWaiting bool    // queued in the resource's FIFO wait queue
	resHeld    bool    // holding a grant (serving through the resource)
	resReqAt   float64 // time the outstanding request was queued

	// Devirtualized resource hooks: method values cached off
	// cfg.Resource, rebound only when the Resource identity changes
	// (apply), so the warm Reset cycle of a pooled coupled lane — same
	// resource every replica — never rebinds and stays allocation-free.
	// A cached method value costs one closure load per call instead of
	// an itab lookup plus method-table load on every service event; nil
	// resRequest doubles as the "no resource" fast-path check.
	resRequest func(now float64, g ResourceClient) Verdict
	resRelease func(now float64, g ResourceClient)
	resCancel  func(now float64, g ResourceClient)
	resAllow   func(now float64, g ResourceClient, deltaPowerW float64) bool

	// Fault injection (cfg.Faults != nil).
	faulted   bool       // crashed, awaiting repair
	retryHold bool       // head request backing off after a failure
	retries   int        // head request's consecutive failure count
	crashEv   eventq.Ref // pending crash
	repairEv  eventq.Ref // pending repair (while faulted)
	retryEv   eventq.Ref // pending backoff expiry (while retryHold)
	transEv   eventq.Ref // pending transition completion (canceled on crash)

	// kernelShared marks a simulator built by NewShared: the kernel's
	// lifecycle (Reset, Run) belongs to the coupled-group driver, so
	// apply must not reset it — other instances' events live there.
	kernelShared bool

	// Policy wake timer (event-driven mode).
	wakeEv eventq.Ref

	// Learner epoch bases. The opening observation is fb.Prev (sfb.Prev
	// under the direct drive). learns reports a feedback consumer: a
	// native learner, or an adapted slotted one.
	learns      bool
	haveEpoch   bool
	epochEnergy float64
	epochArr    int64

	// fb is the per-interval feedback record, passed to the learner by
	// pointer (the Learner contract: receivers copy what they keep and
	// modify nothing). Each decision point builds its observation once,
	// in fb.Next; the policy decides on it, and openEpoch copies it into
	// fb.Prev, where it waits as the opening observation of the next
	// interval. sfb is the same record in slotted form for an adapted
	// policy (slot != nil), which never touches fb: observe quantizes
	// each decision point's observation once, straight into sfb.Next.
	fb  Feedback
	sfb slotsim.Feedback

	metrics Metrics
}

// New validates cfg and returns a simulator with its initial events (the
// first arrival and the first decision) scheduled on a private event
// kernel, which Reset and ResetValidated reset along with the simulator.
func New(cfg Config) (*Sim, error) {
	return newSim(eventq.New(), false, cfg)
}

// NewShared builds a simulator whose event handlers schedule against a
// kernel SHARED with other instances: all members advance on the one
// clock, their event streams interleaved deterministically by (time,
// seq) — the coupled-fleet substrate. The caller owns the kernel's
// lifecycle: Reset it once per coupled run before building or
// (Re)setting the member sims (each applies its initial events at time
// 0, in call order, which fixes the FIFO tie-break among members), then
// drive it directly with Kernel.Run; do not call a member's Run, which
// would advance every member. Reset and ResetValidated on a shared-
// kernel sim reset the sim only, never the kernel.
func NewShared(k *eventq.Kernel, cfg Config) (*Sim, error) {
	return newSim(k, true, cfg)
}

// newSim binds the pre-bound handlers and applies cfg against k.
func newSim(k *eventq.Kernel, shared bool, cfg Config) (*Sim, error) {
	s := &Sim{k: k, q: new(queue.Ring[float64]), kernelShared: shared, hardHorizon: math.Inf(1)}
	s.hArrival = s.onArrival
	s.hTick = s.tick
	s.hDecision = s.decisionPoint
	s.hServeDone = s.onServeDone
	s.hTransDone = s.onTransDone
	s.hWake = s.onWake
	s.hCrash = s.onCrash
	s.hRepair = s.onRepair
	s.hRetry = s.onRetry
	if err := s.init(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset reinitializes s for a new replica under cfg, reusing the kernel's
// event arena, the queue ring, and the StateTime buffer. A Reset simulator
// is behaviorally bit-identical to a fresh New(cfg) one — workers that run
// replicas back to back use it to keep replica turnover off the allocator.
func (s *Sim) Reset(cfg Config) error { return s.init(cfg) }

// ResetValidated is Reset minus the validation pass: cfg must already
// have passed (*Config).Validate. It exists for callers that reset one
// simulator millions of times against a small set of immutable
// per-class configs; passing a config that Validate would reject leads
// to undefined simulation behavior.
func (s *Sim) ResetValidated(cfg Config) error { return s.apply(cfg) }

// init validates cfg and (re)sets every piece of run state, then schedules
// the initial events.
func (s *Sim) init(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	return s.apply(cfg)
}

// apply (re)sets every piece of run state from a validated cfg, then
// schedules the initial events.
func (s *Sim) apply(cfg Config) error {
	if cfg.Resource != s.cfg.Resource {
		if cfg.Resource != nil {
			s.resRequest = cfg.Resource.RequestService
			s.resRelease = cfg.Resource.ReleaseService
			s.resCancel = cfg.Resource.CancelWait
			s.resAllow = cfg.Resource.AllowTransition
		} else {
			s.resRequest = nil
			s.resRelease = nil
			s.resCancel = nil
			s.resAllow = nil
		}
	}
	s.cfg = cfg
	s.serviceTime = cfg.Device.ServiceTime
	s.batchServe = 0
	if cfg.SlotCompatible {
		s.batchServe = batchServe(&cfg)
	}
	if !s.kernelShared {
		s.k.Reset()
	}
	s.q.Reset(cfg.QueueCap)
	n := cfg.Device.NumStates()
	st := s.metrics.StateTime
	if cap(st) < n {
		st = make([]float64, n)
	}
	st = st[:n]
	for i := range st {
		st[i] = 0
	}
	s.metrics = Metrics{StateTime: st}
	s.phase = cfg.InitialState
	s.transInProg = false
	s.transTarget = 0
	s.transEnd = 0
	s.transPower = 0
	s.settledAt = 0
	s.accrueT = 0
	s.backlogT = 0
	s.lastArrival = 0
	s.lastAction = cfg.InitialState
	s.serving = false
	s.serveEv = eventq.Ref{}
	s.resWaiting = false
	s.resHeld = false
	s.resReqAt = 0
	s.faulted = false
	s.retryHold = false
	s.retries = 0
	s.crashEv = eventq.Ref{}
	s.repairEv = eventq.Ref{}
	s.retryEv = eventq.Ref{}
	s.transEv = eventq.Ref{}
	s.wakeEv = eventq.Ref{}
	s.haveEpoch = false
	s.fb = Feedback{}
	s.sfb = slotsim.Feedback{}
	s.epochEnergy = 0
	s.epochArr = 0
	s.learner, s.slot = nil, nil
	switch p := cfg.Policy.(type) {
	case *slotAdapter:
		s.slot = p
	case *slotLearnerAdapter:
		s.slot = &p.slotAdapter
	case Learner:
		s.learner = p
	}
	s.learns = s.learner != nil || s.slot != nil && s.slot.l != nil
	// The first decision fires before any time-0 arrival: it is scheduled
	// first, and the kernel breaks ties FIFO.
	if s.periodic() {
		if _, err := s.k.Schedule(0, s.hTick); err != nil {
			return err
		}
	} else {
		if _, err := s.k.Schedule(0, s.hDecision); err != nil {
			return err
		}
	}
	s.scheduleNextArrival()
	if f := cfg.Faults; f != nil && f.CrashMTBF > 0 {
		s.scheduleNextCrash()
	}
	return nil
}

func (s *Sim) periodic() bool { return s.cfg.DecisionPeriod > 0 }

// Now returns the current simulation time.
func (s *Sim) Now() float64 { return s.k.Now() }

// FiredEvents returns the number of kernel events executed.
func (s *Sim) FiredEvents() uint64 { return s.k.Fired() }

// SetHorizonHint promises that no Run on this simulator will ever
// extend past time h — Run rejects a larger limit, so the promise
// cannot be broken silently. In exchange the scheduler drops arrivals
// and periodic ticks landing strictly beyond h (events that could
// never fire), and the final periodic tick skips its feedback,
// decision, and epoch bookkeeping — none of which can influence any
// observable at or before h. Arrival streams are consumed identically
// either way (draws are per-source, see RenewalSource.SetLimit), so
// metrics and output stay bit-identical; only the post-run internal
// state of a Learner may differ, since the horizon-edge feedback it
// could never act on is not delivered. The promise survives
// ResetValidated — set it once on a simulator recycled across
// bounded-horizon instances. +Inf restores the default.
func (s *Sim) SetHorizonHint(h float64) {
	if !(h > 0) {
		h = math.Inf(1)
	}
	s.hardHorizon = h
}

// Run advances the simulation to the given time. It may be called
// repeatedly with growing horizons; metrics accumulate.
func (s *Sim) Run(until float64) error {
	if until < s.k.Now() {
		return fmt.Errorf("ctsim: horizon %v precedes current time %v", until, s.k.Now())
	}
	if until > s.hardHorizon {
		return fmt.Errorf("ctsim: limit %v exceeds the promised horizon %v (SetHorizonHint)", until, s.hardHorizon)
	}
	return s.k.Run(until)
}

// RunChunked advances the simulation from the current clock to horizon
// in chunks of chunk simulated seconds, polling ctx between chunks so
// cancellation latency is bounded by one chunk. A run that fits in a
// single chunk never polls: a caller dispatching many short instances
// owns that poll, and keeping the per-instance context check out of
// here is measurable at a million instances (a canceled context's Err
// takes a mutex). It is the replica-execution loop of the experiment
// layer; metrics accumulate exactly as with Run.
func (s *Sim) RunChunked(ctx context.Context, horizon, chunk float64) error {
	if !(chunk > 0) {
		return fmt.Errorf("ctsim: chunk %v must be positive", chunk)
	}
	for until := s.k.Now() + chunk; ; until += chunk {
		if until > horizon {
			until = horizon
		}
		if err := s.Run(until); err != nil {
			return err
		}
		if until >= horizon {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// Metrics accrues energy and backlog up to the current clock and returns a
// snapshot. The snapshot owns its StateTime slice — it never aliases the
// simulator's internal accumulator or a previous snapshot.
func (s *Sim) Metrics() Metrics {
	m := *s.MetricsView()
	m.StateTime = slices.Clone(m.StateTime)
	return m
}

// MetricsView accrues up to the current clock and returns the
// simulator's internal metrics accumulator. The view ALIASES live
// simulator state: it is valid only until the next Run, Reset, or
// ResetValidated, and callers must not mutate it or retain it (or its
// StateTime slice) beyond that window. In particular, a pooled
// simulator that runs instances back to back (the fleet worker
// pattern) OVERWRITES the view in place on the next instance's reset —
// a view captured for instance A silently becomes instance B's
// numbers, so copy out every field you fold before the next
// ResetValidated (TestMetricsViewClobberedByNextPooledInstance pins
// both halves of this contract). It is the zero-copy finalize
// path for callers that drain many short instances through one reused
// Sim and read a handful of scalars per instance — the fleet shard
// loop — where Metrics' snapshot copy is measurable. Use Metrics when
// the snapshot must own its storage.
func (s *Sim) MetricsView() *Metrics {
	now := s.k.Now()
	s.advance(now)
	s.accrueBacklog(now)
	s.metrics.Horizon = now
	s.metrics.CostTotal = s.metrics.EnergyJ + s.cfg.LatencyWeight*s.metrics.BacklogSeconds
	return &s.metrics
}

// observe builds the decision point's observation at now, once: in
// fb.Next, or quantized onto the reference slot in sfb.Next for an
// adapted policy. Every field is written, so neither needs clearing
// first.
func (s *Sim) observe(now float64) {
	if a := s.slot; a != nil {
		a.quantize(&s.sfb.Next, s.phase, s.transInProg, s.q.Len(), now-s.lastArrival, now)
		return
	}
	o := &s.fb.Next
	o.Phase = s.phase
	o.Transitioning = s.transInProg
	o.Queue = s.q.Len()
	o.IdleTime = now - s.lastArrival
	o.Now = now
}

// advance integrates energy and state occupancy up to t, settling a
// transition whose end lies in the integration window. Each settled
// governor period contributes exactly one power×period product, so a
// slot-compatible run sums the same terms in the same order as the
// slotted simulator and the totals agree bit for bit.
func (s *Sim) advance(t float64) {
	if s.transInProg && s.transEnd <= t {
		dt := s.transEnd - s.accrueT
		if dt > 0 {
			s.metrics.EnergyJ += s.transPower * dt
			s.metrics.TransitionTime += dt
		}
		s.accrueT = s.transEnd
		s.phase = s.transTarget
		s.transInProg = false
		s.settledAt = s.transEnd
	}
	dt := t - s.accrueT
	if dt <= 0 {
		return
	}
	if s.faulted {
		// Crashed: no power draw, no state occupancy — only downtime.
		// (A crash abandons any in-progress transition, so the branch
		// above cannot race this one.)
		s.metrics.DowntimeSec += dt
	} else if s.transInProg {
		s.metrics.EnergyJ += s.transPower * dt
		s.metrics.TransitionTime += dt
	} else {
		p := s.cfg.Device.States[s.phase].Power
		s.metrics.EnergyJ += p * dt
		s.metrics.StateTime[s.phase] += dt
		if s.retryHold {
			// Settled but held idle by a retry backoff: the same joules
			// also count as outage energy (power spent not progressing).
			s.metrics.EnergyOutageJ += p * dt
		}
	}
	s.accrueT = t
}

// accrueBacklog integrates the queue length up to t; call before any
// queue mutation.
func (s *Sim) accrueBacklog(t float64) {
	if dt := t - s.backlogT; dt > 0 {
		s.metrics.BacklogSeconds += float64(s.q.Len()) * dt
	}
	s.backlogT = t
}

// ---------------------------------------------------------------------------
// Arrivals

func (s *Sim) scheduleNextArrival() {
	t := s.cfg.Source.Next(s.cfg.Stream)
	if math.IsInf(t, 1) {
		return // source exhausted
	}
	if t < s.k.Now() {
		t = s.k.Now() // a lagging source clamps to the present
	}
	if t > s.hardHorizon {
		return // can never fire (Run is bounded by the hard horizon)
	}
	if _, err := s.k.Schedule(t, s.hArrival); err != nil {
		// Only NaN can reach here given the clamp; drop the source.
		return
	}
}

func (s *Sim) onArrival(now float64) {
	s.accrueBacklog(now)
	s.metrics.Arrived++
	if !s.q.Push(now) {
		s.metrics.Lost++
		if s.faulted {
			s.metrics.LostToOutage++
		}
	}
	s.lastArrival = now
	s.scheduleNextArrival()
	if !s.periodic() {
		s.maybeStartService(now)
		s.decisionPoint(now)
	} else if !s.cfg.SlotCompatible {
		s.maybeStartService(now)
	}
}

// ---------------------------------------------------------------------------
// Sequential service

// maybeStartService begins serving the queue head when the device is
// settled in a servicing state and no request is in flight. No-op in
// slot-compatible mode, where service happens in batches at ticks, and
// while a shared-resource request is queued (the grant callback starts
// the service). With a Resource, the start is arbitrated first: Wait
// parks the instance in the resource's FIFO queue, Drop sheds the head
// request.
func (s *Sim) maybeStartService(now float64) {
	if s.cfg.SlotCompatible || s.serving || s.transInProg || s.resWaiting || s.q.Len() == 0 {
		return
	}
	if s.faulted || s.retryHold {
		return
	}
	if !s.cfg.Device.States[s.phase].CanService {
		return
	}
	if s.resRequest != nil {
		switch s.resRequest(now, s) {
		case Wait:
			s.resWaiting = true
			s.resReqAt = now
			return
		case Drop:
			// The head request is shed at the gate: it counts as lost
			// (it arrived, it will never be served) and as a resource
			// drop. The instance retries no earlier than its next state
			// change, so a saturated gateway sheds at most one request
			// per triggering event.
			s.accrueBacklog(now)
			s.q.Pop()
			s.retries = 0
			s.metrics.Lost++
			s.metrics.ResourceDrops++
			return
		case DropOutage:
			// Shed by a resource inside a scheduled outage window: same
			// mechanics as Drop, attributed to the outage instead of
			// steady-state contention.
			s.accrueBacklog(now)
			s.q.Pop()
			s.retries = 0
			s.metrics.Lost++
			s.metrics.LostToOutage++
			return
		}
		s.resHeld = true
	}
	s.serving = true
	s.serveEv, _ = s.k.After(s.serviceDraw(), s.hServeDone)
}

// serviceDraw returns the next sequential service duration: the fixed
// device service time, or one ServiceDist variate when a law is
// configured.
func (s *Sim) serviceDraw() float64 {
	if s.cfg.ServiceDist == nil {
		return s.serviceTime
	}
	return s.cfg.ServiceDist.Sample(s.cfg.ServiceStream)
}

// ResourceGranted implements ResourceClient: a deferred service grant
// arrives from the shared resource's FIFO queue. The invariant that the
// instance is still settled in a servicing state with a nonempty queue
// holds because any transition away cancels the wait (abortService) and
// queued requests only leave through service or request-time drops.
func (s *Sim) ResourceGranted(now float64) {
	s.resWaiting = false
	s.metrics.ResourceWaitSec += now - s.resReqAt
	s.resHeld = true
	s.serving = true
	s.serveEv, _ = s.k.After(s.serviceDraw(), s.hServeDone)
}

func (s *Sim) onServeDone(now float64) {
	s.serving = false
	s.serveEv = eventq.Ref{}
	if s.resHeld {
		// Release before popping: the release may synchronously grant
		// the head waiter (another sim on the shared kernel), and a
		// re-request below queues FIFO behind it — deterministic,
		// starvation-free ordering.
		s.resHeld = false
		s.resRelease(now, s)
	}
	// Transient failure coin flip: the attempt consumed its service time
	// (and resource occupancy) either way.
	if f := s.cfg.Faults; f != nil && f.FailProb > 0 && f.Stream.Float64() < f.FailProb {
		s.serveFailed(now, f)
		return
	}
	s.accrueBacklog(now)
	stamp := s.q.Pop()
	s.retries = 0
	s.metrics.Served++
	s.metrics.WaitSeconds += now - stamp
	s.maybeStartService(now)
	if !s.periodic() {
		s.decisionPoint(now)
	}
}

// abortService cancels an in-flight request when the device leaves its
// service state; the request stays at the queue head (its wait continues)
// and restarts from scratch when service resumes. A held resource grant
// is released and a queued resource wait withdrawn (its elapsed time
// still counts as contention).
func (s *Sim) abortService() {
	if s.resWaiting {
		now := s.k.Now()
		s.resCancel(now, s)
		s.metrics.ResourceWaitSec += now - s.resReqAt
		s.resWaiting = false
	}
	if !s.serving {
		return
	}
	s.k.Cancel(s.serveEv)
	s.serving = false
	s.serveEv = eventq.Ref{}
	if s.resHeld {
		s.resHeld = false
		s.resRelease(s.k.Now(), s)
	}
}

// ---------------------------------------------------------------------------
// Transitions

func (s *Sim) onTransDone(now float64) {
	s.transEv = eventq.Ref{}
	s.advance(now) // settles (idempotent if an earlier advance already did)
	if !s.cfg.SlotCompatible {
		s.maybeStartService(now) // no-op under batched service
	}
	if !s.periodic() {
		s.decisionPoint(now)
	}
}

// ---------------------------------------------------------------------------
// Decisions

// tick is the periodic governor: batch service for the elapsed period (if
// slot-compatible and the device was settled in a servicing state the
// whole period), learner feedback for the closing interval, then a policy
// decision — the exact per-slot order of the slotted simulator.
func (s *Sim) tick(now float64) {
	per := s.cfg.DecisionPeriod
	eligible := s.cfg.SlotCompatible && !s.transInProg &&
		now-s.settledAt >= per*(1-1e-9) &&
		s.cfg.Device.States[s.phase].CanService
	s.advance(now)
	if eligible {
		s.accrueBacklog(now)
		for n := 0; n < s.batchServe && s.q.Len() > 0; n++ {
			stamp := s.q.Pop()
			s.metrics.Served++
			s.metrics.WaitSeconds += now - stamp
		}
	}
	if now >= s.hardHorizon {
		// Horizon-edge tick: the closing feedback, the decision, and
		// the next epoch could only influence evolution after now,
		// which the horizon promise puts out of reach — the batched
		// service and accrual above are this tick's only pre-horizon
		// effects. Skipping the rest also skips its policy-stream
		// draws; streams are per-source, so no other consumer sees the
		// difference. (A tick strictly before the horizon always runs
		// in full: its decision governs accrual up to the horizon even
		// when the next tick falls beyond it.)
		return
	}
	s.observe(now)
	s.emitFeedback()
	if s.transInProg {
		s.lastAction = s.transTarget
	} else if s.faulted {
		// Crashed: no decision to make — the device is down and the
		// feedback above is how a periodic learner sees the outage (a
		// growing queue, no service, no progress).
		s.lastAction = s.phase
	} else {
		s.decide(now)
		if !s.cfg.SlotCompatible {
			// In slot-compatible mode service is batched above, so the
			// call would bail on its first test; skip the call outright.
			s.maybeStartService(now)
		}
	}
	s.openEpoch()
	if next := now + per; next <= s.hardHorizon {
		s.k.Schedule(next, s.hTick)
	}
}

// decisionPoint is the event-driven decision hook: consult the policy if
// the device is settled (a transition in progress defers the decision to
// its completion, preserving the SMDP epoch structure).
func (s *Sim) decisionPoint(now float64) {
	if s.transInProg || s.faulted {
		return
	}
	s.advance(now)
	s.observe(now)
	s.emitFeedback()
	s.decide(now)
	s.maybeStartService(now)
	s.openEpoch()
}

// emitFeedback closes the current learner epoch against the observation
// just built in Next; Prev holds the epoch's opening one.
func (s *Sim) emitFeedback() {
	if !s.haveEpoch {
		return
	}
	// Filled field by field: a composite literal would build a temporary
	// Feedback and block-copy it into the scratch. Prev and Next are
	// already in place.
	energy := s.metrics.EnergyJ - s.epochEnergy
	arrived := int(s.metrics.Arrived - s.epochArr)
	if a := s.slot; a != nil {
		s.sfb.Action = s.lastAction
		s.sfb.Energy = energy
		s.sfb.Arrived = arrived
		a.l.Observe(&s.sfb)
		return
	}
	s.fb.Action = s.lastAction
	s.fb.Energy = energy
	s.fb.Arrived = arrived
	s.learner.Observe(&s.fb)
}

// openEpoch snapshots the bases for the next learner interval. It runs
// after decide so instantaneous zero-latency transition energy charged by
// the opening decision stays out of the interval's feedback (mirroring
// slotsim, where per-slot feedback carries only the slot's energy).
// Without a learner there is no feedback consumer, so the snapshot is
// skipped entirely — baseline policies pay nothing for the epoch
// machinery.
func (s *Sim) openEpoch() {
	if !s.learns {
		return
	}
	s.haveEpoch = true
	if s.slot != nil {
		s.sfb.Prev = s.sfb.Next
	} else {
		s.fb.Prev = s.fb.Next
	}
	s.epochEnergy = s.metrics.EnergyJ
	s.epochArr = s.metrics.Arrived
}

// decide consults the policy on the observation just built and executes
// its command.
func (s *Sim) decide(now float64) {
	s.metrics.Decisions++
	var d Decision
	if a := s.slot; a != nil {
		d.Target = a.p.Decide(s.sfb.Next)
	} else {
		d = s.cfg.Policy.Decide(s.fb.Next)
	}
	target := d.Target
	s.lastAction = s.phase
	dev := s.cfg.Device
	if target != s.phase {
		if int(target) >= 0 && int(target) < dev.NumStates() && dev.Trans[s.phase][target].Latency >= 0 {
			if s.resAllow != nil &&
				!s.resAllow(now, s, dev.States[target].Power-dev.States[s.phase].Power) {
				// Budget-denied: the device stays put this interval and
				// the policy retries at its next decision point. Falls
				// through to the wake-timer logic below like any other
				// decision.
				s.metrics.BudgetDenied++
			} else {
				s.execTransition(now, target)
			}
		} else {
			s.metrics.Clamped++
		}
	}
	if s.periodic() {
		return // the governor never arms a wake timer
	}
	// Wake timer: at most one outstanding; each decision replaces it.
	// Cancel tolerates the zero Ref and already-fired events, so no guard
	// is needed — the canceled slot is recycled by the next Schedule.
	s.k.Cancel(s.wakeEv)
	s.wakeEv = eventq.Ref{}
	if d.Wake > 0 && !math.IsInf(d.Wake, 1) {
		// A wake must strictly advance the clock. A threshold-style policy
		// re-arms with Wake = threshold - elapsed; when the timer lands an
		// ulp below its threshold, now + Wake can round back to exactly
		// now, and a same-instant wake would re-observe the same state and
		// re-arm forever (a float livelock, not a logic loop). Bumping to
		// the next representable instant preserves the intended fire time
		// to the last ulp and guarantees progress.
		t := now + d.Wake
		if t <= now {
			t = math.Nextafter(now, math.Inf(1))
		}
		s.wakeEv, _ = s.k.Schedule(t, s.hWake)
	}
}

// execTransition performs an admitted state-change command: instant
// switches charge their full energy at the switch, latent ones start
// the transition clock.
func (s *Sim) execTransition(now float64, target device.StateID) {
	dev := s.cfg.Device
	tr := dev.Trans[s.phase][target]
	s.metrics.Commands++
	s.lastAction = target
	if tr.Latency == 0 {
		// Instant switch: full transition energy at the switch.
		s.metrics.EnergyJ += tr.Energy
		s.phase = target
		s.transTarget = target
		s.settledAt = now
		if !dev.States[target].CanService {
			s.abortService()
		}
	} else {
		s.abortService()
		s.transInProg = true
		s.transTarget = target
		s.transEnd = now + tr.Latency
		s.transPower = tr.Energy / tr.Latency
		s.transEv, _ = s.k.Schedule(s.transEnd, s.hTransDone)
	}
}

func (s *Sim) onWake(now float64) {
	s.wakeEv = eventq.Ref{}
	s.decisionPoint(now)
}
