// Package core implements Q-DPM, the paper's contribution: a model-free
// power manager that learns the power-state command policy online with
// tabular Q-learning (Watkins' update, Eqn. 3 of the paper), replacing the
// model-based pipeline of parameter estimator, mode-switch controller, and
// linear-programming policy optimization.
//
// Each decision slot the manager observes (device state, queue occupancy,
// optionally an idle-time bucket), takes the ε-greedy action over the
// allowed power-state commands, and on the next decision point applies the
// Q-update with the discounted payoff accumulated over the slots in
// between — multi-slot device transitions are handled exactly in the
// semi-Markov sense, discounting the bootstrap by γ^k for a k-slot
// transition. The payoff is the paper's "function of energy reduction":
// the energy saved relative to the device's hungriest state, minus a
// latency penalty proportional to the request backlog.
//
// Two of the paper's "rewarding research remaining" directions are also
// implemented:
//
//   - QoS-guaranteed Q-DPM: a Lagrangian backlog multiplier adapted online
//     so mean backlog tracks a target (Config.QoS);
//   - Fuzzy Q-DPM: triangular fuzzy aggregation over the queue dimension
//     for noisy queue observations (Config.Fuzzy).
package core

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/qlearn"
	"repro/internal/rng"
	"repro/internal/slotsim"
)

// QoSConfig adapts a Lagrangian latency multiplier online so that the
// learned policy honours a mean-backlog target without hand-tuning the
// reward weight.
type QoSConfig struct {
	// TargetBacklog is the mean post-service backlog to track.
	TargetBacklog float64
	// Eta is the multiplier step size per adaptation.
	Eta float64
}

// QoS multiplier bounds and period: the multiplier stays within
// [0, qosMaxLambda] and adapts every qosAdaptEvery slots.
const (
	qosMaxLambda  = 10
	qosAdaptEvery = 1000
)

// Config assembles a Q-DPM power manager.
type Config struct {
	// Device is the slotted PSM under management.
	Device *device.Slotted
	// QueueCap is the largest queue occupancy the encoder distinguishes;
	// observations beyond it clamp. It should match the simulator's cap.
	QueueCap int
	// QueueBuckets coarsens the queue dimension to this many buckets
	// (0 = exact: QueueCap+1 levels). The granularity ablation uses this.
	QueueBuckets int
	// IdleBuckets, when non-empty, adds an idle-time feature with the
	// given thresholds (slots since last arrival). The paper's state is
	// device×queue; the idle feature is an optional enrichment.
	IdleBuckets []int64
	// LatencyWeight is the backlog penalty in the payoff, in joules per
	// request-slot. Match the simulator's cost weight so Q-DPM optimizes
	// the same objective the analytical policies do.
	LatencyWeight float64
	// Gamma is the discount factor (default 0.98; near 1 so the
	// discounted optimum coincides with the average-cost optimum the
	// model-based solvers compute).
	Gamma float64
	// Alpha is the learning-rate schedule (default the constant rate
	// 0.1 — a constant rate is what lets Q-DPM track nonstationary
	// input).
	Alpha qlearn.Polynomial
	// Explore is the exploration strategy (default EpsGreedy{Eps:0.05}).
	Explore qlearn.Explorer
	// Rule selects Watkins (default), SARSA, or DoubleQ.
	Rule qlearn.Rule
	// TraceLambda enables Watkins Q(λ) traces when > 0.
	TraceLambda float64
	// Fuzzy enables triangular fuzzy aggregation over the queue feature
	// (Watkins rule only, incompatible with traces).
	Fuzzy bool
	// QoS enables the Lagrangian QoS extension.
	QoS *QoSConfig
	// Stream drives exploration.
	Stream *rng.Stream
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Gamma == 0 {
		c.Gamma = 0.98
	}
	if c.Alpha == (qlearn.Polynomial{}) {
		c.Alpha = qlearn.Polynomial{Scale: 0.1}
	}
	if c.Explore == nil {
		c.Explore = qlearn.EpsGreedy{Eps: 0.05}
	}
	return c
}

// Manager is the Q-DPM power manager. It implements slotsim.Learner.
type Manager struct {
	cfg   Config
	agent *qlearn.Agent

	nDev    int
	qLevels int // encoder queue buckets
	iLevels int // encoder idle buckets (>= 1)
	legal   [][]int

	rewardNorm float64
	maxEnergy  float64

	// Pending semi-Markov experience between decision points. Held by
	// value (with a presence flag) so the steady state — one experience
	// per slot — allocates nothing.
	pending    pendingExp
	hasPending bool
	// SARSA: completed experience awaiting the next action choice.
	sarsaReady pendingExp
	hasSarsa   bool

	// Fuzzy encodings of the pending decision state.
	fuzzyStates  []int
	fuzzyWeights []float64
	// qScratch holds blended Q values during a fuzzy decision; unlike the
	// fuzzy encodings it never outlives the Decide call, so it is safe to
	// reuse and keeps the per-slot path allocation-free.
	qScratch []float64

	// QoS state.
	qosLambda   float64
	backlogAcc  float64
	backlogN    int64
	lastAdaptAt int64

	decisions int64
}

type pendingExp struct {
	state   int
	states  []int // fuzzy components (nil when crisp)
	weights []float64
	action  device.StateID
	reward  float64 // discounted accumulated payoff
	gpow    float64 // γ^elapsed so far
	elapsed int
}

var _ slotsim.Learner = (*Manager)(nil)

// New validates the configuration and returns a manager with a zeroed
// Q-table.
func New(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Device == nil {
		return nil, fmt.Errorf("core: config needs a device")
	}
	if cfg.Stream == nil {
		return nil, fmt.Errorf("core: config needs an rng stream")
	}
	if cfg.QueueCap < 1 {
		return nil, fmt.Errorf("core: queue cap %d must be >= 1", cfg.QueueCap)
	}
	if cfg.QueueBuckets < 0 || cfg.QueueBuckets > cfg.QueueCap+1 {
		return nil, fmt.Errorf("core: queue buckets %d out of [0,%d]", cfg.QueueBuckets, cfg.QueueCap+1)
	}
	if cfg.LatencyWeight < 0 || math.IsNaN(cfg.LatencyWeight) {
		return nil, fmt.Errorf("core: latency weight %v must be >= 0", cfg.LatencyWeight)
	}
	for i := 1; i < len(cfg.IdleBuckets); i++ {
		if cfg.IdleBuckets[i] <= cfg.IdleBuckets[i-1] {
			return nil, fmt.Errorf("core: idle bucket thresholds must be strictly increasing")
		}
	}
	if cfg.Fuzzy && cfg.Rule != qlearn.Watkins {
		return nil, fmt.Errorf("core: fuzzy aggregation requires the Watkins rule")
	}
	if cfg.Fuzzy && cfg.TraceLambda > 0 {
		return nil, fmt.Errorf("core: fuzzy aggregation is incompatible with eligibility traces")
	}
	if cfg.QoS != nil {
		if !(cfg.QoS.TargetBacklog >= 0) {
			return nil, fmt.Errorf("core: QoS target backlog %v must be >= 0", cfg.QoS.TargetBacklog)
		}
		if !(cfg.QoS.Eta > 0) {
			return nil, fmt.Errorf("core: QoS eta %v must be positive", cfg.QoS.Eta)
		}
	}

	m := &Manager{cfg: cfg, nDev: cfg.Device.PSM.NumStates()}
	m.qLevels = cfg.QueueCap + 1
	if cfg.QueueBuckets > 0 {
		m.qLevels = cfg.QueueBuckets
	}
	m.iLevels = len(cfg.IdleBuckets) + 1
	m.maxEnergy = cfg.Device.MaxPowerEnergy()
	m.rewardNorm = m.maxEnergy + cfg.LatencyWeight*float64(cfg.QueueCap)
	if m.rewardNorm == 0 {
		m.rewardNorm = 1
	}

	// Legal action sets per device state.
	m.legal = make([][]int, m.nDev)
	for i := 0; i < m.nDev; i++ {
		for j := 0; j < m.nDev; j++ {
			if i == j || cfg.Device.TransSlots[i][j] >= 0 {
				m.legal[i] = append(m.legal[i], j)
			}
		}
	}

	agent, err := qlearn.NewAgent(qlearn.Config{
		NumStates:   m.nDev * m.qLevels * m.iLevels,
		NumActions:  m.nDev,
		Gamma:       cfg.Gamma,
		Alpha:       cfg.Alpha,
		Explore:     cfg.Explore,
		Rule:        cfg.Rule,
		TraceLambda: cfg.TraceLambda,
	})
	if err != nil {
		return nil, err
	}
	m.agent = agent
	return m, nil
}

// Reset restores the manager to its freshly-constructed state — Q-table
// at zero, exploration schedule rewound, pending semi-Markov experience
// and QoS multiplier cleared — and rebinds its exploration randomness to
// stream (pass the existing cfg.Stream to keep it). A Reset manager is
// behaviorally bit-identical to New(cfg) with that stream, reusing every
// buffer: the fleet layer cycles one manager per (worker, class) through
// thousands of instances with zero heap traffic.
func (m *Manager) Reset(stream *rng.Stream) {
	m.agent.Reset()
	m.hasPending = false
	m.pending = pendingExp{}
	m.hasSarsa = false
	m.sarsaReady = pendingExp{}
	m.fuzzyStates = nil
	m.fuzzyWeights = nil
	m.qosLambda = 0
	m.backlogAcc = 0
	m.backlogN = 0
	m.lastAdaptAt = 0
	m.decisions = 0
	m.cfg.Stream = stream
}

// queueBucket maps an observed queue length to an encoder bucket.
func (m *Manager) queueBucket(q int) int {
	if q < 0 {
		q = 0
	}
	if q > m.cfg.QueueCap {
		q = m.cfg.QueueCap
	}
	if m.cfg.QueueBuckets == 0 {
		return q
	}
	// Equal-width buckets over 0..cap.
	b := q * m.cfg.QueueBuckets / (m.cfg.QueueCap + 1)
	if b >= m.cfg.QueueBuckets {
		b = m.cfg.QueueBuckets - 1
	}
	return b
}

// idleBucket maps idle slots to a bucket via the configured thresholds.
func (m *Manager) idleBucket(idle int64) int {
	b := 0
	for _, th := range m.cfg.IdleBuckets {
		if idle >= th {
			b++
		}
	}
	return b
}

// encode maps an observation to the crisp table state.
func (m *Manager) encode(phase device.StateID, q int, idle int64) int {
	return (int(phase)*m.qLevels+m.queueBucket(q))*m.iLevels + m.idleBucket(idle)
}

// encodeFuzzy returns the fuzzy components of an observation: up to two
// neighbouring queue levels with triangular membership weights.
func (m *Manager) encodeFuzzy(phase device.StateID, q int, idle int64) ([]int, []float64) {
	if q < 0 {
		q = 0
	}
	if q > m.cfg.QueueCap {
		q = m.cfg.QueueCap
	}
	qb := m.queueBucket(q)
	// Membership of the exact occupancy in bucket centres: when buckets
	// are exact (QueueBuckets == 0) fuzziness degenerates to one
	// component per level with a 0.75/0.25 smear onto the neighbour,
	// which is what makes noisy-queue observations robust.
	primary := (int(phase)*m.qLevels+qb)*m.iLevels + m.idleBucket(idle)
	neighbour := qb + 1
	if neighbour >= m.qLevels {
		return []int{primary}, []float64{1}
	}
	second := (int(phase)*m.qLevels+neighbour)*m.iLevels + m.idleBucket(idle)
	return []int{primary, second}, []float64{0.75, 0.25}
}

// blendedQ returns Σ w_i Q(s_i, a).
func (m *Manager) blendedQ(states []int, weights []float64, act int) float64 {
	v := 0.0
	for i, s := range states {
		v += weights[i] * m.agent.Q(s, act)
	}
	return v
}

// Name identifies the policy in reports.
func (m *Manager) Name() string {
	switch {
	case m.cfg.Fuzzy:
		return "q-dpm-fuzzy"
	case m.cfg.QoS != nil:
		return "q-dpm-qos"
	case m.cfg.Rule == qlearn.SARSA:
		return "q-dpm-sarsa"
	case m.cfg.Rule == qlearn.DoubleQ:
		return "q-dpm-double"
	default:
		return "q-dpm"
	}
}

// Decide implements slotsim.Policy: one ε-greedy argmax over the Q row.
func (m *Manager) Decide(obs slotsim.Observation) device.StateID {
	m.decisions++
	legal := m.legal[obs.Phase]

	var action int
	if m.cfg.Fuzzy {
		states, weights := m.encodeFuzzy(obs.Phase, obs.Queue, obs.IdleSlots)
		if cap(m.qScratch) < len(legal) {
			m.qScratch = make([]float64, len(legal))
		}
		qvals := m.qScratch[:len(legal)]
		for i, a := range legal {
			qvals[i] = m.blendedQ(states, weights, a)
		}
		idx, _ := m.cfg.Explore.Select(qvals, m.decisions, m.cfg.Stream)
		action = legal[idx]
		m.fuzzyStates, m.fuzzyWeights = states, weights
	} else {
		s := m.encode(obs.Phase, obs.Queue, obs.IdleSlots)
		// Complete a pending SARSA update with the action about to be taken.
		if m.hasSarsa {
			a2Probe, _ := m.agent.SelectAction(s, legal, m.cfg.Stream)
			m.agent.UpdateSARSA(m.sarsaReady.state, int(m.sarsaReady.action),
				m.sarsaReady.reward, s, a2Probe, m.sarsaReady.elapsed)
			m.hasSarsa = false
			action = a2Probe
		} else {
			action, _ = m.agent.SelectAction(s, legal, m.cfg.Stream)
		}
	}
	return device.StateID(action)
}

// Observe implements slotsim.Learner: accumulate the per-slot payoff and
// apply the Q-update at decision points.
func (m *Manager) Observe(fb *slotsim.Feedback) {
	// Per-slot payoff: energy reduction minus latency penalty, normalized.
	backlog := float64(fb.Next.Queue)
	w := m.cfg.LatencyWeight + m.qosLambda
	reward := (m.maxEnergy - fb.Energy - w*backlog) / m.rewardNorm

	// QoS bookkeeping.
	if m.cfg.QoS != nil {
		m.backlogAcc += backlog
		m.backlogN++
		if fb.Next.Slot-m.lastAdaptAt >= qosAdaptEvery {
			avg := m.backlogAcc / float64(m.backlogN)
			m.qosLambda += m.cfg.QoS.Eta * (avg - m.cfg.QoS.TargetBacklog)
			if m.qosLambda < 0 {
				m.qosLambda = 0
			}
			if m.qosLambda > qosMaxLambda {
				m.qosLambda = qosMaxLambda
			}
			m.backlogAcc, m.backlogN = 0, 0
			m.lastAdaptAt = fb.Next.Slot
		}
	}

	// Start or extend the pending semi-Markov experience.
	if !m.hasPending {
		// Field-by-field: a composite literal would build a temporary
		// pendingExp and block-copy it in.
		p := &m.pending
		p.action = fb.Action
		p.reward = reward
		p.gpow = m.cfg.Gamma
		// elapsed counts slots covered by this experience.
		p.elapsed = 1
		if m.cfg.Fuzzy {
			p.state = 0
			p.states, p.weights = m.fuzzyStates, m.fuzzyWeights
		} else {
			p.state = m.encode(fb.Prev.Phase, fb.Prev.Queue, fb.Prev.IdleSlots)
			p.states, p.weights = nil, nil
		}
		m.hasPending = true
	} else {
		m.pending.reward += m.pending.gpow * reward
		m.pending.gpow *= m.cfg.Gamma
		m.pending.elapsed++
	}

	if fb.Next.Transitioning {
		return // keep accumulating until the next decision point
	}

	// Decision point reached: apply the update. By pointer: nothing below
	// writes m.pending, and a copy would block-move it at every decision.
	p := &m.pending
	m.hasPending = false
	nextLegal := m.legal[fb.Next.Phase]

	switch {
	case m.cfg.Fuzzy:
		nStates, nWeights := m.encodeFuzzy(fb.Next.Phase, fb.Next.Queue, fb.Next.IdleSlots)
		// Blended bootstrap: Σ w'_i max_a Q(s'_i, a).
		boot := 0.0
		for i, s2 := range nStates {
			boot += nWeights[i] * m.agent.MaxQ(s2, nextLegal)
		}
		g := math.Pow(m.cfg.Gamma, float64(p.elapsed))
		target := p.reward + g*boot
		cur := m.blendedQ(p.states, p.weights, int(p.action))
		delta := target - cur
		for i, s := range p.states {
			// Per-component learning rate from its own visit counter.
			m.agent.UpdateComponent(s, int(p.action), p.weights[i], delta)
		}
	case m.cfg.Rule == qlearn.SARSA:
		m.sarsaReady = *p
		m.hasSarsa = true
	default:
		next := m.encode(fb.Next.Phase, fb.Next.Queue, fb.Next.IdleSlots)
		m.agent.Update(p.state, int(p.action), p.reward, next, nextLegal, p.elapsed, m.cfg.Stream)
	}
}

// GreedyTarget returns the current greedy command for an observation
// without exploration or learning; used to snapshot the learned policy.
func (m *Manager) GreedyTarget(phase device.StateID, q int, idle int64) device.StateID {
	legal := m.legal[phase]
	s := m.encode(phase, q, idle)
	return device.StateID(m.agent.Greedy(s, legal))
}

// QosLambda returns the current Lagrangian multiplier (QoS mode).
func (m *Manager) QosLambda() float64 { return m.qosLambda }

// Decisions returns the number of Decide calls.
func (m *Manager) Decisions() int64 { return m.decisions }

// TableBytes returns the learner's resident table size in bytes.
func (m *Manager) TableBytes() int { return m.agent.Bytes() }

// NumStates returns the encoder's state-space size.
func (m *Manager) NumStates() int { return m.nDev * m.qLevels * m.iLevels }

// Agent exposes the underlying learner for diagnostics and tests.
func (m *Manager) Agent() *qlearn.Agent { return m.agent }
