// Package qlearn implements tabular Q-learning — the algorithmic core of
// Q-DPM — together with the standard variations the ablation studies
// exercise: Watkins Q-learning, SARSA, double Q-learning, eligibility
// traces (Watkins Q(λ)), ε-greedy and Boltzmann exploration, and one
// polynomial learning-rate schedule whose exponent also gives the
// constant and harmonic rates.
//
// The agent is domain-agnostic: states and actions are small integers.
// internal/core maps power-management observations onto this table. The
// per-step work is one argmax over the legal actions plus one table update
// (Eqn. 3 of the paper), and the memory footprint is the |S|×|A| float64
// table — the two properties the paper's efficiency argument rests on.
package qlearn

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Polynomial is the learning-rate schedule α(n) = Scale/n^Omega for the
// n-th visit of a state-action pair (n >= 1). Omega 0 is the constant
// rate Scale, the paper's choice for nonstationary tracking (a constant
// rate never stops adapting); Omega 1 is the harmonic rate Scale/n, the
// classical convergence schedule for stationary problems; Omega in
// (0.5, 1) is the standard compromise between adaptation speed and
// convergence.
type Polynomial struct {
	Scale float64
	Omega float64
}

// Alpha returns Scale/n^Omega. A constant rate skips math.Pow, whose
// Pow(x, 0) is 1 anyway, so the value is the same.
func (s Polynomial) Alpha(n int64) float64 {
	if s.Omega == 0 {
		return s.Scale
	}
	return s.Scale / math.Pow(float64(n), s.Omega)
}

// ---------------------------------------------------------------------------
// Exploration

// Explorer chooses among the legal actions given their Q-values. It
// returns an index into the qvals slice and whether the choice was
// exploratory (non-greedy), which Watkins Q(λ) needs to cut traces.
type Explorer interface {
	Select(qvals []float64, step int64, stream *rng.Stream) (idx int, explored bool)
	String() string
}

// EpsGreedy explores uniformly with probability ε(t) = max(MinEps,
// Eps·exp(−t/DecayTau)) (constant ε when DecayTau == 0).
type EpsGreedy struct {
	Eps      float64
	MinEps   float64
	DecayTau float64
}

// Epsilon returns the exploration probability at step t.
func (e EpsGreedy) Epsilon(t int64) float64 {
	if e.DecayTau <= 0 {
		return e.Eps
	}
	eps := e.Eps * math.Exp(-float64(t)/e.DecayTau)
	if eps < e.MinEps {
		eps = e.MinEps
	}
	return eps
}

// Select implements Explorer.
func (e EpsGreedy) Select(qvals []float64, step int64, stream *rng.Stream) (int, bool) {
	return selectEps(qvals, e.Epsilon(step), stream)
}

// selectEps is the ε-greedy choice at a resolved exploration rate — the
// shared kernel of EpsGreedy and its memoized wrapper.
func selectEps(qvals []float64, eps float64, stream *rng.Stream) (int, bool) {
	if stream.Float64() < eps {
		return stream.Intn(len(qvals)), true
	}
	return argmax(qvals, stream), false
}

func (e EpsGreedy) String() string {
	return fmt.Sprintf("eps-greedy(ε=%g,min=%g,τ=%g)", e.Eps, e.MinEps, e.DecayTau)
}

// epsMemo wraps a decaying EpsGreedy with a step-indexed memo of ε(t).
// Epsilon is a pure function of the step, so the memo is value-exact; it
// replaces the per-decision math.Exp of the decay schedule with a table
// load for the first epsMemoSize steps (short-episode workloads — fleet
// instances above all — never leave the table). NewAgent installs it
// transparently.
type epsMemo struct {
	e    EpsGreedy
	memo []float64
}

const epsMemoSize = 4096

func newEpsMemo(e EpsGreedy) *epsMemo {
	m := &epsMemo{e: e, memo: make([]float64, epsMemoSize)}
	for i := range m.memo {
		m.memo[i] = -1 // ε values are >= 0; -1 = unfilled
	}
	return m
}

// Select implements Explorer with the memoized rate.
func (m *epsMemo) Select(qvals []float64, step int64, stream *rng.Stream) (int, bool) {
	eps := -1.0
	if step < epsMemoSize {
		eps = m.memo[step]
	}
	if eps < 0 {
		eps = m.e.Epsilon(step)
		if step < epsMemoSize {
			m.memo[step] = eps
		}
	}
	return selectEps(qvals, eps, stream)
}

func (m *epsMemo) String() string { return m.e.String() }

// Boltzmann samples actions with probability ∝ exp(Q/T), T decaying like
// EpsGreedy's ε.
type Boltzmann struct {
	Temp     float64
	MinTemp  float64
	DecayTau float64
}

func (b Boltzmann) temperature(t int64) float64 {
	if b.DecayTau <= 0 {
		return b.Temp
	}
	temp := b.Temp * math.Exp(-float64(t)/b.DecayTau)
	if temp < b.MinTemp {
		temp = b.MinTemp
	}
	return temp
}

// Select implements Explorer.
func (b Boltzmann) Select(qvals []float64, step int64, stream *rng.Stream) (int, bool) {
	temp := b.temperature(step)
	if temp <= 0 {
		return argmax(qvals, stream), false
	}
	// Softmax with max-shift for stability. The weights are recomputed in
	// the selection pass rather than stored so the per-decision hot path
	// allocates nothing; exp is deterministic, so both passes agree.
	mx := qvals[0]
	for _, q := range qvals[1:] {
		if q > mx {
			mx = q
		}
	}
	total := 0.0
	for _, q := range qvals {
		total += math.Exp((q - mx) / temp)
	}
	u := stream.Float64() * total
	acc := 0.0
	choice := len(qvals) - 1
	for i, q := range qvals {
		acc += math.Exp((q - mx) / temp)
		if u < acc {
			choice = i
			break
		}
	}
	return choice, choice != argmaxDet(qvals)
}

func (b Boltzmann) String() string {
	return fmt.Sprintf("boltzmann(T=%g,min=%g,τ=%g)", b.Temp, b.MinTemp, b.DecayTau)
}

// argmax breaks ties uniformly at random so symmetric initial tables do
// not lock onto the first action.
func argmax(qvals []float64, stream *rng.Stream) int {
	best := qvals[0]
	n := 1
	idx := 0
	for i, q := range qvals[1:] {
		switch {
		case q > best+1e-12:
			best, idx, n = q, i+1, 1
		case q > best-1e-12:
			n++
			if stream.Intn(n) == 0 {
				idx = i + 1
			}
		}
	}
	return idx
}

// argmaxDet is the deterministic first-max, used only to classify a
// Boltzmann draw as exploratory.
func argmaxDet(qvals []float64) int {
	idx := 0
	for i, q := range qvals {
		if q > qvals[idx] {
			idx = i
		}
	}
	return idx
}

// ---------------------------------------------------------------------------
// Agent

// Rule selects the update target.
type Rule int

// Update rules.
const (
	// Watkins is standard Q-learning: target r + γ^k · max_b Q(s', b).
	Watkins Rule = iota
	// SARSA is on-policy: target r + γ^k · Q(s', a') with a' the action
	// actually taken next (supply it via UpdateSARSA).
	SARSA
	// DoubleQ keeps two tables and decouples argmax from evaluation,
	// correcting Watkins' overestimation bias.
	DoubleQ
)

func (r Rule) String() string {
	switch r {
	case Watkins:
		return "watkins"
	case SARSA:
		return "sarsa"
	case DoubleQ:
		return "double-q"
	default:
		return fmt.Sprintf("rule(%d)", int(r))
	}
}

// Config assembles an agent.
type Config struct {
	// NumStates and NumActions size the table.
	NumStates, NumActions int
	// Gamma is the discount factor in (0,1).
	Gamma float64
	// Alpha is the learning-rate schedule.
	Alpha Polynomial
	// Explore is the exploration strategy.
	Explore Explorer
	// Rule selects Watkins, SARSA, or DoubleQ.
	Rule Rule
	// TraceLambda enables Watkins Q(λ) eligibility traces when > 0
	// (Watkins rule only). Traces are replacing and are cut on
	// exploratory actions.
	TraceLambda float64
}

// traceCutoff drops eligibility-trace entries below this weight.
const traceCutoff = 1e-4

// Agent is a tabular Q-learner. Not safe for concurrent use.
type Agent struct {
	cfg    Config
	q      []float64 // primary table
	q2     []float64 // second table (DoubleQ only)
	visits []int64
	step   int64

	traces map[int32]float64 // state*nA+action -> eligibility

	updates int64

	// scratch holds the legal-action Q values during SelectAction. One
	// selection runs per simulated slot, so this buffer keeps the
	// decision hot path allocation-free.
	scratch []float64

	// alphaMemo caches Alpha(n) for small visit counts. The schedule is
	// a pure function of n, so the memo is value-exact; it turns the
	// per-update math.Pow of the Polynomial schedule into a table load.
	// Allocated once at construction (fixed size), so the update hot
	// path stays allocation-free.
	alphaMemo []float64

	// touched journals the table indices written since the last Reset
	// (duplicates allowed), so Reset restores only those entries instead
	// of sweeping the whole table — a fleet instance touches a handful
	// of pairs while the table holds hundreds. Once the journal reaches
	// the sweep break-even it stops recording (dirtyAll) and Reset falls
	// back to the full clear.
	touched  []int32
	dirtyAll bool
}

// alphaMemoSize bounds the memo: visit counts beyond it (rare pairs in
// very long runs) fall back to the schedule. Index 0 is unused (visit
// counts start at 1).
const alphaMemoSize = 4096

// alpha returns the learning rate for visit n, memoized.
func (a *Agent) alpha(n int64) float64 {
	if n < alphaMemoSize {
		if v := a.alphaMemo[n]; v >= 0 {
			return v
		}
		v := a.cfg.Alpha.Alpha(n)
		a.alphaMemo[n] = v
		return v
	}
	return a.cfg.Alpha.Alpha(n)
}

// NewAgent validates the configuration and returns a zeroed agent.
func NewAgent(cfg Config) (*Agent, error) {
	if cfg.NumStates <= 0 || cfg.NumActions <= 0 {
		return nil, fmt.Errorf("qlearn: table dimensions %dx%d must be positive", cfg.NumStates, cfg.NumActions)
	}
	if !(cfg.Gamma > 0) || cfg.Gamma >= 1 {
		return nil, fmt.Errorf("qlearn: discount %v out of (0,1)", cfg.Gamma)
	}
	// Alpha(1) is Scale whatever Omega is.
	if r := cfg.Alpha.Scale; !(r > 0) || r > 1 {
		return nil, fmt.Errorf("qlearn: learning-rate scale %v outside (0,1]", r)
	}
	if cfg.Explore == nil {
		return nil, fmt.Errorf("qlearn: nil explorer")
	}
	if cfg.TraceLambda < 0 || cfg.TraceLambda >= 1 {
		return nil, fmt.Errorf("qlearn: trace lambda %v out of [0,1)", cfg.TraceLambda)
	}
	if cfg.TraceLambda > 0 && cfg.Rule != Watkins {
		return nil, fmt.Errorf("qlearn: eligibility traces require the Watkins rule")
	}
	// A decaying ε-greedy explorer pays one math.Exp per decision;
	// memoize it by step (value-exact — ε is a pure function of the
	// step). Constant-ε explorers (DecayTau <= 0) need no memo.
	if eg, ok := cfg.Explore.(EpsGreedy); ok && eg.DecayTau > 0 {
		cfg.Explore = newEpsMemo(eg)
	}
	n := cfg.NumStates * cfg.NumActions
	a := &Agent{cfg: cfg, q: make([]float64, n), visits: make([]int64, n),
		alphaMemo: make([]float64, alphaMemoSize)}
	for i := range a.alphaMemo {
		a.alphaMemo[i] = -1 // rates are positive; -1 = unfilled
	}
	if cfg.Rule == DoubleQ {
		a.q2 = make([]float64, n)
	}
	if cfg.TraceLambda > 0 {
		a.traces = make(map[int32]float64)
	}
	return a, nil
}

// Reset restores the agent to its freshly-constructed state — tables,
// visit/step/update counters zeroed, traces cleared — reusing
// every buffer. A Reset agent is behaviorally bit-identical to
// NewAgent(cfg); callers that cycle one agent through many independent
// episodes (one fleet instance per episode) use it to keep learner
// turnover off the allocator.
func (a *Agent) Reset() {
	if a.dirtyAll {
		clear(a.q)
		clear(a.q2)
		clear(a.visits)
	} else {
		// Short episodes touch a handful of pairs; zeroing just those
		// yields the same table as the full sweep (every untouched entry
		// is still zero).
		for _, i := range a.touched {
			a.q[i] = 0
			if a.q2 != nil {
				a.q2[i] = 0
			}
			a.visits[i] = 0
		}
	}
	a.touched = a.touched[:0]
	a.dirtyAll = false
	a.step = 0
	a.updates = 0
	if a.traces != nil {
		clear(a.traces)
	}
}

func (a *Agent) idx(s, act int) int { return s*a.cfg.NumActions + act }

// mark journals a table write for journaled Reset. Past the break-even
// point a full-table clear is cheaper than replaying the journal, so
// recording stops and dirtyAll routes Reset to the sweep.
func (a *Agent) mark(i int) {
	if a.dirtyAll {
		return
	}
	if len(a.touched) >= len(a.q)/4+16 {
		a.dirtyAll = true
		a.touched = a.touched[:0]
		return
	}
	a.touched = append(a.touched, int32(i))
}

// Q returns the current estimate for (s, act). For DoubleQ it returns the
// average of the two tables (the quantity used for action selection).
func (a *Agent) Q(s, act int) float64 {
	i := a.idx(s, act)
	if a.q2 != nil {
		return (a.q[i] + a.q2[i]) / 2
	}
	return a.q[i]
}

// Visits returns the visit count of (s, act).
func (a *Agent) Visits(s, act int) int64 { return a.visits[a.idx(s, act)] }

// Updates returns the total number of table updates performed.
func (a *Agent) Updates() int64 { return a.updates }

// Step returns the number of action selections made.
func (a *Agent) Step() int64 { return a.step }

// Bytes returns the approximate resident size of the learner state — the
// paper's "a little bit [of] memory space" claim, measured.
func (a *Agent) Bytes() int {
	b := len(a.q)*8 + len(a.visits)*8
	if a.q2 != nil {
		b += len(a.q2) * 8
	}
	return b
}

// MaxQ returns max over legal actions of Q(s, ·). It panics on an empty
// legal set (programming error).
func (a *Agent) MaxQ(s int, legal []int) float64 {
	best := math.Inf(-1)
	for _, act := range legal {
		if q := a.Q(s, act); q > best {
			best = q
		}
	}
	return best
}

// Greedy returns the deterministic greedy action among legal.
func (a *Agent) Greedy(s int, legal []int) int {
	best := legal[0]
	for _, act := range legal[1:] {
		if a.Q(s, act) > a.Q(s, best) {
			best = act
		}
	}
	return best
}

// SelectAction picks an action among legal using the exploration strategy
// and advances the step counter.
func (a *Agent) SelectAction(s int, legal []int, stream *rng.Stream) (action int, explored bool) {
	if len(legal) == 0 {
		panic("qlearn: SelectAction with no legal actions")
	}
	if cap(a.scratch) < len(legal) {
		a.scratch = make([]float64, len(legal))
	}
	qvals := a.scratch[:len(legal)]
	for i, act := range legal {
		qvals[i] = a.Q(s, act)
	}
	idx, explored := a.cfg.Explore.Select(qvals, a.step, stream)
	a.step++
	if explored && a.traces != nil {
		// Watkins Q(λ): exploratory actions invalidate the on-policy
		// trajectory; cut all traces.
		clear(a.traces)
	}
	return legal[idx], explored
}

// Update applies the Watkins/DoubleQ update for a transition that took
// `elapsed` slots (SMDP-style: the target discounts by γ^elapsed, so
// multi-slot device transitions are handled exactly). reward must already
// be the discounted sum of the per-slot rewards over those slots.
func (a *Agent) Update(s, act int, reward float64, next int, legalNext []int, elapsed int, stream *rng.Stream) {
	if elapsed < 1 {
		elapsed = 1
	}
	// One-slot transitions dominate every workload; Pow(γ, 1) is exactly
	// γ, so the fast path is value-identical and skips the pow.
	g := a.cfg.Gamma
	if elapsed > 1 {
		g = math.Pow(a.cfg.Gamma, float64(elapsed))
	}
	i := a.idx(s, act)
	a.mark(i)
	a.visits[i]++
	alpha := a.alpha(a.visits[i])
	a.updates++

	switch a.cfg.Rule {
	case DoubleQ:
		// Flip a coin: update one table using the other's evaluation.
		ta, tb := a.q, a.q2
		if stream.Bool(0.5) {
			ta, tb = a.q2, a.q
		}
		best := legalNext[0]
		for _, n2 := range legalNext[1:] {
			if ta[a.idx(next, n2)] > ta[a.idx(next, best)] {
				best = n2
			}
		}
		target := reward + g*tb[a.idx(next, best)]
		ta[i] += alpha * (target - ta[i])
	default: // Watkins
		target := reward + g*a.MaxQ(next, legalNext)
		delta := target - a.q[i]
		if a.traces == nil {
			a.q[i] += alpha * delta
			return
		}
		// Watkins Q(λ) with replacing traces.
		a.traces[int32(i)] = 1
		for k, e := range a.traces {
			a.q[k] += alpha * delta * e
			e *= a.cfg.Gamma * a.cfg.TraceLambda
			if e < traceCutoff {
				delete(a.traces, k)
			} else {
				a.traces[k] = e
			}
		}
	}
}

// UpdateSARSA applies the on-policy update with the actually-chosen next
// action.
func (a *Agent) UpdateSARSA(s, act int, reward float64, next, nextAct int, elapsed int) {
	if a.cfg.Rule != SARSA {
		panic("qlearn: UpdateSARSA on a non-SARSA agent")
	}
	if elapsed < 1 {
		elapsed = 1
	}
	g := a.cfg.Gamma
	if elapsed > 1 {
		g = math.Pow(a.cfg.Gamma, float64(elapsed))
	}
	i := a.idx(s, act)
	a.mark(i)
	a.visits[i]++
	alpha := a.alpha(a.visits[i])
	a.updates++
	target := reward + g*a.Q(next, nextAct)
	a.q[i] += alpha * (target - a.q[i])
}

// UpdateComponent applies one component's share of a blended update
// (fuzzy aggregation computes one TD error delta for the blended state
// and spreads it over the components by weight): it counts a visit of
// (s, act) and moves Q(s, act) by that pair's own learning rate times
// weight·delta. Watkins rule only, like fuzzy aggregation itself.
func (a *Agent) UpdateComponent(s, act int, weight, delta float64) {
	if a.cfg.Rule != Watkins {
		panic("qlearn: UpdateComponent on a non-Watkins agent")
	}
	i := a.idx(s, act)
	a.mark(i)
	a.visits[i]++
	a.updates++
	a.q[i] += a.alpha(a.visits[i]) * weight * delta
}
