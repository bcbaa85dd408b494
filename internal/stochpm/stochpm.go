// Package stochpm implements the model-based stochastic DPM baseline the
// Q-DPM paper argues against (Benini, Bogliolo, De Micheli et al.): the
// long-run average-cost policy-optimization problem is written as a linear
// program over state-action occupancy measures and solved with the simplex
// method, yielding a randomized stationary policy; an adaptive wrapper adds
// the online parameter estimator and the mode-switch controller (change
// detector + re-optimization) that tracking a nonstationary workload
// requires.
//
// The LP, for a unichain MDP with states s and actions a:
//
//	min  Σ x(s,a)·c(s,a)
//	s.t. Σ_a x(s',a) − Σ_{s,a} P(s'|s,a)·x(s,a) = 0   for every s'
//	     Σ x(s,a) = 1,  x ≥ 0
//
// and optionally  Σ x(s,a)·perf(s,a) ≤ D  to cap mean backlog, in which
// case the objective is pure energy. The optimal policy is randomized:
// π(a|s) = x(s,a)/Σ_a x(s,a) on states with positive occupancy.
package stochpm

import (
	"fmt"
	"math"
	"time"

	"repro/internal/device"
	"repro/internal/estimator"
	"repro/internal/lp"
	"repro/internal/mdp"
	"repro/internal/rng"
	"repro/internal/slotsim"
)

// Constraint optionally bounds mean backlog in the LP.
type Constraint struct {
	// MaxMeanBacklog is the bound D on expected post-service backlog.
	MaxMeanBacklog float64
}

// Solution is an optimal randomized stationary policy plus diagnostics.
type Solution struct {
	// Probs[s][ai] is π(a|s); rows of zero-occupancy states are nil.
	Probs [][]float64
	// Gain is the optimal long-run average objective (cost, or energy if
	// constrained).
	Gain float64
	// MeanBacklog is the expected backlog under the policy.
	MeanBacklog float64
	// MeanEnergy is the expected per-slot energy under the policy.
	MeanEnergy float64
	// Pivots counts simplex iterations.
	Pivots int
	// SolveTime is the wall-clock time the LP took.
	SolveTime time.Duration
}

// SolveLP formulates and solves the occupancy LP for a DPM model. A nil
// constraint minimizes the scalarized cost (energy + w·backlog); a non-nil
// constraint minimizes energy subject to the backlog bound.
func SolveLP(d *mdp.DPM, cons *Constraint) (*Solution, error) {
	start := time.Now()
	o, err := newOccupancy(d, cons)
	if err != nil {
		return nil, err
	}
	return o.solve(start)
}

// OccupancyLP formulates the occupancy LP SolveLP solves, with one
// variable per (state, action index) in state-major order.
func OccupancyLP(d *mdp.DPM, cons *Constraint) (*lp.Builder, error) {
	if d == nil {
		return nil, fmt.Errorf("stochpm: nil model")
	}
	if cons != nil && !(cons.MaxMeanBacklog >= 0) {
		return nil, fmt.Errorf("stochpm: backlog bound %v must be >= 0", cons.MaxMeanBacklog)
	}
	offsets := actionOffsets(d)
	nv := offsets[d.N]

	b, err := lp.NewBuilder(nv)
	if err != nil {
		return nil, err
	}
	obj := make([]float64, nv)
	// Balance constraints. The full set of balance rows sums to the zero
	// row (probabilities conserve mass), so one row is redundant; dropping
	// the last keeps the system full-rank, which spares the simplex a
	// permanently-basic artificial variable and a lot of degeneracy.
	balance := make([][]float64, d.N-1)
	for sp := range balance {
		balance[sp] = make([]float64, nv)
	}
	var perf []float64
	if cons != nil {
		perf = make([]float64, nv)
	}
	fillOccupancy(d, cons, offsets, obj, balance, perf)

	if err := b.SetObjective(obj); err != nil {
		return nil, err
	}
	for _, row := range balance {
		if err := b.Add(row, lp.EQ, 0); err != nil {
			return nil, err
		}
	}
	// Normalization.
	ones := make([]float64, nv)
	for i := range ones {
		ones[i] = 1
	}
	if err := b.Add(ones, lp.EQ, 1); err != nil {
		return nil, err
	}
	// Optional performance constraint.
	if cons != nil {
		if err := b.Add(perf, lp.LE, cons.MaxMeanBacklog); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// actionOffsets returns the variable layout: the variables of state s are
// offsets[s]..offsets[s+1]-1, one per action index.
func actionOffsets(d *mdp.DPM) []int {
	offsets := make([]int, d.N+1)
	for s := 0; s < d.N; s++ {
		offsets[s+1] = offsets[s] + len(d.Actions[s])
	}
	return offsets
}

// fillOccupancy writes the coefficients of d's occupancy LP that depend
// on the model's values: the objective, the d.N-1 balance rows and, when
// cons is non-nil, the backlog row perf. Only the first offsets[d.N]
// entries of each slice are written, so standard-form rows with slack
// columns can be refilled in place. Each balance row is cleared, then
// every entry receives its +1 first and then its −P terms in
// (s, a, outcome) order, with every transition outcome scattered into its
// target's row once.
func fillOccupancy(d *mdp.DPM, cons *Constraint, offsets []int, obj []float64, balance [][]float64, perf []float64) {
	for s := 0; s < d.N; s++ {
		for ai := range d.Actions[s] {
			if cons != nil {
				obj[offsets[s]+ai] = d.Energy[s][ai]
				perf[offsets[s]+ai] = d.Perf[s][ai]
			} else {
				obj[offsets[s]+ai] = d.Costs[s][ai]
			}
		}
	}
	nv := offsets[d.N]
	for sp, row := range balance {
		clear(row[:nv])
		for ai := range d.Actions[sp] {
			row[offsets[sp]+ai] += 1
		}
	}
	for s := 0; s < d.N; s++ {
		for ai := range d.Actions[s] {
			for _, o := range d.Trans[s][ai] {
				if o.Next < d.N-1 {
					balance[o.Next][offsets[s]+ai] -= o.P
				}
			}
		}
	}
}

// occupancy is a model's occupancy LP in standard form together with the
// simplex scratch that solves it. Its coefficients are refilled in place
// after the model is refilled at a new arrival rate (mdp.DPM.SetArrivalP),
// so the adaptive controller formulates and solves every re-solve in the
// memory its first solve allocated.
type occupancy struct {
	d       *mdp.DPM
	cons    *Constraint
	offsets []int
	prob    lp.Problem
	solver  lp.Solver
}

func newOccupancy(d *mdp.DPM, cons *Constraint) (*occupancy, error) {
	b, err := OccupancyLP(d, cons)
	if err != nil {
		return nil, err
	}
	return &occupancy{d: d, cons: cons, offsets: actionOffsets(d), prob: b.Build()}, nil
}

// refill rewrites the problem's coefficients from the model's current
// values. The balance rows come first in the problem, the normalization
// row next, and the backlog row, if any, last.
func (o *occupancy) refill() {
	var perf []float64
	if o.cons != nil {
		perf = o.prob.A[o.d.N]
	}
	fillOccupancy(o.d, o.cons, o.offsets, o.prob.C, o.prob.A[:o.d.N-1], perf)
}

// solve solves the problem as it stands and converts the optimum into a
// policy; SolveTime runs from start.
func (o *occupancy) solve(start time.Time) (*Solution, error) {
	sol, err := o.solver.Solve(o.prob)
	if err != nil {
		return nil, fmt.Errorf("stochpm: occupancy LP: %w", err)
	}
	return solutionFromOccupancy(o.d, o.offsets, sol, start), nil
}

// solutionFromOccupancy converts an LP point into policy probabilities and
// summary expectations.
func solutionFromOccupancy(d *mdp.DPM, offsets []int, sol *lp.Solution, start time.Time) *Solution {
	out := &Solution{
		Probs:     make([][]float64, d.N),
		Gain:      sol.Objective,
		Pivots:    sol.Iterations,
		SolveTime: time.Since(start),
	}
	for s := 0; s < d.N; s++ {
		total := 0.0
		for ai := range d.Actions[s] {
			total += sol.X[offsets[s]+ai]
		}
		if total < 1e-12 {
			continue // transient under the optimal policy
		}
		probs := make([]float64, len(d.Actions[s]))
		for ai := range d.Actions[s] {
			probs[ai] = sol.X[offsets[s]+ai] / total
		}
		out.Probs[s] = probs
		for ai := range d.Actions[s] {
			x := sol.X[offsets[s]+ai]
			out.MeanBacklog += x * d.Perf[s][ai]
			out.MeanEnergy += x * d.Energy[s][ai]
		}
	}
	return out
}

// SolutionFromMDPPolicy wraps a deterministic MDP policy in a Solution
// with one-hot action probabilities, evaluating its gain, energy, and
// backlog by power iteration. The adaptive controller uses it as a
// fallback when the occupancy LP hits a numerically degenerate instance
// (rare corner rates; see internal/lp for the tolerance discussion).
func SolutionFromMDPPolicy(d *mdp.DPM, pol mdp.Policy) (*Solution, error) {
	start := time.Now()
	if d == nil || len(pol) != d.N {
		return nil, fmt.Errorf("stochpm: policy/model mismatch")
	}
	out := &Solution{Probs: make([][]float64, d.N)}
	for s := 0; s < d.N; s++ {
		probs := make([]float64, len(d.Actions[s]))
		if pol[s] < 0 || pol[s] >= len(probs) {
			return nil, fmt.Errorf("stochpm: action %d out of range in state %d", pol[s], s)
		}
		probs[pol[s]] = 1
		out.Probs[s] = probs
	}
	const iters = 20000
	gain, err := d.EvaluateAverage(pol, iters)
	if err != nil {
		return nil, err
	}
	energy, err := d.EvaluateAverageOf(pol, d.Energy, iters)
	if err != nil {
		return nil, err
	}
	backlog, err := d.EvaluateAverageOf(pol, d.Perf, iters)
	if err != nil {
		return nil, err
	}
	out.Gain = gain
	out.MeanEnergy = energy
	out.MeanBacklog = backlog
	out.SolveTime = time.Since(start)
	return out, nil
}

// ---------------------------------------------------------------------------
// Randomized policy adapter

// LPPolicy adapts an LP solution to the simulator's Policy interface. On
// states the LP left unvisited (zero occupancy) it falls back to "wake if
// there is backlog, else stay" — such states are transient under the
// optimal policy and only appear during adaptation.
//
// The policy reads only the parts of its model that no arrival rate
// changes: Cfg.QueueCap, SettledState, Actions and the device. The
// adaptive controller refills its model in place at each re-solve
// (mdp.DPM.SetArrivalP) while a policy built on the old rates may still
// be in force, so Decide must not read the transition probabilities,
// Costs, Perf or Cfg.ArrivalP.
type LPPolicy struct {
	d      *mdp.DPM
	sol    *Solution
	stream *rng.Stream
	wake   device.StateID
	label  string
}

var _ slotsim.Policy = (*LPPolicy)(nil)

// NewLPPolicy builds the adapter. The stream drives action randomization.
func NewLPPolicy(d *mdp.DPM, sol *Solution, stream *rng.Stream) (*LPPolicy, error) {
	if d == nil || sol == nil || stream == nil {
		return nil, fmt.Errorf("stochpm: LPPolicy needs model, solution, and stream")
	}
	wake := device.StateID(0)
	for i, st := range d.Cfg.Device.PSM.States {
		if st.CanService {
			wake = device.StateID(i)
			break
		}
	}
	return &LPPolicy{d: d, sol: sol, stream: stream, wake: wake, label: "stoch-lp"}, nil
}

// Name identifies the policy.
func (p *LPPolicy) Name() string { return p.label }

// Decide samples from π(·|s).
func (p *LPPolicy) Decide(obs slotsim.Observation) device.StateID {
	q := obs.Queue
	if q > p.d.Cfg.QueueCap {
		q = p.d.Cfg.QueueCap
	}
	s, err := p.d.SettledState(obs.Phase, q)
	if err != nil {
		return obs.Phase
	}
	probs := p.sol.Probs[s]
	if probs == nil {
		if obs.Queue > 0 {
			return p.wake
		}
		return obs.Phase
	}
	u := p.stream.Float64()
	acc := 0.0
	choice := len(probs) - 1
	for ai, pr := range probs {
		acc += pr
		if u < acc {
			choice = ai
			break
		}
	}
	lbl := p.d.Actions[s][choice]
	if lbl < 0 {
		return obs.Phase
	}
	return device.StateID(lbl)
}

// ---------------------------------------------------------------------------
// Adaptive model-based pipeline

// The adaptive controller's estimator and detector settings: the sliding
// estimation window in slots, and the CUSUM mode-switch detector's slack
// and alarm threshold.
const (
	window         = 512
	cusumSlack     = 0.05
	cusumThreshold = 6
)

// AdaptiveConfig assembles the full model-based adaptive power manager:
// estimator → change detector → re-optimization, the pipeline whose
// overhead Q-DPM eliminates.
type AdaptiveConfig struct {
	// Device is the slotted PSM.
	Device *device.Slotted
	// QueueCap bounds the modelled queue.
	QueueCap int
	// LatencyWeight scalarizes backlog into the objective.
	LatencyWeight float64
	// InitialRate seeds the first model before any observation.
	InitialRate float64
	// OptimizeLatencySlots models the wall-clock the re-optimization
	// takes on the managed node: after a change fires, the old policy
	// stays in force for this many slots (default 0 = free).
	OptimizeLatencySlots int
	// Stream drives the randomized policy.
	Stream *rng.Stream
}

// Adaptive is the model-based adaptive power manager. It implements
// slotsim.Learner: Observe feeds the estimator and the detector.
type Adaptive struct {
	cfg AdaptiveConfig

	est    *estimator.WindowRate
	det    *estimator.CUSUM
	occ    *occupancy // model and LP, built by the first solve and refilled by every later one
	cur    *LPPolicy
	pendAt int64 // slot at which the pending re-solve completes (-1 none)
	slot   int64
	// memo maps each clamped rate re-solved so far to the policy that
	// re-solve installed. Re-solves happen at most once a slot and at the
	// estimate sum/n, which is k/window once the window has filled, so
	// the map holds at most 2·window+1 entries: the initial rate, at most
	// window−1 rates from the filling window and window+1 after.
	memo map[float64]resolved

	// Resolves counts re-solves, the first solve included, whether the
	// policy was solved for or reused from an earlier re-solve at the
	// same clamped rate.
	Resolves int64
	// LPFallbacks counts the re-solves whose policy came from the RVI
	// fallback, a reused fallback policy included.
	LPFallbacks int64
	AlarmCount  int64
	// SolveTime is the wall time of the solves actually run, formulating
	// the LP included; a reused policy adds nothing.
	SolveTime time.Duration
}

// resolved is a re-solve's outcome: the policy it installed and whether
// that policy came from the RVI fallback.
type resolved struct {
	pol      *LPPolicy
	fallback bool
}

var _ slotsim.Learner = (*Adaptive)(nil)

// NewAdaptive validates the configuration, solves the initial model, and
// returns the controller.
func NewAdaptive(cfg AdaptiveConfig) (*Adaptive, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("stochpm: adaptive needs a device")
	}
	if cfg.Stream == nil {
		return nil, fmt.Errorf("stochpm: adaptive needs a stream")
	}
	if cfg.InitialRate < 0 || cfg.InitialRate > 1 || math.IsNaN(cfg.InitialRate) {
		return nil, fmt.Errorf("stochpm: initial rate %v out of [0,1]", cfg.InitialRate)
	}
	if cfg.OptimizeLatencySlots < 0 {
		return nil, fmt.Errorf("stochpm: negative optimize latency %d", cfg.OptimizeLatencySlots)
	}
	a := &Adaptive{cfg: cfg, pendAt: -1, memo: make(map[float64]resolved)}
	var err error
	a.est, err = estimator.NewWindowRate(window)
	if err != nil {
		return nil, err
	}
	a.det, err = estimator.NewCUSUM(cfg.InitialRate, cusumSlack, cusumThreshold)
	if err != nil {
		return nil, err
	}
	if err := a.resolve(cfg.InitialRate); err != nil {
		return nil, err
	}
	return a, nil
}

// resolve re-solves the LP with the model at rate p. The first call
// builds the model and the LP; later calls refill both in place, which
// yields exactly what a fresh build would. SolveTime covers formulating
// (or refilling) and solving the LP, not the model.
//
// A re-solve is a pure function of the clamped rate, and the policy
// reads no rate-dependent part of the model, so a rate solved before
// reinstalls the policy that solve built instead of solving again. The
// policy draws from the controller's one stream either way. Failed
// re-solves are not remembered.
func (a *Adaptive) resolve(p float64) error {
	// Clamp to a realistic band: the chain must stay unichain and the
	// occupancy LP well-conditioned at both endpoints. The band also keeps
	// p inside (0, 1), where the model's structure does not depend on it.
	if p < 0.005 {
		p = 0.005
	}
	if p > 0.98 {
		p = 0.98
	}
	if r, ok := a.memo[p]; ok {
		a.install(r)
		return nil
	}
	var start time.Time
	if a.occ == nil {
		d, err := mdp.BuildDPM(mdp.DPMConfig{
			Device:        a.cfg.Device,
			ArrivalP:      p,
			QueueCap:      a.cfg.QueueCap,
			LatencyWeight: a.cfg.LatencyWeight,
		})
		if err != nil {
			return err
		}
		start = time.Now()
		if a.occ, err = newOccupancy(d, nil); err != nil {
			return err
		}
	} else {
		if err := a.occ.d.SetArrivalP(p); err != nil {
			return err
		}
		start = time.Now()
		a.occ.refill()
	}
	d := a.occ.d
	sol, err := a.occ.solve(start)
	fallback := err != nil
	if fallback {
		// Numerically cursed instance: fall back to relative value
		// iteration, which solves the same average-cost problem.
		res, rerr := d.AverageCostRVI(1e-7, 400000)
		if rerr != nil {
			return fmt.Errorf("stochpm: LP failed (%v) and RVI fallback failed: %w", err, rerr)
		}
		sol, rerr = SolutionFromMDPPolicy(d, res.Policy)
		if rerr != nil {
			return rerr
		}
	}
	pol, err := NewLPPolicy(d, sol, a.cfg.Stream)
	if err != nil {
		return err
	}
	r := resolved{pol: pol, fallback: fallback}
	a.memo[p] = r
	a.install(r)
	a.SolveTime += sol.SolveTime
	return nil
}

// install puts a re-solve's policy in force and counts the re-solve.
func (a *Adaptive) install(r resolved) {
	a.cur = r.pol
	a.Resolves++
	if r.fallback {
		a.LPFallbacks++
	}
}

// Name identifies the controller.
func (a *Adaptive) Name() string { return "adaptive-lp" }

// Decide delegates to the current LP policy.
func (a *Adaptive) Decide(obs slotsim.Observation) device.StateID {
	return a.cur.Decide(obs)
}

// Observe feeds the estimator and detector; on an alarm it schedules a
// re-solve that lands OptimizeLatencySlots later (modelling optimization
// wall-clock on the managed node).
func (a *Adaptive) Observe(fb *slotsim.Feedback) {
	a.slot = fb.Next.Slot
	a.est.Add(fb.Arrived)
	if a.det.Add(fb.Arrived) {
		a.AlarmCount++
		if a.pendAt < 0 {
			a.pendAt = a.slot + int64(a.cfg.OptimizeLatencySlots)
		}
	}
	if a.pendAt >= 0 && a.slot >= a.pendAt {
		rate := a.est.Rate()
		if err := a.resolve(rate); err == nil {
			a.det.Reset(rate)
		}
		a.pendAt = -1
	}
}
