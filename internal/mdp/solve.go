package mdp

import (
	"fmt"
	"math"
)

// SolveResult is the output of a planning algorithm.
type SolveResult struct {
	// Policy maps state -> action index.
	Policy Policy
	// Value is V(s) for discounted solvers and the bias/relative value
	// h(s) for average-cost solvers.
	Value []float64
	// Gain is the optimal long-run average cost per slot (average-cost
	// solvers only).
	Gain float64
	// Iterations is the number of sweeps performed.
	Iterations int
}

// backup computes min_a [c(s,a) + mix·Σ P(s'|s,a) v(s')] and the argmin.
func (m *Model) backup(s int, v []float64, mix float64) (float64, int) {
	best := math.Inf(1)
	bestA := 0
	for ai := range m.Actions[s] {
		x := m.Costs[s][ai]
		for _, o := range m.Trans[s][ai] {
			x += mix * o.P * v[o.Next]
		}
		if x < best-1e-15 {
			best = x
			bestA = ai
		}
	}
	return best, bestA
}

// ValueIteration solves the discounted problem min E[Σ γ^t c_t] to the
// given precision (sup-norm of successive iterates, scaled by the standard
// (1-γ)/2γ stopping bound). gamma must lie in (0, 1).
func (m *Model) ValueIteration(gamma, eps float64, maxIter int) (*SolveResult, error) {
	if !(gamma > 0) || gamma >= 1 {
		return nil, fmt.Errorf("mdp: discount %v out of (0,1)", gamma)
	}
	if !(eps > 0) {
		return nil, fmt.Errorf("mdp: precision %v must be positive", eps)
	}
	if maxIter <= 0 {
		return nil, fmt.Errorf("mdp: max iterations %d must be positive", maxIter)
	}
	v := make([]float64, m.N)
	nv := make([]float64, m.N)
	pol := make(Policy, m.N)
	thresh := eps * (1 - gamma) / (2 * gamma)
	for it := 1; it <= maxIter; it++ {
		delta := 0.0
		for s := 0; s < m.N; s++ {
			nv[s], pol[s] = m.backup(s, v, gamma)
			if d := math.Abs(nv[s] - v[s]); d > delta {
				delta = d
			}
		}
		v, nv = nv, v
		if delta < thresh {
			return &SolveResult{Policy: pol, Value: v, Iterations: it}, nil
		}
	}
	return nil, fmt.Errorf("mdp: value iteration did not converge in %d iterations", maxIter)
}

// AverageCostRVI solves the long-run average-cost problem with relative
// value iteration under the standard aperiodicity transformation (mix the
// transition kernel with the identity at τ = 1/2; the optimal policy is
// unchanged and the transformed gain is τ·g). It requires the MDP to be
// unichain under every stationary policy, which holds for the DPM models
// built here (the queue empties with positive probability from every
// state). Convergence is declared when the span of the Bellman residual
// drops below eps.
func (m *Model) AverageCostRVI(eps float64, maxIter int) (*SolveResult, error) {
	if !(eps > 0) {
		return nil, fmt.Errorf("mdp: precision %v must be positive", eps)
	}
	if maxIter <= 0 {
		return nil, fmt.Errorf("mdp: max iterations %d must be positive", maxIter)
	}
	const tau = 0.5
	h := make([]float64, m.N)
	w := make([]float64, m.N)
	pol := make(Policy, m.N)
	for it := 1; it <= maxIter; it++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for s := 0; s < m.N; s++ {
			// Transformed operator: τc + (1-τ)h(s) + τ Σ P h.
			best := math.Inf(1)
			bestA := 0
			for ai := range m.Actions[s] {
				x := tau * m.Costs[s][ai]
				for _, o := range m.Trans[s][ai] {
					x += tau * o.P * h[o.Next]
				}
				x += (1 - tau) * h[s]
				if x < best-1e-15 {
					best = x
					bestA = ai
				}
			}
			w[s] = best
			pol[s] = bestA
			d := w[s] - h[s]
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		if hi-lo < eps*tau {
			gain := (hi + lo) / 2 / tau
			// Normalize bias at state 0.
			ref := w[0]
			val := make([]float64, m.N)
			for s := range val {
				val[s] = w[s] - ref
			}
			return &SolveResult{Policy: pol, Value: val, Gain: gain, Iterations: it}, nil
		}
		// Relative normalization keeps h bounded.
		ref := w[0]
		for s := range h {
			h[s] = w[s] - ref
		}
	}
	return nil, fmt.Errorf("mdp: relative value iteration did not converge in %d iterations", maxIter)
}

// EvaluateAverage computes the long-run average cost (gain) of a fixed
// policy; see EvaluateAverageOf.
func (m *Model) EvaluateAverage(pol Policy, iters int) (float64, error) {
	return m.EvaluateAverageOf(pol, m.Costs, iters)
}

// EvaluateAverageOf computes the long-run average of an arbitrary
// per-(state, action) quantity under a fixed policy by power iteration on
// its stationary distribution. The chain must be unichain; the iteration
// mixes with the identity to kill periodicity.
func (m *Model) EvaluateAverageOf(pol Policy, values [][]float64, iters int) (float64, error) {
	if len(values) != m.N {
		return 0, fmt.Errorf("mdp: values length %d != %d states", len(values), m.N)
	}
	if len(pol) != m.N {
		return 0, fmt.Errorf("mdp: policy length %d != %d states", len(pol), m.N)
	}
	if iters <= 0 {
		return 0, fmt.Errorf("mdp: iteration count %d must be positive", iters)
	}
	pi := make([]float64, m.N)
	next := make([]float64, m.N)
	for s := range pi {
		pi[s] = 1 / float64(m.N)
	}
	for it := 0; it < iters; it++ {
		for s := range next {
			next[s] = 0.5 * pi[s] // lazy chain: stay with prob 1/2
		}
		for s := 0; s < m.N; s++ {
			ai := pol[s]
			if ai < 0 || ai >= len(m.Actions[s]) {
				return 0, fmt.Errorf("mdp: policy action %d out of range in state %d", ai, s)
			}
			for _, o := range m.Trans[s][ai] {
				next[o.Next] += 0.5 * pi[s] * o.P
			}
		}
		pi, next = next, pi
	}
	g := 0.0
	for s := 0; s < m.N; s++ {
		g += pi[s] * values[s][pol[s]]
	}
	return g, nil
}
