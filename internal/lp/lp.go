// Package lp implements a two-phase simplex solver on a dense tableau for
// linear programs, from scratch on the standard library.
//
// This is the "widely applied linear programming policy optimization" the
// Q-DPM paper positions itself against: the Benini-style stochastic DPM
// baseline in internal/stochpm formulates optimal randomized policies as an
// occupancy-measure LP and solves it here. Bland's anti-cycling rule is
// used throughout because occupancy LPs are heavily degenerate.
//
// The solver accepts problems in computational standard form —
// minimize c·x subject to Ax = b, x ≥ 0 — and a small builder converts
// ≤/≥/= constraint systems into that form with slack and surplus
// variables.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// ErrInfeasible reports that no feasible point exists.
var ErrInfeasible = errors.New("lp: infeasible")

// ErrUnbounded reports that the objective is unbounded below.
var ErrUnbounded = errors.New("lp: unbounded")

// ErrNumerical reports that the simplex terminated but its solution fails
// the final feasibility verification — the tableau degraded beyond repair
// on a degenerate instance. Callers should treat it like a solver failure
// and use an alternative method.
var ErrNumerical = errors.New("lp: numerical breakdown")

// Problem is a standard-form LP: minimize C·x subject to A x = B, x ≥ 0.
type Problem struct {
	C []float64
	A [][]float64
	B []float64
}

// Validate checks dimensions and finiteness.
func (p *Problem) Validate() error {
	m := len(p.B)
	n := len(p.C)
	if n == 0 {
		return fmt.Errorf("lp: no variables")
	}
	if len(p.A) != m {
		return fmt.Errorf("lp: A has %d rows, B has %d entries", len(p.A), m)
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("lp: row %d has %d columns, want %d", i, len(row), n)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("lp: A[%d][%d] = %v", i, j, v)
			}
		}
	}
	for i, v := range p.B {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("lp: B[%d] = %v", i, v)
		}
	}
	for j, v := range p.C {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("lp: C[%d] = %v", j, v)
		}
	}
	return nil
}

// Solution is an optimal basic feasible solution.
type Solution struct {
	// X is the optimal point.
	X []float64
	// Objective is C·X.
	Objective float64
	// Iterations counts simplex pivots across both phases.
	Iterations int
}

// Numerical tolerances. optEps classifies a reduced cost as improving;
// ratioEps classifies a pivot-column entry as usable in the ratio test;
// driveOutEps is the minimum magnitude for pivoting a zero-valued
// artificial variable out of the basis (pivoting on smaller elements
// destroys the tableau's conditioning). Tolerances looser than the classic
// 1e-9 are deliberate: occupancy-measure LPs carry probabilities down to
// 1e-4, and 1e-9-scale noise otherwise keeps Bland's rule spinning on
// zero-improvement pivots.
const (
	optEps      = 1e-7
	ratioEps    = 1e-7
	driveOutEps = 1e-6
)

// Solve runs two-phase simplex with Bland's rule. It returns
// ErrInfeasible or ErrUnbounded as appropriate.
//
// The tableau is a single backing []float64 with row stride `width` (one
// allocation, contiguous rows) rather than an [][]float64: a pivot walks
// whole rows, so row locality and a flat index computation dominate the
// solver's runtime and allocation profile on the occupancy LPs stochpm
// feeds it.
//
// Work the result cannot depend on is skipped. A pivot updates only the
// nonzero entries of its pivot row (see pivot), and once phase 1 ends the
// m artificial columns are dead: nothing reads them again, so the
// drive-out pivots, the phase-2 objective and the phase-2 pivots touch
// only the n structural columns and the rhs. Both shortcuts leave every
// nonzero value and every branch exactly as a dense pivot over the whole
// tableau would.
func Solve(p Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := len(p.B)
	n := len(p.C)

	// Phase 1: add artificial variables, minimize their sum.
	// Tableau columns: n structural + m artificial + 1 rhs; rows: m
	// constraints + 1 objective, flattened row-major into one slice.
	// Constraint rows are filled straight from the problem data with b
	// normalized to >= 0 (sign-flipping the row inline), so no
	// intermediate copy of A is made.
	width := n + m + 1
	rhs := width - 1
	t := make([]float64, (m+1)*width)
	for i := 0; i < m; i++ {
		row := t[i*width : (i+1)*width]
		copy(row, p.A[i])
		bi := p.B[i]
		if bi < 0 {
			for j := 0; j < n; j++ {
				row[j] = -row[j]
			}
			bi = -bi
		}
		row[n+i] = 1
		row[rhs] = bi
	}
	obj := t[m*width : (m+1)*width] // phase-1 objective row
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		basis[i] = n + i
	}
	// Objective row = -(sum of constraint rows) over structural columns
	// and the rhs, expressing artificial cost in terms of nonbasic
	// variables. The sums run row by row, but each column still adds its
	// entries in row order.
	for i := 0; i < m; i++ {
		row := t[i*width : (i+1)*width]
		for j, v := range row[:n] {
			obj[j] += v
		}
		obj[rhs] += row[rhs]
	}
	for j := range obj[:n] {
		obj[j] = -obj[j]
	}
	obj[rhs] = -obj[rhs]

	nz := make([]int, 0, width) // pivot's scratch: nonzero pivot-row columns
	iters, err := simplexLoop(t, width, basis, n+m, nz)
	if err != nil {
		return nil, err
	}
	if obj[rhs] < -1e-7 {
		return nil, ErrInfeasible
	}

	// Drive any artificial variables out of the basis (degenerate rows).
	// From here on only the structural columns and the rhs are live.
	for i := 0; i < m; i++ {
		if basis[i] < n {
			continue
		}
		row := t[i*width : (i+1)*width]
		pivoted := false
		for j := 0; j < n; j++ {
			if math.Abs(row[j]) > driveOutEps {
				pivot(t, width, basis, i, j, n, nz)
				iters++
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Row is (numerically) all zeros over structural columns: a
			// redundant constraint. Zero the row outright so its noise
			// entries can never win a ratio test — pivoting on a ~1e-7
			// residue would destroy the tableau's conditioning.
			clear(row)
		}
	}

	// Phase 2: replace the objective row with the true costs (reduced).
	copy(obj, p.C)
	obj[rhs] = 0
	// Make reduced costs of basic variables zero.
	for i := 0; i < m; i++ {
		if basis[i] >= n {
			continue
		}
		c := obj[basis[i]]
		if c == 0 {
			continue
		}
		row := t[i*width : (i+1)*width]
		for j, v := range row[:n] {
			obj[j] -= c * v
		}
		obj[rhs] -= c * row[rhs]
	}
	it2, err := simplexLoop(t, width, basis, n, nz) // artificial columns excluded
	iters += it2
	if err != nil {
		return nil, err
	}

	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]] = t[i*width+rhs]
		}
	}

	// Final verification against the ORIGINAL problem data: every tableau
	// pivot loses precision, and on heavily degenerate instances the
	// tableau can degrade silently. Returning a wrong "optimum" is worse
	// than returning an error.
	bScale := 1.0
	for _, v := range p.B {
		if math.Abs(v) > bScale {
			bScale = math.Abs(v)
		}
	}
	nz = nz[:0]
	for j := 0; j < n; j++ {
		if x[j] < -1e-6*bScale {
			return nil, fmt.Errorf("%w: negative variable x[%d]=%v", ErrNumerical, j, x[j])
		}
		if x[j] < 0 {
			x[j] = 0
		}
		if x[j] != 0 {
			nz = append(nz, j)
		}
	}
	// A zero x[j] adds a signed zero to a sum that starts at +0, which
	// changes nothing, so the residuals sum over the nonzero x[j] only.
	for i := 0; i < len(p.B); i++ {
		a := p.A[i]
		dot := 0.0
		for _, j := range nz {
			dot += a[j] * x[j]
		}
		if math.Abs(dot-p.B[i]) > 1e-6*bScale {
			return nil, fmt.Errorf("%w: row %d residual %v", ErrNumerical, i, dot-p.B[i])
		}
	}

	val := 0.0
	for j := 0; j < n; j++ {
		val += p.C[j] * x[j]
	}
	return &Solution{X: x, Objective: val, Iterations: iters}, nil
}

// simplexLoop pivots until optimal over the first `cols` columns of the
// flat row-major tableau t (row stride width, len(basis) constraint rows
// followed by the objective row); pivots update those columns and the
// rhs, nz is pivot's scratch. The entering rule is Dantzig's (most
// negative reduced cost), which reaches the optimum of these occupancy
// LPs in a handful of pivots; while the objective stalls on a degenerate
// vertex it falls back to Bland's rule (smallest index), whose
// anti-cycling guarantee breaks the stall. Keeping the pivot count low
// matters beyond speed: every tableau pivot accumulates rounding error,
// and hundreds of degenerate Bland pivots can corrupt the tableau
// outright.
func simplexLoop(t []float64, width int, basis []int, cols int, nz []int) (int, error) {
	m := len(basis)
	obj := t[m*width : (m+1)*width]
	iters := 0
	maxIters := 50000 + 200*(m+cols)
	stall := 0
	lastObj := obj[width-1]
	for {
		// Entering column.
		col := -1
		if stall > 25 {
			// Bland: smallest index with negative reduced cost.
			for j := 0; j < cols; j++ {
				if obj[j] < -optEps {
					col = j
					break
				}
			}
		} else {
			// Dantzig: most negative reduced cost.
			best := -optEps
			for j := 0; j < cols; j++ {
				if obj[j] < best {
					best = obj[j]
					col = j
				}
			}
		}
		if col < 0 {
			return iters, nil // optimal
		}
		// Leaving row: min ratio, Bland tie-break on basis index.
		row := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			if piv := t[i*width+col]; piv > ratioEps {
				ratio := t[i*width+width-1] / piv
				if ratio < bestRatio-1e-12 || (math.Abs(ratio-bestRatio) <= 1e-12 && (row < 0 || basis[i] < basis[row])) {
					bestRatio = ratio
					row = i
				}
			}
		}
		if row < 0 {
			// No leaving row. For a genuinely improving direction this
			// means the LP is unbounded; for a noise-level reduced cost
			// (degenerate vertex, accumulated float error) it only means
			// the column cannot improve — zero it and continue.
			if obj[col] > -1e-5 {
				obj[col] = 0
				continue
			}
			return iters, ErrUnbounded
		}
		pivot(t, width, basis, row, col, cols, nz)
		iters++
		// Track objective progress (the rhs of the objective row carries
		// the negated objective, which rises as we minimize).
		if obj[width-1] > lastObj+1e-12 {
			stall = 0
			lastObj = obj[width-1]
		} else {
			stall++
		}
		if iters > maxIters {
			return iters, fmt.Errorf("lp: simplex exceeded %d iterations", maxIters)
		}
	}
}

// pivot performs a tableau pivot on (row, col) of the flat tableau over
// its live columns: the first cols columns and the rhs (the last column).
// It divides the nonzero entries of the pivot row, records their columns
// in nz (scratch with capacity width), and updates only those columns of
// every other row with a nonzero entry in col.
//
// Skipping the zero entries is exact. Each skipped update has the form
// x − f·(±0), which leaves a nonzero x unchanged, so every nonzero value —
// and with it every branch on the tableau (ratio tests, f == 0, |·|,
// x < 0) — matches a dense pivot bit for bit. Only the sign of a zero
// entry can differ, and no reader sees it: comparisons treat −0 as +0,
// and every sum over tableau values starts at +0, where +0 + −0 = +0.
func pivot(t []float64, width int, basis []int, row, col, cols int, nz []int) {
	rhs := width - 1
	pr := t[row*width : (row+1)*width]
	pv := pr[col]
	nz = nz[:0]
	for j, v := range pr[:cols] {
		if v != 0 {
			pr[j] = v / pv
			nz = append(nz, j)
		}
	}
	if v := pr[rhs]; v != 0 {
		pr[rhs] = v / pv
		nz = append(nz, rhs)
	}
	rows := len(t) / width
	for i := 0; i < rows; i++ {
		if i == row {
			continue
		}
		ri := t[i*width : (i+1)*width]
		f := ri[col]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			ri[j] -= f * pr[j]
		}
	}
	basis[row] = col
}

// ---------------------------------------------------------------------------
// Builder

// Sense is a constraint relation.
type Sense int

// Constraint relations.
const (
	LE Sense = iota // ≤
	GE              // ≥
	EQ              // =
)

// Builder assembles an LP from ≤/≥/= rows and converts to standard form.
type Builder struct {
	nVars  int
	obj    []float64
	rows   [][]float64
	rhs    []float64
	senses []Sense
}

// NewBuilder returns a builder over nVars structural variables (all ≥ 0).
func NewBuilder(nVars int) (*Builder, error) {
	if nVars <= 0 {
		return nil, fmt.Errorf("lp: builder needs at least one variable, got %d", nVars)
	}
	return &Builder{nVars: nVars, obj: make([]float64, nVars)}, nil
}

// SetObjective sets the minimization coefficients.
func (bl *Builder) SetObjective(c []float64) error {
	if len(c) != bl.nVars {
		return fmt.Errorf("lp: objective has %d coefficients, want %d", len(c), bl.nVars)
	}
	copy(bl.obj, c)
	return nil
}

// Add appends a constraint row·x (sense) rhs. The builder keeps row
// itself, not a copy, and problems it builds may share it, so the caller
// must not modify row afterwards.
func (bl *Builder) Add(row []float64, sense Sense, rhs float64) error {
	if len(row) != bl.nVars {
		return fmt.Errorf("lp: constraint has %d coefficients, want %d", len(row), bl.nVars)
	}
	bl.rows = append(bl.rows, row)
	bl.rhs = append(bl.rhs, rhs)
	bl.senses = append(bl.senses, sense)
	return nil
}

// Build converts to standard form (slack for ≤, surplus for ≥). Without
// ≤/≥ rows the problem shares the builder's rows; Solve never modifies
// them.
func (bl *Builder) Build() Problem {
	extra := 0
	for _, s := range bl.senses {
		if s != EQ {
			extra++
		}
	}
	n := bl.nVars + extra
	p := Problem{
		C: make([]float64, n),
		A: make([][]float64, len(bl.rows)),
		B: append([]float64(nil), bl.rhs...),
	}
	copy(p.C, bl.obj)
	if extra == 0 {
		copy(p.A, bl.rows)
		return p
	}
	slack := bl.nVars
	for i, row := range bl.rows {
		r := make([]float64, n)
		copy(r, row)
		switch bl.senses[i] {
		case LE:
			r[slack] = 1
			slack++
		case GE:
			r[slack] = -1
			slack++
		}
		p.A[i] = r
	}
	return p
}

// Solve builds and solves, returning only the structural variables.
func (bl *Builder) Solve() (*Solution, error) {
	sol, err := Solve(bl.Build())
	if err != nil {
		return nil, err
	}
	sol.X = sol.X[:bl.nVars]
	return sol, nil
}
