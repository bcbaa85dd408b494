package lp

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSimpleEqualityLP(t *testing.T) {
	// min x1 + 2x2  s.t.  x1 + x2 = 4, x1 - x2 = 0  =>  x = (2,2), obj 6.
	sol, err := Solve(Problem{
		C: []float64{1, 2},
		A: [][]float64{{1, 1}, {1, -1}},
		B: []float64{4, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 6, 1e-9) {
		t.Errorf("objective %v, want 6", sol.Objective)
	}
	if !approx(sol.X[0], 2, 1e-9) || !approx(sol.X[1], 2, 1e-9) {
		t.Errorf("x = %v, want (2,2)", sol.X)
	}
}

func TestClassicTextbookLP(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (Dantzig's example).
	// Optimum: x=2, y=6, obj=36. We minimize the negation.
	b, err := NewBuilder(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetObjective([]float64{-3, -5}); err != nil {
		t.Fatal(err)
	}
	b.Add([]float64{1, 0}, LE, 4)
	b.Add([]float64{0, 2}, LE, 12)
	b.Add([]float64{3, 2}, LE, 18)
	sol, err := b.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, -36, 1e-9) {
		t.Errorf("objective %v, want -36", sol.Objective)
	}
	if !approx(sol.X[0], 2, 1e-9) || !approx(sol.X[1], 6, 1e-9) {
		t.Errorf("x = %v, want (2,6)", sol.X)
	}
}

func TestInfeasibleDetected(t *testing.T) {
	// x1 = 1 and x1 = 2 simultaneously.
	_, err := Solve(Problem{
		C: []float64{1},
		A: [][]float64{{1}, {1}},
		B: []float64{1, 2},
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestInfeasibleViaBuilder(t *testing.T) {
	b, _ := NewBuilder(1)
	b.SetObjective([]float64{1})
	b.Add([]float64{1}, LE, 1)
	b.Add([]float64{1}, GE, 2)
	if _, err := b.Solve(); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestInfeasibleOccupancyShape pins ErrInfeasible for the exact problem
// shape stochpm.SolveLP builds — a probability-mass equality row over
// occupancy variables plus a LE side constraint — when the side bound
// contradicts the mass: Σx = 1 but Σx ≤ 0.5. The analytic bound pipeline
// depends on this surfacing as ErrInfeasible (wrapped, matchable with
// errors.Is) rather than as a numeric failure or a bogus solution.
func TestInfeasibleOccupancyShape(t *testing.T) {
	b, err := NewBuilder(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetObjective([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	b.Add([]float64{1, 1, 1}, EQ, 1)   // occupancy mass
	b.Add([]float64{1, 1, 1}, LE, 0.5) // unattainable side bound
	if _, err := b.Solve(); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnboundedDetected(t *testing.T) {
	// min -x s.t. x - y = 0: x can grow without bound.
	_, err := Solve(Problem{
		C: []float64{-1, 0},
		A: [][]float64{{1, -1}},
		B: []float64{0},
	})
	if !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

func TestNegativeRHSNormalized(t *testing.T) {
	// -x1 - x2 = -4 is the same as x1 + x2 = 4.
	sol, err := Solve(Problem{
		C: []float64{1, 2},
		A: [][]float64{{-1, -1}},
		B: []float64{-4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 4, 1e-9) { // all weight on x1
		t.Errorf("objective %v, want 4", sol.Objective)
	}
}

func TestRedundantConstraints(t *testing.T) {
	// Duplicate rows: still solvable.
	sol, err := Solve(Problem{
		C: []float64{1, 1},
		A: [][]float64{{1, 1}, {1, 1}, {2, 2}},
		B: []float64{3, 3, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 3, 1e-9) {
		t.Errorf("objective %v, want 3", sol.Objective)
	}
}

func TestDegenerateLPTerminates(t *testing.T) {
	// Klee–Minty-flavoured degenerate system; Bland's rule must not cycle.
	b, _ := NewBuilder(3)
	b.SetObjective([]float64{-100, -10, -1})
	b.Add([]float64{1, 0, 0}, LE, 1)
	b.Add([]float64{20, 1, 0}, LE, 100)
	b.Add([]float64{200, 20, 1}, LE, 10000)
	sol, err := b.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, -10000, 1e-6) {
		t.Errorf("objective %v, want -10000", sol.Objective)
	}
}

func TestValidationErrors(t *testing.T) {
	bad := []Problem{
		{C: nil, A: nil, B: nil},
		{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}},
		{C: []float64{1}, A: [][]float64{{1}}, B: []float64{1, 2}},
		{C: []float64{math.NaN()}, A: [][]float64{{1}}, B: []float64{1}},
		{C: []float64{1}, A: [][]float64{{math.Inf(1)}}, B: []float64{1}},
		{C: []float64{1}, A: [][]float64{{1}}, B: []float64{math.NaN()}},
	}
	for i, p := range bad {
		if _, err := Solve(p); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder(0); err == nil {
		t.Error("zero variables accepted")
	}
	b, _ := NewBuilder(2)
	if err := b.SetObjective([]float64{1}); err == nil {
		t.Error("short objective accepted")
	}
	if err := b.Add([]float64{1}, LE, 0); err == nil {
		t.Error("short row accepted")
	}
}

func TestGESurplusVariables(t *testing.T) {
	// min x s.t. x >= 5  =>  x = 5.
	b, _ := NewBuilder(1)
	b.SetObjective([]float64{1})
	b.Add([]float64{1}, GE, 5)
	sol, err := b.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.X[0], 5, 1e-9) {
		t.Errorf("x = %v, want 5", sol.X[0])
	}
}

func TestMixedSenses(t *testing.T) {
	// min 2x + 3y s.t. x + y = 10, x >= 2, y <= 7  =>  x=3,y=7? Check:
	// cost 2x+3y with x+y=10 → minimize means maximize x: x ≤ 10, y ≥ 0,
	// y ≤ 7 → x ≥ 3. Max x = 10 − y, y min = 0? y ≥ 10 − x... constraints:
	// x≥2, y≤7, x+y=10 → x = 10−y ≥ 3. Best: y as small as allowed → y=0
	// violates x+y=10? No: y=0 → x=10, satisfies x≥2, y≤7. Obj = 20.
	b, _ := NewBuilder(2)
	b.SetObjective([]float64{2, 3})
	b.Add([]float64{1, 1}, EQ, 10)
	b.Add([]float64{1, 0}, GE, 2)
	b.Add([]float64{0, 1}, LE, 7)
	sol, err := b.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 20, 1e-9) {
		t.Errorf("objective %v, want 20", sol.Objective)
	}
}

// bruteForceLP solves min c·x over {x >= 0 : Ax <= b} for 2-variable
// problems by dense grid + vertex enumeration, as an oracle.
func bruteForceLP2(c []float64, rows [][]float64, rhs []float64) (float64, bool) {
	best := math.Inf(1)
	feasible := func(x, y float64) bool {
		if x < -1e-9 || y < -1e-9 {
			return false
		}
		for i, r := range rows {
			if r[0]*x+r[1]*y > rhs[i]+1e-9 {
				return false
			}
		}
		return true
	}
	// Candidate vertices: intersections of all constraint pairs (incl.
	// axes).
	all := append([][]float64{{1, 0}, {0, 1}}, rows...)
	allRhs := append([]float64{0, 0}, rhs...)
	found := false
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			a1, b1, c1 := all[i][0], all[i][1], allRhs[i]
			a2, b2, c2 := all[j][0], all[j][1], allRhs[j]
			det := a1*b2 - a2*b1
			if math.Abs(det) < 1e-12 {
				continue
			}
			x := (c1*b2 - c2*b1) / det
			y := (a1*c2 - a2*c1) / det
			if feasible(x, y) {
				found = true
				if v := c[0]*x + c[1]*y; v < best {
					best = v
				}
			}
		}
	}
	if feasible(0, 0) {
		found = true
		if v := 0.0; v < best {
			best = v
		}
	}
	return best, found
}

// Property: on random 2-variable ≤-form LPs with bounded feasible region,
// simplex matches brute-force vertex enumeration.
func TestSimplexMatchesBruteForceProperty(t *testing.T) {
	s := rng.New(42)
	f := func() bool {
		c := []float64{s.Float64()*4 - 2, s.Float64()*4 - 2}
		nRows := 2 + s.Intn(3)
		rows := make([][]float64, nRows)
		rhs := make([]float64, nRows)
		for i := range rows {
			rows[i] = []float64{s.Float64() * 2, s.Float64() * 2}
			rhs[i] = 1 + s.Float64()*5
		}
		// Bound the region so minimizing negative costs stays bounded.
		rows = append(rows, []float64{1, 0}, []float64{0, 1})
		rhs = append(rhs, 10, 10)

		want, ok := bruteForceLP2(c, rows, rhs)
		if !ok {
			return true // skip degenerate instance
		}
		b, err := NewBuilder(2)
		if err != nil {
			return false
		}
		b.SetObjective(c)
		for i := range rows {
			b.Add(rows[i], LE, rhs[i])
		}
		sol, err := b.Solve()
		if err != nil {
			return false
		}
		return approx(sol.Objective, want, 1e-6)
	}
	for i := 0; i < 200; i++ {
		if !f() {
			t.Fatalf("simplex disagreed with brute force on random instance %d", i)
		}
	}
}

// Property: solution of a feasible standard-form problem satisfies its own
// constraints.
func TestSolutionFeasibilityProperty(t *testing.T) {
	s := rng.New(7)
	check := func() bool {
		n := 3 + s.Intn(4)
		m := 1 + s.Intn(3)
		p := Problem{C: make([]float64, n), A: make([][]float64, m), B: make([]float64, m)}
		for j := range p.C {
			p.C[j] = s.Float64()
		}
		// Construct b from a known feasible point to guarantee feasibility.
		x0 := make([]float64, n)
		for j := range x0 {
			x0[j] = s.Float64() * 3
		}
		for i := 0; i < m; i++ {
			p.A[i] = make([]float64, n)
			dot := 0.0
			for j := 0; j < n; j++ {
				p.A[i][j] = s.Float64()*2 - 0.5
				dot += p.A[i][j] * x0[j]
			}
			p.B[i] = dot
		}
		sol, err := Solve(p)
		if err != nil {
			return errors.Is(err, ErrUnbounded) // possible with random c... no, c >= 0; treat as failure
		}
		for i := 0; i < m; i++ {
			dot := 0.0
			for j := 0; j < n; j++ {
				dot += p.A[i][j] * sol.X[j]
			}
			if !approx(dot, p.B[i], 1e-6) {
				return false
			}
		}
		for _, v := range sol.X {
			if v < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return check() }, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The flat-tableau solver fills its tableau straight from the problem
// data (no defensive copy of A), including an inline sign flip for
// negative rhs rows — the caller's Problem must come back untouched.
func TestSolveDoesNotMutateProblem(t *testing.T) {
	p := Problem{
		C: []float64{1, 2, 3},
		A: [][]float64{{1, 1, 1}, {-1, 1, 0}},
		B: []float64{6, -1}, // negative rhs forces the sign-flip path
	}
	wantA := [][]float64{{1, 1, 1}, {-1, 1, 0}}
	wantB := []float64{6, -1}
	if _, err := Solve(p); err != nil {
		t.Fatal(err)
	}
	for i := range wantA {
		if p.B[i] != wantB[i] {
			t.Fatalf("Solve mutated B[%d]: %v", i, p.B[i])
		}
		for j := range wantA[i] {
			if p.A[i][j] != wantA[i][j] {
				t.Fatalf("Solve mutated A[%d][%d]: %v", i, j, p.A[i][j])
			}
		}
	}
}

func BenchmarkSolveSmall(b *testing.B) {
	p := Problem{
		C: []float64{1, 2, 3},
		A: [][]float64{{1, 1, 1}, {1, -1, 0}},
		B: []float64{6, 1},
	}
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// diffReference solves p with Solve and with refSolve and describes the
// first difference between the two results — error, Iterations,
// Objective bits, or an X entry compared with == — or returns "". sol is
// Solve's solution, nil when it failed.
func diffReference(p Problem) (diff string, sol *Solution) {
	sol, err := Solve(p)
	ref, refErr := refSolve(p)
	switch {
	case (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()):
		return fmt.Sprintf("error %v, reference %v", err, refErr), sol
	case err != nil:
		return "", nil
	case sol.Iterations != ref.Iterations:
		return fmt.Sprintf("%d iterations, reference %d", sol.Iterations, ref.Iterations), sol
	case math.Float64bits(sol.Objective) != math.Float64bits(ref.Objective):
		return fmt.Sprintf("objective %v, reference %v", sol.Objective, ref.Objective), sol
	}
	for j := range sol.X {
		if sol.X[j] != ref.X[j] {
			return fmt.Sprintf("x[%d] = %v, reference %v", j, sol.X[j], ref.X[j]), sol
		}
	}
	return "", sol
}

// DiffReference exports diffReference to the package's external tests.
var DiffReference = diffReference

// fuzzGrid holds the coefficients a fuzz byte can select. Zeros and
// repeated magnitudes are common, so the decoded LPs are often
// degenerate, with redundant rows and ratio-test ties.
var fuzzGrid = [16]float64{0, 0, 0, 0, 1, 1, -1, -1, 2, -2, 0.5, -0.5, 3, 0.25, -3, 4}

// decodeLP reads a standard-form LP from data: m = 1 + data[0]%6 rows,
// n = 1 + data[1]%8 columns, then C, then each row of A followed by its
// B entry, one fuzzGrid index (byte % 16) per coefficient. Missing bytes
// read as 0.
func decodeLP(data []byte) Problem {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	m := 1 + int(next())%6
	n := 1 + int(next())%8
	coef := func() float64 { return fuzzGrid[next()%16] }
	p := Problem{C: make([]float64, n), A: make([][]float64, m), B: make([]float64, m)}
	for j := range p.C {
		p.C[j] = coef()
	}
	for i := range p.A {
		p.A[i] = make([]float64, n)
		for j := range p.A[i] {
			p.A[i][j] = coef()
		}
		p.B[i] = coef()
	}
	return p
}

// FuzzSolve checks Solve against the dense reference on small, often
// degenerate LPs, and checks that an accepted solution is feasible within
// the solver's own verification tolerance.
func FuzzSolve(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeLP(data)
		diff, sol := diffReference(p)
		if diff != "" {
			t.Fatalf("Solve differs from the dense reference on %+v: %s", p, diff)
		}
		if sol == nil {
			return
		}
		bScale := 1.0
		for _, v := range p.B {
			bScale = math.Max(bScale, math.Abs(v))
		}
		for j, v := range sol.X {
			if !(v >= 0) {
				t.Fatalf("x[%d] = %v < 0 on %+v", j, v, p)
			}
		}
		for i, row := range p.A {
			dot := 0.0
			for j, a := range row {
				dot += a * sol.X[j]
			}
			if math.Abs(dot-p.B[i]) > 1e-6*bScale {
				t.Fatalf("row %d residual %v on %+v", i, dot-p.B[i], p)
			}
		}
	})
}

// refSolve is the dense two-phase simplex: every pivot updates every
// column of every row with a nonzero pivot-column entry, artificial
// columns included, through both phases. Solve must match it bit for bit
// (TestSolveMatchesDenseReference, FuzzSolve).
func refSolve(p Problem) (*Solution, error) {
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
		row[width-1] = bi
	}
	obj := t[m*width : (m+1)*width] // phase-1 objective row
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		basis[i] = n + i
	}
	// Objective row = -(sum of constraint rows) over structural columns,
	// expressing artificial cost in terms of nonbasic variables.
	for j := 0; j < width; j++ {
		s := 0.0
		for i := 0; i < m; i++ {
			s += t[i*width+j]
		}
		if j < n || j == width-1 {
			obj[j] = -s
		}
	}

	iters, err := refSimplexLoop(t, width, basis, n+m)
	if err != nil {
		return nil, err
	}
	if obj[width-1] < -1e-7 {
		return nil, ErrInfeasible
	}

	// Drive any artificial variables out of the basis (degenerate rows).
	for i := 0; i < m; i++ {
		if basis[i] < n {
			continue
		}
		row := t[i*width : (i+1)*width]
		pivoted := false
		for j := 0; j < n; j++ {
			if math.Abs(row[j]) > driveOutEps {
				refPivot(t, width, basis, i, j)
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
			for j := range row {
				row[j] = 0
			}
		}
	}

	// Phase 2: replace the objective row with the true costs (reduced).
	for j := 0; j < width; j++ {
		obj[j] = 0
	}
	copy(obj, p.C)
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
		for j := 0; j < width; j++ {
			obj[j] -= c * row[j]
		}
	}
	it2, err := refSimplexLoop(t, width, basis, n) // artificial columns excluded
	iters += it2
	if err != nil {
		return nil, err
	}

	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]] = t[i*width+width-1]
		}
	}

	// Final verification against the ORIGINAL problem data: every dense
	// pivot loses precision, and on heavily degenerate instances the
	// tableau can degrade silently. Returning a wrong "optimum" is worse
	// than returning an error.
	bScale := 1.0
	for _, v := range p.B {
		if math.Abs(v) > bScale {
			bScale = math.Abs(v)
		}
	}
	for j := 0; j < n; j++ {
		if x[j] < -1e-6*bScale {
			return nil, fmt.Errorf("%w: negative variable x[%d]=%v", ErrNumerical, j, x[j])
		}
		if x[j] < 0 {
			x[j] = 0
		}
	}
	for i := 0; i < len(p.B); i++ {
		dot := 0.0
		for j := 0; j < n; j++ {
			dot += p.A[i][j] * x[j]
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

// refSimplexLoop is simplexLoop with dense pivots.
func refSimplexLoop(t []float64, width int, basis []int, cols int) (int, error) {
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
		refPivot(t, width, basis, row, col)
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

// refPivot performs a dense tableau pivot on (row, col).
func refPivot(t []float64, width int, basis []int, row, col int) {
	pr := t[row*width : (row+1)*width]
	pv := pr[col]
	for j := range pr {
		pr[j] /= pv
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
		for j, v := range pr {
			ri[j] -= f * v
		}
	}
	basis[row] = col
}
