package experiment

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/estimator"
	"repro/internal/mdp"
	"repro/internal/qlearn"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/stochpm"
	"repro/internal/workload"
)

// Table is renderable table data.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Note    string
}

// ---------------------------------------------------------------------------
// Table R1 — runtime and memory of Q-DPM vs model-based optimization

// R1Row holds one model size's measurements.
type R1Row struct {
	States         int
	QStepNs        float64
	LPSolveMs      float64
	RVISolveMs     float64
	EstimatorNs    float64
	QTableBytes    int
	ModelBytes     int
	LPSpeedupOverQ float64
	// LPPivots counts the simplex pivots of one LP solve: a deterministic
	// measure of solve work that, unlike LPSolveMs, machine load cannot
	// perturb.
	LPPivots int
	// LPTableauReads counts the tableau entries one LP solve reads at the
	// least: LPPivots times what every pivot reads whatever the sparsity,
	// its pivot row over the structural columns and the rhs plus the
	// pivot column's entry in each other row. QStepReads counts the Q
	// table entries one Q step (select + update) reads. Their ratio is
	// the machine-independent counterpart of LPSpeedupOverQ.
	LPTableauReads int
	QStepReads     int
}

// TableR1Ctx measures the paper's §1 efficiency claims on this host: the
// per-decision cost of a Q-DPM step versus re-running LP policy
// optimization or value iteration, and the resident memory of the Q table
// versus the explicit model. Model size scales via the queue capacity.
//
// R1 is a wall-clock microbenchmark, so it deliberately never uses the
// worker pool — concurrent simulation work on the same cores would
// corrupt the timings. The context is checked between model sizes.
func TableR1Ctx(ctx context.Context, queueCaps []int) (*Table, []R1Row, error) {
	dev, err := CanonDevice()
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title: "Table R1 — per-decision runtime and memory (host CPU)",
		Headers: []string{
			"|S|", "Q step (ns)", "LP solve (ms)", "RVI solve (ms)",
			"est+detect (ns)", "Q table (B)", "model (B)", "LP/Q-step ×",
		},
		Note: "Q-DPM per-slot work vs one model-based re-optimization; the paper's Pentium III anecdote corresponds to the LP column",
	}
	var rows []R1Row
	for _, qc := range queueCaps {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		d, err := mdp.BuildDPM(mdp.DPMConfig{
			Device: dev, ArrivalP: 0.15, QueueCap: qc, LatencyWeight: CanonLatencyWeight,
		})
		if err != nil {
			return nil, nil, err
		}

		// Q step: decision + update on a table of matching state count.
		m, err := core.New(core.Config{
			Device: dev, QueueCap: qc, LatencyWeight: CanonLatencyWeight,
			Stream: rng.New(1),
		})
		if err != nil {
			return nil, nil, err
		}
		agent := m.Agent()
		stream := rng.New(2)
		legal := []int{0, 1, 2}
		const qreps = 200000
		start := time.Now()
		for i := 0; i < qreps; i++ {
			s := i % m.NumStates()
			a, _ := agent.SelectAction(s, legal, stream)
			agent.Update(s, a, -0.5, (s+1)%m.NumStates(), legal, 1, stream)
		}
		qStepNs := float64(time.Since(start).Nanoseconds()) / qreps

		// LP solve.
		lpStart := time.Now()
		lpReps := 3
		var lpPivots int
		for i := 0; i < lpReps; i++ {
			sol, err := stochpm.SolveLP(d, nil)
			if err != nil {
				return nil, nil, err
			}
			lpPivots = sol.Pivots
		}
		lpMs := float64(time.Since(lpStart).Microseconds()) / float64(lpReps) / 1000
		occ, err := stochpm.OccupancyLP(d, nil)
		if err != nil {
			return nil, nil, err
		}
		prob := occ.Build()
		pivotReads := len(prob.C) + 1 + len(prob.B)

		// RVI solve.
		rviStart := time.Now()
		if _, err := d.AverageCostRVI(1e-6, 500000); err != nil {
			return nil, nil, err
		}
		rviMs := float64(time.Since(rviStart).Microseconds()) / 1000

		// Estimator + detector per-slot cost.
		wrEst, cuEst, err := buildEstimators()
		if err != nil {
			return nil, nil, err
		}
		estStart := time.Now()
		const ereps = 1000000
		for i := 0; i < ereps; i++ {
			wrEst.Add(i & 1)
			cuEst.Add(i & 1)
		}
		estNs := float64(time.Since(estStart).Nanoseconds()) / ereps

		// Memory: Q table vs explicit model (transitions + costs).
		modelBytes := 0
		for s := 0; s < d.N; s++ {
			for ai := range d.Actions[s] {
				modelBytes += len(d.Trans[s][ai])*16 + 8
			}
		}

		row := R1Row{
			States:      d.N,
			QStepNs:     qStepNs,
			LPSolveMs:   lpMs,
			LPPivots:    lpPivots,
			RVISolveMs:  rviMs,
			EstimatorNs: estNs,
			QTableBytes: m.TableBytes(),
			ModelBytes:  modelBytes,
			// Selection reads every legal Q(s, ·), the update's target
			// every legal Q(s', ·), and the update itself Q(s, a).
			LPTableauReads: lpPivots * pivotReads,
			QStepReads:     2*len(legal) + 1,
		}
		row.LPSpeedupOverQ = row.LPSolveMs * 1e6 / row.QStepNs
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.States),
			fmt.Sprintf("%.0f", row.QStepNs),
			fmt.Sprintf("%.2f", row.LPSolveMs),
			fmt.Sprintf("%.2f", row.RVISolveMs),
			fmt.Sprintf("%.0f", row.EstimatorNs),
			fmt.Sprintf("%d", row.QTableBytes),
			fmt.Sprintf("%d", row.ModelBytes),
			fmt.Sprintf("%.0fx", row.LPSpeedupOverQ),
		})
	}
	return t, rows, nil
}

// buildEstimators returns the estimator + detector pair the model-based
// pipeline pays for on every slot.
func buildEstimators() (*estimator.WindowRate, *estimator.CUSUM, error) {
	w, err := estimator.NewWindowRate(512)
	if err != nil {
		return nil, nil, err
	}
	c, err := estimator.NewCUSUM(0.15, 0.05, 6)
	if err != nil {
		return nil, nil, err
	}
	return w, c, nil
}

// ---------------------------------------------------------------------------
// Table R2 — stationary policy comparison

// r2Cell names one (scenario, policy) table cell.
type r2Cell struct {
	rate float64
	sc   Scenario
	pf   PolicyFactory
}

// TableR2Ctx compares every policy's average power and latency on
// stationary workloads across arrival rates, pooled over seeds. The exact
// model solves (one per rate) and the rate × policy × seed replica grid
// both fan out across the worker pool; rows keep their canonical order.
func TableR2Ctx(ctx context.Context, rates []float64, slots int64, seeds []uint64, par Parallel) (*Table, error) {
	dev, err := CanonDevice()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table R2 — stationary comparison (synthetic3 device)",
		Headers: []string{"λ/slot", "policy", "power (W)", "±95%", "wait (slots)", "energy red."},
		Note:    fmt.Sprintf("%d slots, %d seeds; energy reduction vs always-on", slots, len(seeds)),
	}

	// The per-rate optimal policies each cost an RVI solve; derive them
	// concurrently before fanning out the replica grid. The solves skip
	// the progress callback — they are not replicas, and feeding them to
	// a replica counter would reset it mid-experiment.
	optFactories, err := engine.Map(ctx, &engine.Pool{Workers: par.Workers}, len(rates),
		func(_ context.Context, i int) (PolicyFactory, error) {
			pf, _, err := OptimalFactory(dev, rates[i])
			return pf, err
		})
	if err != nil {
		return nil, err
	}

	var cells []r2Cell
	for ri, rate := range rates {
		rate := rate
		sc := Scenario{
			Name: fmt.Sprintf("r2-%g", rate), Device: dev,
			QueueCap: CanonQueueCap, LatencyWeight: CanonLatencyWeight, Slots: slots,
			Workload: func() workload.Arrivals {
				b, err := workload.NewBernoulli(rate)
				if err != nil {
					panic(err)
				}
				return b
			},
		}
		for _, pf := range []PolicyFactory{
			Factory("always-on", dev, 0),
			Factory("greedy-off", dev, 0),
			Factory("timeout", dev, 8),
			Factory("adaptive-timeout", dev, 8),
			Factory("predictive", dev, 0),
			AdaptiveLPFactory(dev, rate, 0),
			Factory("q-dpm", dev, 0),
			optFactories[ri],
		} {
			cells = append(cells, r2Cell{rate: rate, sc: sc, pf: pf})
		}
	}

	sums, err := replicaGrid(ctx, par, len(cells), seeds,
		func(ctx context.Context, _ *struct{}, ci int, seed uint64) (*Summary, error) {
			return slotReplica(ctx, cells[ci].sc, cells[ci].pf, seed)
		})
	if err != nil {
		return nil, err
	}
	for ci, cell := range cells {
		sum := sums[ci]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", cell.rate),
			cell.pf.Name,
			fmt.Sprintf("%.4f", sum.AvgPowerW.Mean()),
			fmt.Sprintf("%.4f", sum.AvgPowerW.CI95()),
			fmt.Sprintf("%.3f", sum.MeanWaitSlots.Mean()),
			fmt.Sprintf("%.1f%%", 100*sum.EnergyReduction.Mean()),
		})
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Table R3 — nonstationary tracking

// RecoverySlots measures, for each switch point, how many slots the series
// needs after the switch before it stays within tol of the segment's tail
// level (the mean of the segment's last quarter). It returns one value per
// switch, -1 when the series never settles.
func RecoverySlots(s *stats.Series, switches []float64, segmentEnd []float64, tol float64) []int64 {
	out := make([]int64, len(switches))
	for i, sw := range switches {
		end := segmentEnd[i]
		// Tail level: mean of the last quarter of the segment.
		tailStart := sw + 0.75*(end-sw)
		var tail []float64
		for k := 0; k < s.Len(); k++ {
			if s.X[k] >= tailStart && s.X[k] <= end {
				tail = append(tail, s.Y[k])
			}
		}
		level := stats.Mean(tail)
		out[i] = -1
		// First index after the switch from which the series stays within
		// tol of the level until segment end.
		for k := 0; k < s.Len(); k++ {
			if s.X[k] < sw || s.X[k] > end {
				continue
			}
			ok := true
			for j := k; j < s.Len() && s.X[j] <= end; j++ {
				if abs(s.Y[j]-level) > tol {
					ok = false
					break
				}
			}
			if ok {
				out[i] = int64(s.X[k] - sw)
				break
			}
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TableR3Ctx runs the Fig. 2 scenario per policy and reports recovery
// time after each switch plus total energy. The policies run concurrently
// on the worker pool, one simulation each.
func TableR3Ctx(ctx context.Context, cfg Fig2Config, par Parallel) (*Table, error) {
	sc, switches, err := Fig2Scenario(cfg)
	if err != nil {
		return nil, err
	}
	dev := sc.Device
	segEnds := make([]float64, len(switches))
	swF := make([]float64, len(switches))
	for i, sw := range switches {
		segEnds[i] = float64(cfg.SegmentSlots) * float64(i+2)
		swF[i] = float64(sw)
	}

	t := &Table{
		Title:   "Table R3 — nonstationary tracking (Fig. 2 scenario)",
		Headers: []string{"policy", "recovery after switch (slots)", "total energy (J)", "mean wait (slots)"},
		Note:    "recovery = slots until the windowed energy-reduction series stays within 0.05 of the segment's settled level",
	}
	pfs := []PolicyFactory{
		QDPMTrackingFactory(dev),
		AdaptiveLPFactory(dev, cfg.Rates[0], cfg.OptimizeLatencySlots),
		Factory("timeout", dev, 8),
		Factory("greedy-off", dev, 0),
	}
	reduction := reductionVs(dev.MaxPowerEnergy())
	rows, err := engine.Map(ctx, par.pool(), len(pfs),
		func(ctx context.Context, i int) ([]string, error) {
			pf := pfs[i]
			// One simulation yields both the recovery series and the
			// energy/wait metrics.
			series, m, err := windowedSeries(ctx, sc, pf, cfg.Seeds[0], cfg.Window, cfg.Stride, slotEnergy, reduction)
			if err != nil {
				return nil, err
			}
			rec := RecoverySlots(series, swF, segEnds, 0.05)
			recStr := ""
			for i, r := range rec {
				if i > 0 {
					recStr += " / "
				}
				if r < 0 {
					recStr += "never"
				} else {
					recStr += fmt.Sprintf("%d", r)
				}
			}
			return []string{
				pf.Name,
				recStr,
				fmt.Sprintf("%.0f", m.EnergyJ),
				fmt.Sprintf("%.2f", m.MeanWaitSlots()),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// ---------------------------------------------------------------------------
// Table R4 — small-scale variation tolerance

// jitterArrivals perturbs a base Bernoulli rate by ±amp (uniform) every
// period slots — the paper's "small scale variations".
type jitterArrivals struct {
	base, amp float64
	period    int64
	cur       float64
	used      int64
}

func (j *jitterArrivals) Next(s *rng.Stream) int {
	if j.used%j.period == 0 {
		j.cur = j.base * (1 + j.amp*(2*s.Float64()-1))
		if j.cur < 0 {
			j.cur = 0
		}
		if j.cur > 1 {
			j.cur = 1
		}
	}
	j.used++
	if s.Float64() < j.cur {
		return 1
	}
	return 0
}

func (j *jitterArrivals) MeanRate() float64 { return j.base }
func (j *jitterArrivals) Clone() workload.Arrivals {
	return &jitterArrivals{base: j.base, amp: j.amp, period: j.period}
}
func (j *jitterArrivals) String() string {
	return fmt.Sprintf("jitter(λ=%g±%.0f%%/%d)", j.base, 100*j.amp, j.period)
}

// TableR4Ctx compares policies under continuously jittering parameters:
// the regime where the paper claims Q-DPM's tolerance and where the
// mode-switch controller either thrashes or ignores the drift.
func TableR4Ctx(ctx context.Context, base, amp float64, period int64, slots int64, seeds []uint64, par Parallel) (*Table, error) {
	dev, err := CanonDevice()
	if err != nil {
		return nil, err
	}
	sc := Scenario{
		Name: "r4", Device: dev,
		QueueCap: CanonQueueCap, LatencyWeight: CanonLatencyWeight, Slots: slots,
		Workload: func() workload.Arrivals {
			return &jitterArrivals{base: base, amp: amp, period: period}
		},
	}
	// Static optimal at the base rate: the best any non-adaptive model-
	// based policy can do without re-solving.
	optFactory, gain, err := OptimalFactory(dev, base)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table R4 — tolerance to small-scale variation",
		Headers: []string{"policy", "avg cost (J/slot)", "±95%", "vs static-optimal"},
		Note: fmt.Sprintf("λ = %g ± %.0f%% redrawn every %d slots, %d slots, %d seeds; static-optimal gain at base rate = %.4f",
			base, 100*amp, period, slots, len(seeds), gain),
	}
	pfs := []PolicyFactory{
		QDPMTrackingFactory(dev),
		AdaptiveLPFactory(dev, base, 2000),
		optFactory,
		Factory("timeout", dev, 8),
	}
	sums, err := replicaGrid(ctx, par, len(pfs), seeds,
		func(ctx context.Context, _ *struct{}, pi int, seed uint64) (*Summary, error) {
			return slotReplica(ctx, sc, pfs[pi], seed)
		})
	if err != nil {
		return nil, err
	}
	for pi, pf := range pfs {
		sum := sums[pi]
		t.Rows = append(t.Rows, []string{
			pf.Name,
			fmt.Sprintf("%.4f", sum.AvgCost.Mean()),
			fmt.Sprintf("%.4f", sum.AvgCost.CI95()),
			fmt.Sprintf("%+.1f%%", 100*(sum.AvgCost.Mean()-gain)/gain),
		})
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Ablations

// AblationSpec names a Q-DPM variant.
type AblationSpec struct {
	Name string
	Mut  func(*core.Config)
}

// DefaultAblations returns the design-choice grid from DESIGN.md §5.
func DefaultAblations() []AblationSpec {
	return []AblationSpec{
		{Name: "baseline", Mut: nil},
		{Name: "eps=0.01-const", Mut: func(c *core.Config) { c.Explore = qlearn.EpsGreedy{Eps: 0.01} }},
		{Name: "eps=0.3-const", Mut: func(c *core.Config) { c.Explore = qlearn.EpsGreedy{Eps: 0.3} }},
		{Name: "boltzmann", Mut: func(c *core.Config) {
			c.Explore = qlearn.Boltzmann{Temp: 0.2, MinTemp: 0.005, DecayTau: 30000}
		}},
		{Name: "alpha=const-0.1", Mut: func(c *core.Config) { c.Alpha = qlearn.Polynomial{Scale: 0.1} }},
		{Name: "alpha=harmonic", Mut: func(c *core.Config) { c.Alpha = qlearn.Polynomial{Scale: 1, Omega: 1} }},
		{Name: "gamma=0.9", Mut: func(c *core.Config) { c.Gamma = 0.9 }},
		{Name: "gamma=0.995", Mut: func(c *core.Config) { c.Gamma = 0.995 }},
		{Name: "qbuckets=4", Mut: func(c *core.Config) { c.QueueBuckets = 4 }},
		{Name: "qbuckets=2", Mut: func(c *core.Config) { c.QueueBuckets = 2 }},
		{Name: "idle-feature", Mut: func(c *core.Config) { c.IdleBuckets = []int64{4, 16, 64} }},
		{Name: "sarsa", Mut: func(c *core.Config) { c.Rule = qlearn.SARSA }},
		{Name: "double-q", Mut: func(c *core.Config) { c.Rule = qlearn.DoubleQ }},
		{Name: "traces λ=0.5", Mut: func(c *core.Config) { c.TraceLambda = 0.5 }},
		{Name: "fuzzy", Mut: func(c *core.Config) { c.Fuzzy = true }},
	}
}

// TableAblationsCtx runs each variant on the Fig. 1 scenario and reports
// the tail (post-convergence) average cost against the optimal gain. The
// variant × seed grid is a replicaGrid whose jobs each return their tail
// as a one-sample Running; merging singletons in seed order equals the
// serial Add loop bit for bit.
func TableAblationsCtx(ctx context.Context, specs []AblationSpec, arrivalP float64, slots int64, seeds []uint64, par Parallel) (*Table, error) {
	dev, err := CanonDevice()
	if err != nil {
		return nil, err
	}
	_, gain, err := OptimalFactory(dev, arrivalP)
	if err != nil {
		return nil, err
	}
	sc := Scenario{
		Name: "ablate", Device: dev,
		QueueCap: CanonQueueCap, LatencyWeight: CanonLatencyWeight, Slots: slots,
		Workload: func() workload.Arrivals {
			b, err := workload.NewBernoulli(arrivalP)
			if err != nil {
				panic(err)
			}
			return b
		},
	}
	t := &Table{
		Title:   "Ablations — Q-DPM design choices (Fig. 1 scenario)",
		Headers: []string{"variant", "tail avg cost", "±95%", "gap to optimal"},
		Note: fmt.Sprintf("λ=%g, %d slots, tail = last 25%% of the windowed series, optimal gain %.4f",
			arrivalP, slots, gain),
	}
	tailGrid, err := replicaGrid(ctx, par, len(specs), seeds,
		func(ctx context.Context, _ *struct{}, si int, seed uint64) (*stats.Running, error) {
			pf := QDPMVariantFactory(specs[si].Name, dev, specs[si].Mut)
			s, _, err := windowedSeries(ctx, sc, pf, seed, 4000, 2000, slotCost, meanAsIs)
			if err != nil {
				return nil, err
			}
			var tail stats.Running
			tail.Add(s.TailMean(0.25))
			return &tail, nil
		})
	if err != nil {
		return nil, err
	}
	for si, spec := range specs {
		tails := tailGrid[si]
		t.Rows = append(t.Rows, []string{
			spec.Name,
			fmt.Sprintf("%.4f", tails.Mean()),
			fmt.Sprintf("%.4f", tails.CI95()),
			fmt.Sprintf("%+.1f%%", 100*(tails.Mean()-gain)/gain),
		})
	}
	return t, nil
}
