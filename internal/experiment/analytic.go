package experiment

import (
	"context"
	"fmt"
	"math"

	"repro/internal/analytic"
	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/workload"
)

// The analytic conformance harness pins each simulator to a regime one of
// the internal/analytic oracles covers exactly, runs enough replicas for
// a tight confidence interval, and asserts sim-within-CI-of-theory. The
// rung list, formulas, and CI methodology are documented in
// docs/ANALYTIC.md; DESIGN.md §10 is the contract. The harness surfaces
// as `qdpm-bench -exp analytic`, as TestAnalyticConformance, and as the
// CI analytic-gate job.

// AnalyticCheck is one sim-vs-theory comparison.
type AnalyticCheck struct {
	// Rung names the oracle rung; Sim the simulator exercised; Metric
	// the quantity compared.
	Rung, Sim, Metric string
	// Theory is the oracle's prediction; Observed the pooled simulated
	// value.
	Theory, Observed float64
	// CI is the 95% confidence half-width of Observed across replicas
	// (0 for exact checks).
	CI float64
	// Slack is the documented extra tolerance: float roundoff on exact
	// checks, finite-horizon/truncation bias on stochastic ones.
	Slack float64
	// Bound marks a one-sided check: Observed must not fall below
	// Theory (the LP/MDP optimal-cost bound). Two-sided otherwise.
	Bound bool
	// Pass is the verdict.
	Pass bool
}

// evaluate applies the acceptance rule: |obs − theory| ≤ CI + slack for
// two-sided checks, obs ≥ theory − CI − slack for bounds.
func (c *AnalyticCheck) evaluate() {
	margin := c.CI + c.Slack
	if c.Bound {
		c.Pass = c.Observed >= c.Theory-margin
		return
	}
	c.Pass = math.Abs(c.Observed-c.Theory) <= margin
}

// AnalyticReport collects every rung's checks.
type AnalyticReport struct {
	Checks []AnalyticCheck
}

// add evaluates and appends one check.
func (r *AnalyticReport) add(c AnalyticCheck) {
	c.evaluate()
	r.Checks = append(r.Checks, c)
}

// Failures returns the checks that did not pass.
func (r *AnalyticReport) Failures() []AnalyticCheck {
	var out []AnalyticCheck
	for _, c := range r.Checks {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

// Harness constants. Horizons are sized so every stochastic rung's CI95
// lands well under its slack at the canonical seed count (see
// docs/ANALYTIC.md "CI methodology"); exact rungs use exactTol.
const (
	// exactTol absorbs float accumulation on checks that hold exactly.
	exactTol = 1e-9
	// relSlack is the two-sided slack on stochastic rungs, relative to
	// the prediction: finite-horizon bias (cycles truncated at the
	// horizon, served-only wait accounting) plus, on the fleet wait
	// rung, the K=8 truncation of the unbounded M/D/1 queue.
	relSlack = 0.02
	// ctHorizon is the continuous-time rung horizon in seconds.
	ctHorizon = 20000
	// slotHorizon is the slotted rung length in slots.
	slotHorizon = 40000
	// fleetHorizon is the fleet rung horizon in seconds.
	fleetHorizon = 2000
	// fleetDevices is the fleet rung instance count per replica.
	fleetDevices = 64
)

// RunAnalyticCtx runs every rung of the analytic ladder against its
// pinned simulator configuration and returns the checks. Each rung's
// oracle first vets the regime through its AppliesTo predicate, so a
// drifted harness configuration fails loudly rather than comparing a
// formula against a system it does not model.
func RunAnalyticCtx(ctx context.Context, seeds []uint64, par Parallel) (*AnalyticReport, error) {
	if len(seeds) == 0 {
		return nil, errNoSeeds
	}
	r := &AnalyticReport{}
	if err := analyticCTChecks(ctx, r, seeds, par); err != nil {
		return nil, err
	}
	if err := analyticSlotChecks(ctx, r, seeds, par); err != nil {
		return nil, err
	}
	if err := analyticFleetChecks(ctx, r, seeds, par); err != nil {
		return nil, err
	}
	return r, nil
}

// ---------------------------------------------------------------------------
// Continuous-time rungs

// analyticCTChecks runs the M/D/1, M/M/1, M/M/1/K, sleep-cycle, and
// availability rungs on the event-driven kernel, every rung a cell of one
// replica grid.
func analyticCTChecks(ctx context.Context, r *AnalyticReport, seeds []uint64, par Parallel) error {
	psm := device.Synthetic3()
	roles, err := policy.DeriveRoles(psm)
	if err != nil {
		return err
	}
	active, deep := int(roles.Wake), int(roles.Deep)
	s := psm.ServiceTime

	// cell pins one continuous-time system to an oracle regime: the
	// device under Poisson(rate) arrivals with a native event-driven
	// policy over ctHorizon seconds; the caller adds a service law, a
	// queue bound, or faults. Native policies draw nothing from the
	// policy stream, but its split still comes first, so seeds match the
	// adapted-policy runners.
	cell := func(name string, rate float64, pol func(*rng.Stream) (ctsim.Policy, error)) ctCell {
		return ctCell{name: name, policy: pol, sc: CTScenario{
			Name:    name,
			Device:  psm,
			Horizon: ctHorizon,
			Source:  renewalSource(dist.Exponential{Rate: rate}),
		}}
	}
	alwaysOn := func(*rng.Stream) (ctsim.Policy, error) { return ctsim.NewAlwaysOn(psm) }
	exp2, err := dist.NewExponential(2)
	if err != nil {
		return err
	}

	// Rung 1 — M/D/1: always-on, unbounded queue, deterministic service.
	md1, err := analytic.NewMD1(0.8, s)
	if err != nil {
		return err
	}
	if err := md1.AppliesTo(analytic.Regime{
		Arrivals: analytic.ArrivalPoisson,
		Service:  analytic.ServiceDeterministic,
		Policy:   analytic.PolicyAlwaysOn,
	}); err != nil {
		return err
	}
	md1Cell := cell("md1", 0.8, alwaysOn)

	// Rung 2 — M/M/1: the same system with exponential service drawn
	// from the dedicated service stream.
	mm1, err := analytic.NewMM1(0.8, exp2.Rate)
	if err != nil {
		return err
	}
	if err := mm1.AppliesTo(analytic.Regime{
		Arrivals: analytic.ArrivalPoisson,
		Service:  analytic.ServiceExponential,
		Policy:   analytic.PolicyAlwaysOn,
	}); err != nil {
		return err
	}
	mm1Cell := cell("mm1", 0.8, alwaysOn)
	mm1Cell.sc.ServiceDist = exp2

	// Rung 3 — M/M/1/K: bounded queue at ρ = 0.8 (ctsim's QueueCap
	// counts the request in service, so QueueCap == K).
	const sysCap = 8
	mm1k := analytic.MM1K{Lambda: 1.6, Mu: exp2.Rate, K: sysCap}
	if err := mm1k.Validate(); err != nil {
		return err
	}
	if err := mm1k.AppliesTo(analytic.Regime{
		Arrivals:  analytic.ArrivalPoisson,
		Service:   analytic.ServiceExponential,
		Policy:    analytic.PolicyAlwaysOn,
		SystemCap: sysCap,
	}); err != nil {
		return err
	}
	mm1kCell := cell("mm1k", 1.6, alwaysOn)
	mm1kCell.sc.QueueCap = sysCap
	mm1kCell.sc.ServiceDist = exp2

	// Rung 4 — sleep-cycle power: greedy-off and the continuous-time
	// timeout with threshold ≤ service time, which behave identically in
	// steady state (the idle clock always exceeds the threshold at a
	// queue-emptying completion).
	cycle := analytic.SleepCycle{
		Lambda:      0.4,
		ServiceTime: s,
		DownLatency: psm.Trans[active][deep].Latency,
		DownEnergy:  psm.Trans[active][deep].Energy,
		UpLatency:   psm.Trans[deep][active].Latency,
		UpEnergy:    psm.Trans[deep][active].Energy,
		SleepPower:  psm.States[deep].Power,
		ActivePower: psm.States[active].Power,
	}
	if err := cycle.Validate(); err != nil {
		return err
	}
	if err := cycle.AppliesTo(analytic.Regime{
		Arrivals: analytic.ArrivalPoisson,
		Service:  analytic.ServiceDeterministic,
		Policy:   analytic.PolicySleepCycle,
	}); err != nil {
		return err
	}
	tmo := cycle
	tmo.Timeout = 0.8 * s
	if err := tmo.Validate(); err != nil {
		return err
	}

	// Rung 5 — availability: Exp(MTBF) operating-time failures against
	// Exp(repair) wall-time repairs alternate, so uptime converges to
	// MTBF/(MTBF+repair) regardless of workload or policy.
	av := analytic.Availability{MTBF: 100, MeanRepair: 10}
	if err := av.Validate(); err != nil {
		return err
	}
	if err := av.AppliesTo(analytic.Regime{Faults: true}); err != nil {
		return err
	}
	avCell := cell("availability", 0.4, alwaysOn)
	avCell.sc.Faults = &ctsim.Faults{CrashMTBF: av.MTBF, RepairMean: av.MeanRepair}

	sums, err := ctGrid(ctx, par, []ctCell{
		md1Cell,
		mm1Cell,
		mm1kCell,
		cell("greedy-off", 0.4, func(*rng.Stream) (ctsim.Policy, error) { return ctsim.NewGreedyOff(psm) }),
		cell("ct-timeout", 0.4, func(*rng.Stream) (ctsim.Policy, error) { return ctsim.NewTimeout(psm, tmo.Timeout) }),
		avCell,
	}, seeds)
	if err != nil {
		return err
	}

	p := sums[0]
	r.add(AnalyticCheck{Rung: "M/D/1", Sim: "ctsim", Metric: "sojourn (s)",
		Theory: md1.MeanSojourn(), Observed: p.MeanWaitSec.Mean(), CI: p.MeanWaitSec.CI95(), Slack: relSlack * md1.MeanSojourn()})
	r.add(AnalyticCheck{Rung: "M/D/1", Sim: "ctsim", Metric: "number in system",
		Theory: md1.MeanNumber(), Observed: p.MeanBacklog.Mean(), CI: p.MeanBacklog.CI95(), Slack: relSlack * md1.MeanNumber()})
	r.add(AnalyticCheck{Rung: "M/D/1", Sim: "ctsim", Metric: "power (W)",
		Theory: psm.States[active].Power, Observed: p.AvgPowerW.Mean(), Slack: exactTol})
	r.add(AnalyticCheck{Rung: "M/D/1", Sim: "ctsim", Metric: "loss rate",
		Theory: 0, Observed: p.LossRate.Mean(), Slack: exactTol})

	p = sums[1]
	r.add(AnalyticCheck{Rung: "M/M/1", Sim: "ctsim", Metric: "sojourn (s)",
		Theory: mm1.MeanSojourn(), Observed: p.MeanWaitSec.Mean(), CI: p.MeanWaitSec.CI95(), Slack: relSlack * mm1.MeanSojourn()})
	r.add(AnalyticCheck{Rung: "M/M/1", Sim: "ctsim", Metric: "number in system",
		Theory: mm1.MeanNumber(), Observed: p.MeanBacklog.Mean(), CI: p.MeanBacklog.CI95(), Slack: relSlack * mm1.MeanNumber()})

	p = sums[2]
	r.add(AnalyticCheck{Rung: "M/M/1/K", Sim: "ctsim", Metric: "loss rate",
		Theory: mm1k.BlockingProb(), Observed: p.LossRate.Mean(), CI: p.LossRate.CI95(), Slack: relSlack * mm1k.BlockingProb()})
	r.add(AnalyticCheck{Rung: "M/M/1/K", Sim: "ctsim", Metric: "number in system",
		Theory: mm1k.MeanNumber(), Observed: p.MeanBacklog.Mean(), CI: p.MeanBacklog.CI95(), Slack: relSlack * mm1k.MeanNumber()})
	r.add(AnalyticCheck{Rung: "M/M/1/K", Sim: "ctsim", Metric: "sojourn (s)",
		Theory: mm1k.MeanSojourn(), Observed: p.MeanWaitSec.Mean(), CI: p.MeanWaitSec.CI95(), Slack: relSlack * mm1k.MeanSojourn()})

	p = sums[3]
	r.add(AnalyticCheck{Rung: "sleep-cycle", Sim: "ctsim", Metric: "greedy-off power (W)",
		Theory: cycle.MeanPower(), Observed: p.AvgPowerW.Mean(), CI: p.AvgPowerW.CI95(), Slack: relSlack * cycle.MeanPower()})
	p = sums[4]
	r.add(AnalyticCheck{Rung: "sleep-cycle", Sim: "ctsim", Metric: fmt.Sprintf("timeout-%g power (W)", tmo.Timeout),
		Theory: tmo.MeanPower(), Observed: p.AvgPowerW.Mean(), CI: p.AvgPowerW.CI95(), Slack: relSlack * tmo.MeanPower()})

	p = sums[5]
	r.add(AnalyticCheck{Rung: "availability", Sim: "ctsim", Metric: "uptime fraction",
		Theory: av.Value(), Observed: p.Availability(ctHorizon),
		CI: p.DowntimeSec.CI95() / ctHorizon, Slack: relSlack * av.Value()})
	return nil
}

// ---------------------------------------------------------------------------
// Slotted rungs

// analyticSlotChecks runs the always-on exactness rung and the LP/MDP
// optimal-cost bound on the slotted simulator, every policy in one
// replica grid.
func analyticSlotChecks(ctx context.Context, r *AnalyticReport, seeds []uint64, par Parallel) error {
	dev, err := CanonDevice()
	if err != nil {
		return err
	}
	const arrivalP = 0.3
	sc := Scenario{
		Name:          "analytic-bernoulli",
		Device:        dev,
		QueueCap:      CanonQueueCap,
		LatencyWeight: CanonLatencyWeight,
		Slots:         slotHorizon,
		Workload: func() workload.Arrivals {
			b, err := workload.NewBernoulli(arrivalP)
			if err != nil {
				panic(err) // the rate is a static constant in range
			}
			return b
		},
	}

	optPF, _, err := OptimalFactory(dev, arrivalP)
	if err != nil {
		return err
	}
	// pfs[0] serves rung 6 and, with pfs[2:], the rung 7 bound;
	// pfs[1] is the derived optimal policy.
	pfs := []PolicyFactory{
		Factory("always-on", dev, 0),
		optPF,
		Factory("greedy-off", dev, 0),
		Factory("timeout", dev, 8),
		Factory("q-dpm", dev, 0),
	}
	sums, err := replicaGrid(ctx, par, len(pfs), seeds,
		func(ctx context.Context, _ *struct{}, pi int, seed uint64) (*Summary, error) {
			return slotReplica(ctx, sc, pfs[pi], seed)
		})
	if err != nil {
		return err
	}

	// Rung 6 — slotted always-on exactness: with one service per slot
	// and at most one Bernoulli arrival per slot, every request is
	// served in its arrival slot — power is exactly the active draw,
	// wait and loss are exactly zero, and the per-slot cost is exactly
	// the active energy. No CI needed: the identity holds per replica.
	sum := sums[0]
	activePower := device.Synthetic3().States[0].Power
	r.add(AnalyticCheck{Rung: "slotted always-on", Sim: "slotsim", Metric: "power (W)",
		Theory: activePower, Observed: sum.AvgPowerW.Mean(), Slack: exactTol})
	r.add(AnalyticCheck{Rung: "slotted always-on", Sim: "slotsim", Metric: "wait (slots)",
		Theory: 0, Observed: sum.MeanWaitSlots.Mean(), Slack: exactTol})
	r.add(AnalyticCheck{Rung: "slotted always-on", Sim: "slotsim", Metric: "loss rate",
		Theory: 0, Observed: sum.LossRate.Mean(), Slack: exactTol})
	r.add(AnalyticCheck{Rung: "slotted always-on", Sim: "slotsim", Metric: "cost/slot",
		Theory: activePower * CanonSlotSeconds, Observed: sum.AvgCost.Mean(), Slack: exactTol})

	// Rung 7 — the optimal-cost bound: the average-cost MDP/LP optimum
	// is exact for the simulated chain, so no stationary policy may
	// average below it, and the derived optimal policy must attain it.
	oc, err := analytic.SolveOptimalCost(dev, arrivalP, CanonQueueCap, CanonLatencyWeight)
	if err != nil {
		return err
	}
	if err := oc.AppliesTo(analytic.Regime{
		Arrivals:  analytic.ArrivalBernoulli,
		Service:   analytic.ServiceDeterministic,
		Policy:    analytic.PolicyOptimal,
		SystemCap: CanonQueueCap,
	}); err != nil {
		return err
	}
	r.add(AnalyticCheck{Rung: "optimal bound", Sim: "mdp/lp", Metric: "RVI vs LP gain",
		Theory: oc.Gain, Observed: oc.LPGain, Slack: analytic.CrossTol})

	opt := sums[1]
	r.add(AnalyticCheck{Rung: "optimal bound", Sim: "slotsim", Metric: "optimal policy cost/slot",
		Theory: oc.Gain, Observed: opt.AvgCost.Mean(), CI: opt.AvgCost.CI95(), Slack: relSlack * oc.Gain})
	for _, pi := range []int{0, 2, 3, 4} {
		s := sums[pi]
		r.add(AnalyticCheck{Rung: "optimal bound", Sim: "slotsim",
			Metric: fmt.Sprintf("%s cost/slot ≥ optimum", pfs[pi].Name),
			Theory: oc.Gain, Observed: s.AvgCost.Mean(), CI: s.AvgCost.CI95(),
			Slack: relSlack * oc.Gain, Bound: true})
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fleet rungs

// analyticFleetChecks runs the uncoupled always-on fleet against the
// exact-power and M/D/1 predictions, and a crash/repair fleet against
// the alternating-renewal availability.
func analyticFleetChecks(ctx context.Context, r *AnalyticReport, seeds []uint64, par Parallel) error {
	// Two fleet replicas suffice: the CI comes from pooling per-instance
	// samples (fleetDevices per replica), not per-seed means.
	fleetSeeds := seeds
	if len(fleetSeeds) > 2 {
		fleetSeeds = fleetSeeds[:2]
	}
	mix, err := fleet.ParseMix("synthetic3:exp:0.4:always-on")
	if err != nil {
		return err
	}

	// Rung 8 — uncoupled, unfaulted always-on fleet: each instance is
	// an independent M/D/1 queue (service starts are event-driven even
	// under the periodic governor), truncated at the fleet queue cap —
	// immaterial at ρ = 0.2, covered by the slack.
	md1, err := analytic.NewMD1(0.4, device.Synthetic3().ServiceTime)
	if err != nil {
		return err
	}
	if err := md1.AppliesTo(analytic.Regime{
		Arrivals: analytic.ArrivalPoisson,
		Service:  analytic.ServiceDeterministic,
		Policy:   analytic.PolicyAlwaysOn,
	}); err != nil {
		return err
	}
	sum, err := RunFleetReplicatedCtx(ctx, FleetScenario{
		Name: "analytic-fleet",
		Spec: fleet.Spec{Devices: fleetDevices, Classes: mix, Horizon: fleetHorizon},
	}, fleetSeeds, par)
	if err != nil {
		return err
	}
	activePower := device.Synthetic3().States[0].Power
	r.add(AnalyticCheck{Rung: "fleet M/D/1", Sim: "fleet", Metric: "power (W)",
		Theory: activePower, Observed: sum.Fleet.AvgPowerW.Mean(), Slack: exactTol})
	r.add(AnalyticCheck{Rung: "fleet M/D/1", Sim: "fleet", Metric: "sojourn (s)",
		Theory: md1.MeanSojourn(), Observed: sum.Fleet.MeanWaitSec.Mean(),
		CI: sum.Fleet.MeanWaitSec.CI95(), Slack: relSlack * md1.MeanSojourn()})

	// Rung 9 — faulted fleet availability, pooled across every instance
	// of every replica.
	av := analytic.Availability{MTBF: 50, MeanRepair: 5}
	if err := av.Validate(); err != nil {
		return err
	}
	if err := av.AppliesTo(analytic.Regime{Faults: true}); err != nil {
		return err
	}
	fsum, err := RunFleetReplicatedCtx(ctx, FleetScenario{
		Name: "analytic-fleet-faulted",
		Spec: fleet.Spec{
			Devices: fleetDevices, Classes: mix, Horizon: fleetHorizon,
			Faults: &fleet.FaultSpec{CrashMTBF: av.MTBF, RepairMean: av.MeanRepair},
		},
	}, fleetSeeds, par)
	if err != nil {
		return err
	}
	r.add(AnalyticCheck{Rung: "fleet availability", Sim: "fleet", Metric: "uptime fraction",
		Theory: av.Value(), Observed: fsum.Fleet.Availability(),
		CI: fsum.Fleet.DowntimeSec.CI95() / fsum.Fleet.HorizonSec, Slack: relSlack * av.Value()})
	return nil
}

// ---------------------------------------------------------------------------
// Table rendering

// TableAnalyticCtx runs the harness and renders one row per check.
func TableAnalyticCtx(ctx context.Context, seeds []uint64, par Parallel) (*Table, error) {
	rep, err := RunAnalyticCtx(ctx, seeds, par)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table A — analytic conformance (sim vs closed form)",
		Headers: []string{"rung", "sim", "metric", "theory", "simulated", "±95%", "slack", "verdict"},
		Note: fmt.Sprintf("%d seeds, ct horizon %g s, %d slots, fleet %d×%g s; pass iff |sim−theory| ≤ CI95+slack (bounds one-sided); see docs/ANALYTIC.md",
			len(seeds), float64(ctHorizon), int(slotHorizon), fleetDevices, float64(fleetHorizon)),
	}
	for _, c := range rep.Checks {
		verdict := "ok"
		if !c.Pass {
			verdict = "FAIL"
		}
		if c.Bound {
			verdict += " (bound)"
		}
		t.Rows = append(t.Rows, []string{
			c.Rung, c.Sim, c.Metric,
			fmt.Sprintf("%.6f", c.Theory),
			fmt.Sprintf("%.6f", c.Observed),
			fmt.Sprintf("%.6f", c.CI),
			fmt.Sprintf("%.6f", c.Slack),
			verdict,
		})
	}
	return t, nil
}
