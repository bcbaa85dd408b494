package experiment

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fleet"
	"repro/internal/stats"
)

// FleetScenario describes one replicated fleet experiment: a fleet spec
// whose Seed field is replaced per replica.
type FleetScenario struct {
	// Name labels the scenario.
	Name string
	// Spec is the fleet under test (Spec.Seed is overridden per replica).
	Spec fleet.Spec
}

// Validate checks the scenario.
func (sc *FleetScenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("experiment: fleet scenario needs a name")
	}
	return sc.Spec.Validate()
}

// FleetSummary pools replicated fleet runs: one sample per replica of
// each fleet-level mean, plus the fleet summaries themselves merged in
// seed order (so per-class breakdowns and wait percentiles cover every
// instance of every replica).
type FleetSummary struct {
	Scenario string
	// Replicas is the number of pooled fleet runs.
	Replicas int
	// AvgPowerW, EnergyReduction, MeanWaitSec, and LossRate pool one
	// fleet-mean sample per replica.
	AvgPowerW       stats.Running
	EnergyReduction stats.Running
	MeanWaitSec     stats.Running
	LossRate        stats.Running
	// Fleet merges every replica's fleet summary in seed order.
	Fleet fleet.Summary
}

// addReplica folds one fleet run into the summary.
func (s *FleetSummary) addReplica(f *fleet.Summary) {
	s.Replicas++
	s.AvgPowerW.Add(f.AvgPowerW.Mean())
	s.EnergyReduction.Add(f.EnergyReduction.Mean())
	s.MeanWaitSec.Add(f.MeanWaitSec.Mean())
	s.LossRate.Add(f.LossRate.Mean())
	s.Fleet.Merge(f)
}

// RunFleetReplicatedCtx executes one fleet run per seed and pools the
// results. Replicas run back to back in seed order — the parallelism
// lives inside each fleet run, which fans its shards across the pool —
// and fold in seed order, so the result honours the repository
// determinism contract: bit-identical output for every -parallel value.
//
// Graceful degradation passes through from fleet.Run: a replica that
// fails some shards (*fleet.PartialError) still folds its surviving
// summary, the remaining replicas still run, and the call returns the
// pooled summary alongside the joined per-replica partial errors. Any
// other error stays fatal (nil summary).
func RunFleetReplicatedCtx(ctx context.Context, sc FleetScenario, seeds []uint64, par Parallel) (*FleetSummary, error) {
	if len(seeds) == 0 {
		return nil, errNoSeeds
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sum := &FleetSummary{Scenario: sc.Name}
	var partial error
	for _, seed := range seeds {
		spec := sc.Spec
		spec.Seed = seed
		f, err := fleet.Run(ctx, spec, par.pool())
		if err != nil {
			var pe *fleet.PartialError
			if !errors.As(err, &pe) {
				return nil, err
			}
			partial = errors.Join(partial, fmt.Errorf("replica seed %d: %w", seed, pe))
		}
		sum.addReplica(f)
	}
	return sum, partial
}

// ---------------------------------------------------------------------------
// Table Fleet — fleet-scale mixed-workload comparison

// TableFleetCtx runs the canonical heterogeneous fleet (DefaultMix) at
// the given scale and renders per-class and per-policy aggregates plus
// fleet-level wait percentiles; output is bit-identical for every
// -parallel value.
func TableFleetCtx(ctx context.Context, devices int, horizon float64, seeds []uint64, par Parallel) (*Table, error) {
	sc := FleetScenario{
		Name: "fleet",
		Spec: fleet.Spec{
			Devices: devices,
			Classes: fleet.DefaultMix(),
			Horizon: horizon,
		},
	}
	sum, err := RunFleetReplicatedCtx(ctx, sc, seeds, par)
	if err != nil {
		return nil, err
	}
	return FleetTable(sum)
}

// FleetTable renders a pooled fleet summary as per-class rows, per-policy
// rollups, a fleet-total row, and a note carrying the fleet-level wait
// percentiles. The output is a pure function of the summary, so it is
// bit-identical across -parallel values whenever the summary is. A
// coupled summary (Fleet.Couple set) grows three interference columns —
// mean per-instance contention wait, gateway drops, budget denials —
// and an uncoupled one renders byte-identically to the pre-coupling
// layout (the PR-pinned golden output).
func FleetTable(sum *FleetSummary) (*Table, error) {
	replicas := sum.Replicas
	if replicas < 1 {
		replicas = 1
	}
	coupled := sum.Fleet.Couple != fleet.CoupleNone
	faulted := sum.Fleet.Faulted
	kernel := "ct kernel"
	if coupled {
		kernel += fmt.Sprintf(", coupled %s ×%d", sum.Fleet.Couple, sum.Fleet.CoupleSize)
	}
	if faulted {
		kernel += ", faulted"
	}
	// Fleet.Devices accumulates across replicas; the title names the
	// per-replica fleet size, matching the note.
	t := &Table{
		Title: fmt.Sprintf("Table Fleet — %d heterogeneous devices (%s)",
			sum.Fleet.Devices/int64(replicas), kernel),
		Headers: []string{"group", "policy", "instances", "power (W)", "±95%", "wait (s)", "loss", "energy red."},
	}
	if coupled {
		t.Headers = append(t.Headers, "res.wait (s)", "drops", "denied")
	}
	if faulted {
		t.Headers = append(t.Headers, "avail", "crashes", "retries")
	}
	row := func(name string, c *fleet.ClassStats) {
		cells := []string{
			name,
			c.Policy,
			fmt.Sprintf("%d", c.Instances),
			fmt.Sprintf("%.4f", c.AvgPowerW.Mean()),
			fmt.Sprintf("%.4f", c.AvgPowerW.CI95()),
			fmt.Sprintf("%.3f", c.MeanWaitSec.Mean()),
			fmt.Sprintf("%.2f%%", 100*c.LossRate.Mean()),
			fmt.Sprintf("%.1f%%", 100*c.EnergyReduction.Mean()),
		}
		if coupled {
			cells = append(cells,
				fmt.Sprintf("%.3f", c.ResourceWaitSec.Mean()),
				fmt.Sprintf("%d", c.ResourceDrops),
				fmt.Sprintf("%d", c.BudgetDenied),
			)
		}
		if faulted {
			cells = append(cells,
				fmt.Sprintf("%.4f", c.Availability(sum.Fleet.HorizonSec)),
				fmt.Sprintf("%d", c.Crashes),
				fmt.Sprintf("%d", c.Retries),
			)
		}
		t.Rows = append(t.Rows, cells)
	}
	for i := range sum.Fleet.Classes {
		row(sum.Fleet.Classes[i].Name, &sum.Fleet.Classes[i])
	}
	perPol := sum.Fleet.PerPolicy()
	for i := range perPol {
		row("policy="+perPol[i].Policy, &perPol[i])
	}
	fl := sum.Fleet.ClassStats
	fl.Policy = "-"
	row("fleet", &fl)
	p50, err := sum.Fleet.WaitQuantile(0.50)
	if err != nil {
		return nil, err
	}
	p90, err := sum.Fleet.WaitQuantile(0.90)
	if err != nil {
		return nil, err
	}
	p99, err := sum.Fleet.WaitQuantile(0.99)
	if err != nil {
		return nil, err
	}
	t.Note = fmt.Sprintf(
		"%d devices × %d replicas over %.0f s, %d shards/replica, %d events; instance wait p50/p90/p99 = %.3f/%.3f/%.3f s; overall loss %.2f%%",
		sum.Fleet.Devices/int64(replicas), replicas, sum.Fleet.HorizonSec,
		sum.Fleet.Shards/replicas, sum.Fleet.Events,
		p50, p90, p99, 100*sum.Fleet.LossOverall())
	if coupled {
		t.Note += fmt.Sprintf("; contention wait mean %.3f s, %d gateway drops, %d budget denials",
			sum.Fleet.ResourceWaitSec.Mean(), sum.Fleet.ResourceDrops, sum.Fleet.BudgetDenied)
	}
	if faulted {
		t.Note += fmt.Sprintf("; availability %.4f, %d crashes, %d retries (%d exhausted), %d lost to outages, %.1f J burned in outages",
			sum.Fleet.Availability(), sum.Fleet.Crashes, sum.Fleet.Retries,
			sum.Fleet.RetryExhausted, sum.Fleet.LostToOutage, sum.Fleet.EnergyOutageJ)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Table Coupled Fleet — policies under contention severity

// TableCoupledFleetCtx compares the canonical mix's policies under
// growing contention severity: one coupled fleet per group size in sizes,
// all contending for the given shared resource, rendered as per-policy
// rollups per severity level. Output is bit-identical for every -parallel
// value. The note tracks the interference acceptance signal: the p99 of
// per-instance mean waits per severity level, which grows with the group
// size.
func TableCoupledFleetCtx(ctx context.Context, devices int, horizon float64, couple fleet.CoupleMode, sizes []int, seeds []uint64, par Parallel) (*Table, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("experiment: coupled fleet table needs at least one group size")
	}
	t := &Table{
		Title:   fmt.Sprintf("Table Coupled Fleet — %d devices sharing a %s (%d severity levels)", devices, couple, len(sizes)),
		Headers: []string{"K", "policy", "power (W)", "wait (s)", "res.wait (s)", "drops", "denied", "energy red."},
	}
	note := "p99 wait by K:"
	for _, k := range sizes {
		sc := FleetScenario{
			Name: fmt.Sprintf("coupled-%s-%d", couple, k),
			Spec: fleet.Spec{
				Devices:    devices,
				Classes:    fleet.DefaultMix(),
				Horizon:    horizon,
				Couple:     couple,
				CoupleSize: k,
			},
		}
		sum, err := RunFleetReplicatedCtx(ctx, sc, seeds, par)
		if err != nil {
			return nil, err
		}
		row := func(label string, c *fleet.ClassStats) {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", k),
				label,
				fmt.Sprintf("%.4f", c.AvgPowerW.Mean()),
				fmt.Sprintf("%.3f", c.MeanWaitSec.Mean()),
				fmt.Sprintf("%.3f", c.ResourceWaitSec.Mean()),
				fmt.Sprintf("%d", c.ResourceDrops),
				fmt.Sprintf("%d", c.BudgetDenied),
				fmt.Sprintf("%.1f%%", 100*c.EnergyReduction.Mean()),
			})
		}
		perPol := sum.Fleet.PerPolicy()
		for i := range perPol {
			row(perPol[i].Policy, &perPol[i])
		}
		row("fleet", &sum.Fleet.ClassStats)
		p99, err := sum.Fleet.WaitQuantile(0.99)
		if err != nil {
			return nil, err
		}
		note += fmt.Sprintf(" %d→%.3f s", k, p99)
	}
	t.Note = note
	return t, nil
}

// ---------------------------------------------------------------------------
// Table Faulted Fleet — policies under fault severity

// FaultLevel is one severity rung of the faulted-fleet sweep.
type FaultLevel struct {
	// Name labels the level ("none", "mild", ...).
	Name string
	// Faults is the level's fault spec; nil is the fault-free baseline.
	Faults *fleet.FaultSpec
}

// DefaultFaultLevels is the canonical severity ladder: a fault-free
// baseline, then crash/retry regimes of rising crash rate, repair
// length, and transient-failure probability.
func DefaultFaultLevels() []FaultLevel {
	return []FaultLevel{
		{Name: "none"},
		{Name: "mild", Faults: &fleet.FaultSpec{CrashMTBF: 400, RepairMean: 5, FailProb: 0.02}},
		{Name: "moderate", Faults: &fleet.FaultSpec{CrashMTBF: 150, RepairMean: 10, FailProb: 0.05}},
		{Name: "severe", Faults: &fleet.FaultSpec{CrashMTBF: 60, RepairMean: 20, FailProb: 0.15}},
	}
}

// TableFaultedFleetCtx compares the canonical mix's policies across the
// given fault-severity levels (DefaultFaultLevels is the canonical
// ladder); output is bit-identical for every -parallel value. The note
// tracks the resilience acceptance signal: fleet availability per
// severity level, which falls as faults intensify while the policies'
// losses and waits spread apart.
func TableFaultedFleetCtx(ctx context.Context, devices int, horizon float64, levels []FaultLevel, seeds []uint64, par Parallel) (*Table, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("experiment: faulted fleet table needs at least one fault level")
	}
	t := &Table{
		Title:   fmt.Sprintf("Table Faulted Fleet — %d devices under %d fault levels", devices, len(levels)),
		Headers: []string{"level", "policy", "power (W)", "wait (s)", "loss", "avail", "crashes", "retries", "energy red."},
	}
	note := "availability by level:"
	for _, lv := range levels {
		sc := FleetScenario{
			Name: "faulted-" + lv.Name,
			Spec: fleet.Spec{
				Devices: devices,
				Classes: fleet.DefaultMix(),
				Horizon: horizon,
				Faults:  lv.Faults,
			},
		}
		sum, err := RunFleetReplicatedCtx(ctx, sc, seeds, par)
		if err != nil {
			return nil, err
		}
		row := func(label string, c *fleet.ClassStats) {
			t.Rows = append(t.Rows, []string{
				lv.Name,
				label,
				fmt.Sprintf("%.4f", c.AvgPowerW.Mean()),
				fmt.Sprintf("%.3f", c.MeanWaitSec.Mean()),
				fmt.Sprintf("%.2f%%", 100*c.LossRate.Mean()),
				fmt.Sprintf("%.4f", c.Availability(sum.Fleet.HorizonSec)),
				fmt.Sprintf("%d", c.Crashes),
				fmt.Sprintf("%d", c.Retries),
				fmt.Sprintf("%.1f%%", 100*c.EnergyReduction.Mean()),
			})
		}
		perPol := sum.Fleet.PerPolicy()
		for i := range perPol {
			row(perPol[i].Policy, &perPol[i])
		}
		row("fleet", &sum.Fleet.ClassStats)
		note += fmt.Sprintf(" %s→%.4f", lv.Name, sum.Fleet.Availability())
	}
	t.Note = note
	return t, nil
}
