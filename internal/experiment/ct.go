package experiment

import (
	"context"
	"fmt"

	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/stats"
)

// CTScenario describes one continuous-time simulated system. The slotted
// policies under comparison are wrapped with ctsim.Adapt at the scenario's
// Period, so the same PolicyFactory values drive both simulators.
type CTScenario struct {
	// Name labels the scenario.
	Name string
	// Device is the managed physical PSM (latencies in seconds).
	Device *device.PSM
	// QueueCap bounds the queue.
	QueueCap int
	// LatencyWeight scalarizes backlog-seconds into cost (J/request-s).
	LatencyWeight float64
	// Source builds a fresh arrival source per replica.
	Source func() ctsim.Source
	// Horizon is the run length in seconds.
	Horizon float64
	// Period is the governor tick interval (the adapter's reference slot).
	Period float64
}

// Validate checks the scenario.
func (sc *CTScenario) Validate() error {
	if sc.Device == nil {
		return fmt.Errorf("experiment: ct scenario %q needs a device", sc.Name)
	}
	if sc.Source == nil {
		return fmt.Errorf("experiment: ct scenario %q needs a source factory", sc.Name)
	}
	if !(sc.Horizon > 0) {
		return fmt.Errorf("experiment: ct scenario %q has non-positive horizon %v", sc.Name, sc.Horizon)
	}
	if !(sc.Period > 0) {
		return fmt.Errorf("experiment: ct scenario %q has non-positive period %v", sc.Name, sc.Period)
	}
	return nil
}

// ctReplicaConfig assembles one replica's simulator configuration under
// the repository determinism contract: the seed roots a stream whose first
// split feeds the policy and second split feeds the simulator — the same
// layout as the slotted newReplicaSim, so cross-simulator comparisons can
// share seeds.
func ctReplicaConfig(sc CTScenario, pf PolicyFactory, seed uint64) (ctsim.Config, error) {
	root := rng.New(seed)
	polStream := root.Split()
	simStream := root.Split()
	pol, err := pf.New(polStream)
	if err != nil {
		return ctsim.Config{}, fmt.Errorf("experiment: building policy %s: %w", pf.Name, err)
	}
	return ctsim.Config{
		Device:         sc.Device,
		QueueCap:       sc.QueueCap,
		LatencyWeight:  sc.LatencyWeight,
		Policy:         ctsim.Adapt(pol, sc.Period),
		Source:         sc.Source(),
		Stream:         simStream,
		DecisionPeriod: sc.Period,
	}, nil
}

// ctScratch is one worker's reusable replica state: the simulator (whose
// kernel arena, queue ring, and StateTime buffer survive across the
// replicas this worker runs) and a metrics scratch for MetricsInto. A
// worker's scratch never influences results — ctsim.Sim.Reset is
// bit-identical to a fresh build — it only keeps replica turnover off the
// allocator.
type ctScratch struct {
	sim     *ctsim.Sim
	metrics ctsim.Metrics
}

// runCTReplica executes one replica into ws.metrics, building the
// simulator fresh on the worker's first job and resetting it afterwards.
// Replicas run in chunks of ctCancelChunkTicks governor ticks and poll
// the context between chunks.
func runCTReplica(ctx context.Context, sc CTScenario, pf PolicyFactory, seed uint64, ws *ctScratch) error {
	cfg, err := ctReplicaConfig(sc, pf, seed)
	if err != nil {
		return err
	}
	if ws.sim == nil {
		if ws.sim, err = ctsim.New(cfg); err != nil {
			return err
		}
	} else if err = ws.sim.Reset(cfg); err != nil {
		return err
	}
	if err := ws.sim.RunChunked(ctx, sc.Horizon, sc.Period*ctCancelChunkTicks); err != nil {
		return err
	}
	ws.sim.MetricsInto(&ws.metrics)
	return nil
}

// ctCancelChunkTicks bounds cancellation latency: replicas run in chunks
// of this many governor ticks and poll the context between chunks.
const ctCancelChunkTicks = 8192

// RunCTOneCtx executes one continuous-time replica and returns its
// metrics, with cooperative cancellation between simulated chunks.
func RunCTOneCtx(ctx context.Context, sc CTScenario, pf PolicyFactory, seed uint64) (ctsim.Metrics, error) {
	if err := sc.Validate(); err != nil {
		return ctsim.Metrics{}, err
	}
	var ws ctScratch
	if err := runCTReplica(ctx, sc, pf, seed, &ws); err != nil {
		return ctsim.Metrics{}, err
	}
	return ws.metrics, nil
}

// CTSummary pools continuous-time replica metrics for one policy on one
// scenario.
type CTSummary struct {
	Policy   string
	Scenario string
	// Replicas is the number of pooled runs.
	Replicas int
	// AvgPowerW, EnergyReduction, MeanWaitSec, and LossRate aggregate
	// per-replica values (EnergyReduction is relative to the device's
	// hungriest state).
	AvgPowerW       stats.Running
	EnergyReduction stats.Running
	MeanWaitSec     stats.Running
	LossRate        stats.Running
}

// addReplica folds one replica's metrics into the summary.
func (s *CTSummary) addReplica(m *ctsim.Metrics, maxPowerW float64) {
	s.Replicas++
	p := m.AvgPowerW()
	s.AvgPowerW.Add(p)
	s.EnergyReduction.Add(1 - p/maxPowerW)
	s.MeanWaitSec.Add(m.MeanWaitSeconds())
	s.LossRate.Add(m.LossRate())
}

// Merge combines another summary (same policy and scenario) into s, with
// the same bit-identical singleton-merge property as Summary.Merge.
func (s *CTSummary) Merge(o *CTSummary) {
	if s.Policy == "" {
		s.Policy, s.Scenario = o.Policy, o.Scenario
	}
	s.Replicas += o.Replicas
	s.AvgPowerW.Merge(&o.AvgPowerW)
	s.EnergyReduction.Merge(&o.EnergyReduction)
	s.MeanWaitSec.Merge(&o.MeanWaitSec)
	s.LossRate.Merge(&o.LossRate)
}

// RunCTReplicatedCtx executes one continuous-time replica per seed on a
// worker pool and pools the metrics: a one-cell replicaGrid, so the
// result is bit-identical for every worker count.
func RunCTReplicatedCtx(ctx context.Context, sc CTScenario, pf PolicyFactory, seeds []uint64, par Parallel) (*CTSummary, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sums, err := replicaGrid(ctx, par, 1, seeds,
		func(ctx context.Context, ws *ctScratch, _ int, seed uint64) (*CTSummary, error) {
			return ctReplica(ctx, ws, sc, pf, seed)
		})
	if err != nil {
		return nil, err
	}
	return sums[0], nil
}

// ctReplica runs one continuous-time replica on the worker's reusable
// simulator as a single-replica summary.
func ctReplica(ctx context.Context, ws *ctScratch, sc CTScenario, pf PolicyFactory, seed uint64) (*CTSummary, error) {
	if err := runCTReplica(ctx, sc, pf, seed, ws); err != nil {
		return nil, err
	}
	s := &CTSummary{Policy: pf.Name, Scenario: sc.Name}
	s.addReplica(&ws.metrics, sc.Device.MaxPower())
	return s, nil
}

// ---------------------------------------------------------------------------
// Table CT — continuous-time workload comparison

// ctCell names one (scenario, policy) table cell.
type ctCell struct {
	sc CTScenario
	pf PolicyFactory
}

// TableCTCtx compares policies on the event-driven simulator across
// renewal workloads the slot grid cannot express natively — Poisson
// (exp), high-variance hyperexponential, and heavy-tailed Pareto and
// Weibull interarrivals — at ratePerSec arrivals per second over horizon
// seconds. The scenario × policy × seed replica grid fans out across the
// worker pool and reduces in seed order, so output is bit-identical for
// every -parallel value.
func TableCTCtx(ctx context.Context, ratePerSec, horizon float64, seeds []uint64, par Parallel) (*Table, error) {
	psm := device.Synthetic3()
	dev, err := CanonDevice()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table CT — continuous-time renewal workloads (synthetic3, event kernel)",
		Headers: []string{"workload", "policy", "power (W)", "±95%", "wait (s)", "loss", "energy red."},
		Note: fmt.Sprintf("%g arrivals/s over %.0f s, %d seeds; ctsim with %g s governor period; energy reduction vs always-on",
			ratePerSec, horizon, len(seeds), CanonSlotSeconds),
	}

	var cells []ctCell
	for _, name := range []string{"exp", "hyperexp", "pareto", "weibull"} {
		name := name
		sc := CTScenario{
			Name:          name,
			Device:        psm,
			QueueCap:      CanonQueueCap,
			LatencyWeight: CanonLatencyWeight / CanonSlotSeconds,
			Horizon:       horizon,
			Period:        CanonSlotSeconds,
			Source: func() ctsim.Source {
				d, err := dist.ByName(name, ratePerSec)
				if err != nil {
					panic(err) // names are static; ByName covers them all
				}
				src, err := ctsim.NewRenewalSource(d)
				if err != nil {
					panic(err)
				}
				return src
			},
		}
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		for _, pf := range []PolicyFactory{
			AlwaysOnFactory(dev),
			GreedyOffFactory(dev),
			TimeoutFactory(dev, 8),
			QDPMFactory(dev),
		} {
			cells = append(cells, ctCell{sc: sc, pf: pf})
		}
	}

	sums, err := replicaGrid(ctx, par, len(cells), seeds,
		func(ctx context.Context, ws *ctScratch, ci int, seed uint64) (*CTSummary, error) {
			return ctReplica(ctx, ws, cells[ci].sc, cells[ci].pf, seed)
		})
	if err != nil {
		return nil, err
	}
	for ci, cell := range cells {
		sum := sums[ci]
		t.Rows = append(t.Rows, []string{
			cell.sc.Name,
			cell.pf.Name,
			fmt.Sprintf("%.4f", sum.AvgPowerW.Mean()),
			fmt.Sprintf("%.4f", sum.AvgPowerW.CI95()),
			fmt.Sprintf("%.3f", sum.MeanWaitSec.Mean()),
			fmt.Sprintf("%.2f%%", 100*sum.LossRate.Mean()),
			fmt.Sprintf("%.1f%%", 100*sum.EnergyReduction.Mean()),
		})
	}
	return t, nil
}
