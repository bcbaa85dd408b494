package experiment

import (
	"context"
	"fmt"
	"math"

	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/fleet"
	"repro/internal/rng"
)

// CTScenario describes one continuous-time simulated system. The exported
// runners wrap the slotted policies under comparison with ctsim.Adapt at
// the scenario's Period, so the same PolicyFactory values drive both
// simulators; the analytic rungs run native ctsim policies with Period 0,
// which selects event-driven decisions.
type CTScenario struct {
	// Name labels the scenario.
	Name string
	// Device is the managed physical PSM (latencies in seconds).
	Device *device.PSM
	// QueueCap bounds the queue (0 = unbounded).
	QueueCap int
	// LatencyWeight scalarizes backlog-seconds into cost (J/request-s).
	LatencyWeight float64
	// Source builds a fresh arrival source per replica.
	Source func() ctsim.Source
	// Horizon is the run length in seconds.
	Horizon float64
	// Period is the governor tick interval (the adapter's reference slot);
	// 0 selects event-driven decisions, which only a native policy
	// supports.
	Period float64
	// ServiceDist, when non-nil, draws each service duration from this
	// law on the replica's service stream (nil: the device's fixed
	// service time).
	ServiceDist dist.Continuous
	// Faults, when non-nil, enables fault injection with this spec; its
	// Stream is ignored and filled per replica.
	Faults *ctsim.Faults
}

// Validate checks the scenario for the exported runners, which adapt a
// slotted policy onto the governor and so need a positive, finite Period.
func (sc *CTScenario) Validate() error {
	if sc.Device == nil {
		return fmt.Errorf("experiment: ct scenario %q needs a device", sc.Name)
	}
	if sc.Source == nil {
		return fmt.Errorf("experiment: ct scenario %q needs a source factory", sc.Name)
	}
	if !(sc.Horizon > 0) || math.IsInf(sc.Horizon, 1) {
		return fmt.Errorf("experiment: ct scenario %q has horizon %v, want positive and finite", sc.Name, sc.Horizon)
	}
	if !(sc.Period > 0) || math.IsInf(sc.Period, 1) {
		return fmt.Errorf("experiment: ct scenario %q has period %v, want positive and finite", sc.Name, sc.Period)
	}
	return nil
}

// ctCell is one (scenario, policy) cell of a continuous-time replica
// grid: policy builds each replica's native ctsim policy from the
// replica's policy stream, and name labels it.
type ctCell struct {
	sc     CTScenario
	name   string
	policy func(*rng.Stream) (ctsim.Policy, error)
}

// adaptedCell runs the slotted policies pf builds on sc's governor.
func adaptedCell(sc CTScenario, pf PolicyFactory) ctCell {
	period := sc.Period
	return ctCell{sc: sc, name: pf.Name, policy: func(s *rng.Stream) (ctsim.Policy, error) {
		pol, err := pf.New(s)
		if err != nil {
			return nil, fmt.Errorf("experiment: building policy %s: %w", pf.Name, err)
		}
		return ctsim.Adapt(pol, period), nil
	}}
}

// ctReplicaConfig assembles one replica's simulator configuration under
// the repository determinism contract: the seed roots a stream whose first
// split feeds the policy and second split feeds the simulator — the same
// layout as the slotted newReplicaSim, so cross-simulator comparisons can
// share seeds — then one split for the service law and one for the
// faults, each only when the scenario enables it.
func ctReplicaConfig(c *ctCell, seed uint64) (ctsim.Config, error) {
	root := rng.New(seed)
	polStream := root.Split()
	simStream := root.Split()
	pol, err := c.policy(polStream)
	if err != nil {
		return ctsim.Config{}, err
	}
	sc := &c.sc
	cfg := ctsim.Config{
		Device:         sc.Device,
		QueueCap:       sc.QueueCap,
		LatencyWeight:  sc.LatencyWeight,
		Policy:         pol,
		Source:         sc.Source(),
		Stream:         simStream,
		DecisionPeriod: sc.Period,
	}
	if sc.ServiceDist != nil {
		cfg.ServiceDist = sc.ServiceDist
		cfg.ServiceStream = root.Split()
	}
	if sc.Faults != nil {
		f := *sc.Faults
		f.Stream = root.Split()
		cfg.Faults = &f
	}
	return cfg, nil
}

// renewalSource returns a Source factory that builds a fresh renewal
// source over d per replica; d is shared, since sampling a law is
// stateless.
func renewalSource(d dist.Continuous) func() ctsim.Source {
	return func() ctsim.Source {
		src, err := ctsim.NewRenewalSource(d)
		if err != nil {
			panic(err) // only a nil law fails
		}
		return src
	}
}

// ctScratch is one worker's reusable replica state: the simulator, whose
// kernel arena, queue ring, and StateTime buffer survive across the
// replicas this worker runs. A worker's scratch never influences results
// — ctsim.Sim.Reset is bit-identical to a fresh build — it only keeps
// replica turnover off the allocator.
type ctScratch struct {
	sim *ctsim.Sim
}

// runCTReplica executes one replica on ws.sim, building the simulator
// fresh on the worker's first job and resetting it afterwards.
// Replicas run in chunks of ctCancelChunkServices service times and poll
// the context between chunks.
func runCTReplica(ctx context.Context, c *ctCell, seed uint64, ws *ctScratch) error {
	cfg, err := ctReplicaConfig(c, seed)
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
	return ws.sim.RunChunked(ctx, c.sc.Horizon, c.sc.Device.ServiceTime*ctCancelChunkServices)
}

// ctCancelChunkServices bounds cancellation latency: replicas run in
// chunks of this many device service times — a unit that exists with and
// without a governor, and no longer than a governor period (a slot holds
// at least one service) — and poll the context between chunks. Chunk
// size never changes output: a chunk boundary accrues nothing.
const ctCancelChunkServices = 8192

// RunCTOneCtx executes one continuous-time replica and returns its
// metrics, with cooperative cancellation between simulated chunks.
func RunCTOneCtx(ctx context.Context, sc CTScenario, pf PolicyFactory, seed uint64) (ctsim.Metrics, error) {
	if err := sc.Validate(); err != nil {
		return ctsim.Metrics{}, err
	}
	c := adaptedCell(sc, pf)
	var ws ctScratch
	if err := runCTReplica(ctx, &c, seed, &ws); err != nil {
		return ctsim.Metrics{}, err
	}
	return ws.sim.Metrics(), nil
}

// RunCTReplicatedCtx executes one continuous-time replica per seed on a
// worker pool and pools the metrics, one sample per replica, under the
// scenario's name and the policy's: a one-cell replicaGrid, so the result
// is bit-identical for every worker count.
func RunCTReplicatedCtx(ctx context.Context, sc CTScenario, pf PolicyFactory, seeds []uint64, par Parallel) (*fleet.ClassStats, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sums, err := ctGrid(ctx, par, []ctCell{adaptedCell(sc, pf)}, seeds)
	if err != nil {
		return nil, err
	}
	return sums[0], nil
}

// ctGrid runs every cell once per seed on the pool, each worker reusing
// one simulator, and pools each cell's replicas in seed order.
func ctGrid(ctx context.Context, par Parallel, cells []ctCell, seeds []uint64) ([]*fleet.ClassStats, error) {
	return replicaGrid(ctx, par, len(cells), seeds,
		func(ctx context.Context, ws *ctScratch, ci int, seed uint64) (*fleet.ClassStats, error) {
			c := &cells[ci]
			if err := runCTReplica(ctx, c, seed, ws); err != nil {
				return nil, err
			}
			s := &fleet.ClassStats{Name: c.sc.Name, Policy: c.name}
			s.Add(ws.sim.MetricsView(), c.sc.Device.MaxPower())
			return s, nil
		})
}

// ---------------------------------------------------------------------------
// Table CT — continuous-time workload comparison

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
		d, err := dist.ByName(name, ratePerSec)
		if err != nil {
			return nil, err
		}
		sc := CTScenario{
			Name:          name,
			Device:        psm,
			QueueCap:      CanonQueueCap,
			LatencyWeight: CanonLatencyWeight / CanonSlotSeconds,
			Horizon:       horizon,
			Period:        CanonSlotSeconds,
			Source:        renewalSource(d),
		}
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		for _, pf := range []PolicyFactory{
			Factory("always-on", dev, 0),
			Factory("greedy-off", dev, 0),
			Factory("timeout", dev, 8),
			Factory("q-dpm", dev, 0),
		} {
			cells = append(cells, adaptedCell(sc, pf))
		}
	}

	sums, err := ctGrid(ctx, par, cells, seeds)
	if err != nil {
		return nil, err
	}
	for _, sum := range sums {
		t.Rows = append(t.Rows, []string{
			sum.Name,
			sum.Policy,
			fmt.Sprintf("%.4f", sum.AvgPowerW.Mean()),
			fmt.Sprintf("%.4f", sum.AvgPowerW.CI95()),
			fmt.Sprintf("%.3f", sum.MeanWaitSec.Mean()),
			fmt.Sprintf("%.2f%%", 100*sum.LossRate.Mean()),
			fmt.Sprintf("%.1f%%", 100*sum.EnergyReduction.Mean()),
		})
	}
	return t, nil
}
