// Package experiment drives the figure and table reproductions: scenario
// definitions, replicated runs with pooled statistics, windowed time
// series, and text renderers for figures (numeric series + ASCII chart)
// and tables.
//
// Every experiment is deterministic: a scenario plus a base seed fully
// determines the output. Policy and workload instances are constructed
// fresh per replica from factories so no state leaks across runs.
package experiment

import (
	"context"
	"fmt"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/slotsim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// PolicyFactory builds a fresh policy per replica.
type PolicyFactory struct {
	// Name labels the policy in outputs.
	Name string
	// New constructs the policy; stream is a dedicated policy stream.
	New func(stream *rng.Stream) (slotsim.Policy, error)
}

// Scenario describes one simulated system.
type Scenario struct {
	// Name labels the scenario.
	Name string
	// Device is the managed PSM.
	Device *device.Slotted
	// QueueCap bounds the queue.
	QueueCap int
	// LatencyWeight scalarizes backlog into cost.
	LatencyWeight float64
	// Workload builds a fresh arrival process per replica.
	Workload func() workload.Arrivals
	// Slots is the run length.
	Slots int64
}

// Validate checks the scenario.
func (sc *Scenario) Validate() error {
	if sc.Device == nil {
		return fmt.Errorf("experiment: scenario %q needs a device", sc.Name)
	}
	if sc.Workload == nil {
		return fmt.Errorf("experiment: scenario %q needs a workload factory", sc.Name)
	}
	if sc.Slots <= 0 {
		return fmt.Errorf("experiment: scenario %q has non-positive slots %d", sc.Name, sc.Slots)
	}
	return nil
}

// newReplicaSim builds one replica's simulator with the deterministic
// per-replica stream layout: the seed roots a stream whose first split
// feeds the policy and second split feeds the simulator, so a replica's
// randomness is a pure function of (scenario, factory, seed) and never of
// which worker runs it.
func newReplicaSim(sc Scenario, pf PolicyFactory, seed uint64) (*slotsim.Sim, error) {
	root := rng.New(seed)
	polStream := root.Split()
	simStream := root.Split()
	pol, err := pf.New(polStream)
	if err != nil {
		return nil, fmt.Errorf("experiment: building policy %s: %w", pf.Name, err)
	}
	return slotsim.New(slotsim.Config{
		Device:        sc.Device,
		Arrivals:      sc.Workload(),
		QueueCap:      sc.QueueCap,
		Policy:        pol,
		Stream:        simStream,
		LatencyWeight: sc.LatencyWeight,
	})
}

// Summary pools replica metrics for one policy on one scenario.
type Summary struct {
	Policy   string
	Scenario string
	// Replicas is the number of pooled runs.
	Replicas int
	// AvgPowerW, AvgCost, MeanWaitSlots, LossRate, and EnergyReduction
	// aggregate per-replica values (EnergyReduction is relative to the
	// always-on power of the device).
	AvgPowerW       stats.Running
	AvgCost         stats.Running
	MeanWaitSlots   stats.Running
	LossRate        stats.Running
	EnergyReduction stats.Running
}

// errNoSeeds is the shared empty-replication error.
var errNoSeeds = fmt.Errorf("experiment: no seeds")

// addReplica folds one replica's metrics into the summary.
func (s *Summary) addReplica(m *slotsim.Metrics, slotDuration, maxPower float64) {
	s.Replicas++
	p := m.AvgPowerW(slotDuration)
	s.AvgPowerW.Add(p)
	s.AvgCost.Add(m.AvgCost())
	s.MeanWaitSlots.Add(m.MeanWaitSlots())
	s.LossRate.Add(m.LossRate())
	s.EnergyReduction.Add(1 - p/maxPower)
}

// Merge combines another summary (same policy and scenario) into s. The
// per-metric merge is the parallel Welford combination, which for the
// single-replica parts produced by the worker pool is bit-identical to
// adding the replicas serially in the same order.
func (s *Summary) Merge(o *Summary) {
	if s.Policy == "" {
		s.Policy, s.Scenario = o.Policy, o.Scenario
	}
	s.Replicas += o.Replicas
	s.AvgPowerW.Merge(&o.AvgPowerW)
	s.AvgCost.Merge(&o.AvgCost)
	s.MeanWaitSlots.Merge(&o.MeanWaitSlots)
	s.LossRate.Merge(&o.LossRate)
	s.EnergyReduction.Merge(&o.EnergyReduction)
}

// windowedSeries runs one replica and samples the sliding-window mean of
// value(record) every stride slots as the point (slot, y(mean)). It also
// returns the replica's metrics, so drivers that need both pay for one
// simulation.
func windowedSeries(ctx context.Context, sc Scenario, pf PolicyFactory, seed uint64, window, stride int,
	value func(slotsim.SlotRecord) float64, y func(mean float64) float64,
) (*stats.Series, slotsim.Metrics, error) {
	if window <= 0 || stride <= 0 {
		return nil, slotsim.Metrics{}, fmt.Errorf("experiment: window %d and stride %d must be positive", window, stride)
	}
	win, err := stats.NewWindow(window)
	if err != nil {
		return nil, slotsim.Metrics{}, err
	}
	series := &stats.Series{Name: pf.Name}
	m, err := RunOneCtx(ctx, sc, pf, seed, func(r slotsim.SlotRecord) {
		win.Add(value(r))
		if r.Slot%int64(stride) == int64(stride)-1 && win.Full() {
			series.Append(float64(r.Slot+1), y(win.Mean()))
		}
	})
	if err != nil {
		return nil, slotsim.Metrics{}, err
	}
	return series, m, nil
}

// The two windowed series the drivers plot: Fig. 1 windows the per-slot
// cost as is; Fig. 2 windows the raw per-slot energy and plots the
// reduction 1 - mean/maxE against always-on.
func slotCost(r slotsim.SlotRecord) float64   { return r.Cost }
func slotEnergy(r slotsim.SlotRecord) float64 { return r.Energy }
func meanAsIs(mean float64) float64           { return mean }
func reductionVs(maxE float64) func(mean float64) float64 {
	return func(mean float64) float64 { return 1 - mean/maxE }
}

// MeanSeries averages several equally-sampled series pointwise (multi-seed
// figure smoothing). All series must share length and x grid.
func MeanSeries(name string, in []*stats.Series) (*stats.Series, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("experiment: no series to average")
	}
	n := in[0].Len()
	for _, s := range in[1:] {
		if s.Len() != n {
			return nil, fmt.Errorf("experiment: series lengths differ (%d vs %d)", s.Len(), n)
		}
	}
	out := &stats.Series{Name: name}
	for i := 0; i < n; i++ {
		y := 0.0
		for _, s := range in {
			y += s.Y[i]
		}
		out.Append(in[0].X[i], y/float64(len(in)))
	}
	return out, nil
}
