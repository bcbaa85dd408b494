package fleet

import (
	"fmt"

	"repro/internal/stats"
)

// ClassStats aggregates the per-instance results of one class (or one
// policy rollup). Each Running pools one sample per instance.
type ClassStats struct {
	// Name labels the group (a Class label or a policy name).
	Name string
	// Policy is the group's policy label (for per-policy rollups it
	// equals Name).
	Policy string
	// Instances is the number of pooled instances.
	Instances int64
	// AvgPowerW, EnergyReduction, MeanWaitSec, and LossRate pool
	// per-instance values; EnergyReduction is relative to each class's
	// always-on power.
	AvgPowerW       stats.Running
	EnergyReduction stats.Running
	MeanWaitSec     stats.Running
	LossRate        stats.Running
	// Interference aggregates, populated only by coupled runs
	// (Spec.Couple): ResourceWaitSec pools each instance's total time
	// spent queued for the shared resource; ResourceDrops counts
	// requests the shared gateway rejected; BudgetDenied counts
	// power-state commands the shared budget vetoed. All zero on an
	// uncoupled run.
	ResourceWaitSec stats.Running
	ResourceDrops   int64
	BudgetDenied    int64
	// Resilience aggregates, populated only by faulted runs
	// (Spec.Faults): DowntimeSec pools each instance's crashed time;
	// EnergyOutageJ totals energy burned while fault-stalled; the
	// counters total crashes, retried failures, retry-budget
	// exhaustions, and outage losses. All zero on a fault-free run.
	DowntimeSec    stats.Running
	EnergyOutageJ  float64
	Crashes        int64
	Retries        int64
	RetryExhausted int64
	LostToOutage   int64
}

// Availability returns the mean fraction of the horizon the group's
// instances were up (1 on a fault-free run).
func (c *ClassStats) Availability(horizonSec float64) float64 {
	if horizonSec == 0 {
		return 1
	}
	return 1 - c.DowntimeSec.Mean()/horizonSec
}

// merge folds another group (same identity) into c.
func (c *ClassStats) merge(o *ClassStats) {
	if c.Name == "" {
		c.Name, c.Policy = o.Name, o.Policy
	}
	c.Instances += o.Instances
	c.AvgPowerW.Merge(&o.AvgPowerW)
	c.EnergyReduction.Merge(&o.EnergyReduction)
	c.MeanWaitSec.Merge(&o.MeanWaitSec)
	c.LossRate.Merge(&o.LossRate)
	c.ResourceWaitSec.Merge(&o.ResourceWaitSec)
	c.ResourceDrops += o.ResourceDrops
	c.BudgetDenied += o.BudgetDenied
	c.DowntimeSec.Merge(&o.DowntimeSec)
	c.EnergyOutageJ += o.EnergyOutageJ
	c.Crashes += o.Crashes
	c.Retries += o.Retries
	c.RetryExhausted += o.RetryExhausted
	c.LostToOutage += o.LostToOutage
}

// instanceResult is one instance's contribution to the aggregates.
type instanceResult struct {
	avgPowerW, energyRed, meanWaitSec, lossRate, energyJ float64
	arrived, served, lost                                int64
	events                                               uint64
	// Interference fields, zero unless the run is coupled.
	resourceWaitSec             float64
	resourceDrops, budgetDenied int64
	// Resilience fields, zero unless the run is faulted.
	downtimeSec, energyOutageJ                     float64
	crashes, retries, retryExhausted, lostToOutage int64
}

// Summary aggregates a fleet run (or a shard of one — shards stream
// Summary values that Merge into the fleet total in shard-index order).
//
// Merge contract: a Summary is a merge tree over per-instance samples.
// The tree's shape is the shard decomposition plus the shard-index
// reduction order, both pure functions of the Spec, so the merged result
// is bit-identical for every worker count. Per-instance wait means feed
// the mergeable WaitSketch (whose integer bin counts are bit-identical
// under any merge order); the exact opt-in (Spec.Quantiles ==
// QuantilesExact) additionally keeps them in instance order in Waits.
type Summary struct {
	// Devices is the number of simulated instances; Shards is the number
	// of pool jobs they were sharded into (0 on a shard-local summary).
	Devices int64
	Shards  int
	// HorizonSec is each instance's simulated length in seconds.
	HorizonSec float64
	// Couple and CoupleSize echo the spec's coupling configuration
	// (CoupleNone / 0 on an uncoupled run) so report layers can gate
	// the interference columns without re-threading the spec.
	Couple     CoupleMode
	CoupleSize int
	// Faulted echoes whether the spec enabled fault injection, so
	// report layers can gate the resilience columns.
	Faulted bool
	// EnergyJ is the fleet-total energy; Arrived/Served/Lost are
	// fleet-total request counts; Events is the fleet-total kernel event
	// count.
	EnergyJ               float64
	Arrived, Served, Lost int64
	Events                uint64
	// AvgPowerW, EnergyReduction, MeanWaitSec, and LossRate pool one
	// sample per instance, fleet-wide.
	AvgPowerW       stats.Running
	EnergyReduction stats.Running
	MeanWaitSec     stats.Running
	LossRate        stats.Running
	// ResourceWaitSec pools each instance's total time queued for the
	// shared resource, fleet-wide; ResourceDrops and BudgetDenied are
	// fleet-total interference counts. All zero on an uncoupled run
	// (see ClassStats for the per-class breakdown).
	ResourceWaitSec stats.Running
	ResourceDrops   int64
	BudgetDenied    int64
	// Resilience aggregates, fleet-wide (see ClassStats): all zero on a
	// fault-free run.
	DowntimeSec    stats.Running
	EnergyOutageJ  float64
	Crashes        int64
	Retries        int64
	RetryExhausted int64
	LostToOutage   int64
	// Classes aggregates per class, index-aligned with Spec.Classes.
	Classes []ClassStats
	// WaitSketch pools every instance's mean wait (seconds) in a
	// log-binned sketch with relative accuracy WaitSketchAccuracy.
	WaitSketch *stats.QuantileSketch
	// Waits holds every instance's mean wait in seconds, in instance
	// order (shard merges concatenate in shard order). Populated only
	// under QuantilesExact; nil in sketch mode, where memory must stay
	// independent of the device count.
	Waits []float64
}

// newSummary returns an empty summary shaped for r's class list, with
// Waits capacity for n instances when the spec asks for exact
// quantiles.
func newSummary(r *runner, n int) *Summary {
	sk, err := stats.NewQuantileSketch(WaitSketchAccuracy)
	if err != nil {
		panic("fleet: wait sketch accuracy invalid: " + err.Error())
	}
	s := &Summary{
		HorizonSec: r.spec.Horizon,
		Couple:     r.spec.Couple,
		CoupleSize: r.spec.CoupleSize,
		Faulted:    r.spec.Faults != nil,
		Classes:    make([]ClassStats, len(r.classes)),
		WaitSketch: sk,
	}
	if r.spec.Quantiles == QuantilesExact {
		s.Waits = make([]float64, 0, n)
	}
	for ci := range r.classes {
		s.Classes[ci].Name = r.classes[ci].name
		s.Classes[ci].Policy = r.classes[ci].src.Policy
	}
	return s
}

// reset returns s to the empty state newSummary(r, n) produces while
// keeping every allocation at capacity: the class slice, the sketch's
// bin array, and the exact-mode waits buffer. A reset summary folds and
// merges bit-identically to a fresh one — this is what licenses the
// shard-summary pool (runner.takeSummary), which keeps per-shard
// summary construction off the allocator so fleet allocs scale with
// classes, not shards run.
func (s *Summary) reset(r *runner, n int) {
	s.Devices = 0
	s.Shards = 0
	s.HorizonSec = r.spec.Horizon
	s.Couple = r.spec.Couple
	s.CoupleSize = r.spec.CoupleSize
	s.Faulted = r.spec.Faults != nil
	s.EnergyJ = 0
	s.Arrived, s.Served, s.Lost = 0, 0, 0
	s.Events = 0
	s.AvgPowerW = stats.Running{}
	s.EnergyReduction = stats.Running{}
	s.MeanWaitSec = stats.Running{}
	s.LossRate = stats.Running{}
	s.ResourceWaitSec = stats.Running{}
	s.ResourceDrops = 0
	s.BudgetDenied = 0
	s.DowntimeSec = stats.Running{}
	s.EnergyOutageJ = 0
	s.Crashes, s.Retries, s.RetryExhausted, s.LostToOutage = 0, 0, 0, 0
	for ci := range s.Classes {
		c := &s.Classes[ci]
		c.Instances = 0
		c.AvgPowerW = stats.Running{}
		c.EnergyReduction = stats.Running{}
		c.MeanWaitSec = stats.Running{}
		c.LossRate = stats.Running{}
		c.ResourceWaitSec = stats.Running{}
		c.ResourceDrops = 0
		c.BudgetDenied = 0
		c.DowntimeSec = stats.Running{}
		c.EnergyOutageJ = 0
		c.Crashes, c.Retries, c.RetryExhausted, c.LostToOutage = 0, 0, 0, 0
	}
	s.WaitSketch.Reset()
	if r.spec.Quantiles == QuantilesExact {
		if cap(s.Waits) < n {
			s.Waits = make([]float64, 0, n)
		} else {
			s.Waits = s.Waits[:0]
		}
	} else {
		s.Waits = nil
	}
}

// addInstance folds one instance's results into the summary.
func (s *Summary) addInstance(class int, ir instanceResult) {
	s.Devices++
	s.EnergyJ += ir.energyJ
	s.Arrived += ir.arrived
	s.Served += ir.served
	s.Lost += ir.lost
	s.Events += ir.events
	s.AvgPowerW.Add(ir.avgPowerW)
	s.EnergyReduction.Add(ir.energyRed)
	s.MeanWaitSec.Add(ir.meanWaitSec)
	s.LossRate.Add(ir.lossRate)
	s.ResourceWaitSec.Add(ir.resourceWaitSec)
	s.ResourceDrops += ir.resourceDrops
	s.BudgetDenied += ir.budgetDenied
	s.DowntimeSec.Add(ir.downtimeSec)
	s.EnergyOutageJ += ir.energyOutageJ
	s.Crashes += ir.crashes
	s.Retries += ir.retries
	s.RetryExhausted += ir.retryExhausted
	s.LostToOutage += ir.lostToOutage
	c := &s.Classes[class]
	c.Instances++
	c.AvgPowerW.Add(ir.avgPowerW)
	c.EnergyReduction.Add(ir.energyRed)
	c.MeanWaitSec.Add(ir.meanWaitSec)
	c.LossRate.Add(ir.lossRate)
	c.ResourceWaitSec.Add(ir.resourceWaitSec)
	c.ResourceDrops += ir.resourceDrops
	c.BudgetDenied += ir.budgetDenied
	c.DowntimeSec.Add(ir.downtimeSec)
	c.EnergyOutageJ += ir.energyOutageJ
	c.Crashes += ir.crashes
	c.Retries += ir.retries
	c.RetryExhausted += ir.retryExhausted
	c.LostToOutage += ir.lostToOutage
	s.WaitSketch.Add(ir.meanWaitSec)
	if s.Waits != nil {
		s.Waits = append(s.Waits, ir.meanWaitSec)
	}
}

// Merge folds another summary (same spec shape) into s; fleet totals
// add, the pooled accumulators take the parallel Welford merge, and o's
// waits append after s's. Merging shard summaries in shard-index order
// is the engine's sequential reduction, so the result is independent of
// which workers ran which shards.
func (s *Summary) Merge(o *Summary) {
	if s.HorizonSec == 0 { // empty: take o's run shape
		s.HorizonSec = o.HorizonSec
		s.Couple, s.CoupleSize = o.Couple, o.CoupleSize
		s.Faulted = o.Faulted
	}
	s.Devices += o.Devices
	s.Shards += o.Shards
	s.EnergyJ += o.EnergyJ
	s.Arrived += o.Arrived
	s.Served += o.Served
	s.Lost += o.Lost
	s.Events += o.Events
	s.AvgPowerW.Merge(&o.AvgPowerW)
	s.EnergyReduction.Merge(&o.EnergyReduction)
	s.MeanWaitSec.Merge(&o.MeanWaitSec)
	s.LossRate.Merge(&o.LossRate)
	s.ResourceWaitSec.Merge(&o.ResourceWaitSec)
	s.ResourceDrops += o.ResourceDrops
	s.BudgetDenied += o.BudgetDenied
	s.DowntimeSec.Merge(&o.DowntimeSec)
	s.EnergyOutageJ += o.EnergyOutageJ
	s.Crashes += o.Crashes
	s.Retries += o.Retries
	s.RetryExhausted += o.RetryExhausted
	s.LostToOutage += o.LostToOutage
	if len(s.Classes) == 0 {
		s.Classes = make([]ClassStats, len(o.Classes))
	}
	for i := range o.Classes {
		s.Classes[i].merge(&o.Classes[i])
	}
	switch {
	case o.WaitSketch == nil:
	case s.WaitSketch == nil:
		s.WaitSketch = o.WaitSketch.Clone()
	default:
		s.WaitSketch.Merge(o.WaitSketch)
	}
	if o.Waits != nil {
		s.Waits = append(s.Waits, o.Waits...)
	}
}

// WaitQuantile returns the q-quantile of per-instance mean waits in
// seconds: the exact order statistic when the run kept the per-instance
// vector (QuantilesExact), otherwise the sketch estimate, within
// relative error WaitSketchAccuracy of the exact value.
func (s *Summary) WaitQuantile(q float64) (float64, error) {
	if s.Waits != nil {
		return stats.Quantile(s.Waits, q)
	}
	return s.WaitSketch.Quantile(q)
}

// Availability returns the mean fraction of the horizon instances were
// up, fleet-wide (1 on a fault-free run).
func (s *Summary) Availability() float64 {
	if s.HorizonSec == 0 {
		return 1
	}
	return 1 - s.DowntimeSec.Mean()/s.HorizonSec
}

// LossOverall returns the fleet-total loss fraction (lost/arrived over
// raw counts, not the mean of per-instance rates).
func (s *Summary) LossOverall() float64 {
	if s.Arrived == 0 {
		return 0
	}
	return float64(s.Lost) / float64(s.Arrived)
}

// AvgFleetPowerW returns the fleet-total mean power draw in watts
// (total energy over total device-seconds).
func (s *Summary) AvgFleetPowerW() float64 {
	if s.Devices == 0 || s.HorizonSec == 0 {
		return 0
	}
	return s.EnergyJ / (float64(s.Devices) * s.HorizonSec)
}

// PerPolicy rolls the class aggregates up by policy label, in
// first-seen class order — the per-policy breakdown of the fleet
// report. The rollup merges multi-sample accumulators in class-index
// order, so it is deterministic (same bits every call).
func (s *Summary) PerPolicy() []ClassStats {
	var out []ClassStats
	idx := make(map[string]int)
	for ci := range s.Classes {
		c := &s.Classes[ci]
		j, ok := idx[c.Policy]
		if !ok {
			j = len(out)
			idx[c.Policy] = j
			out = append(out, ClassStats{Name: c.Policy, Policy: c.Policy})
		}
		out[j].merge(c)
	}
	return out
}

// String summarizes the fleet in one line.
func (s *Summary) String() string {
	return fmt.Sprintf("fleet(%d devices, ct, %.0f s, %.4f W avg, %.2f%% loss)",
		s.Devices, s.HorizonSec, s.AvgPowerW.Mean(), 100*s.LossOverall())
}
