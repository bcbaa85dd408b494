package fleet

import (
	"fmt"

	"repro/internal/ctsim"
	"repro/internal/stats"
)

// ClassStats aggregates the results of one class (or one policy rollup)
// of a fleet, or the replicas of one continuous-time experiment cell.
// Each Running pools one sample per instance or per replica.
type ClassStats struct {
	// Name labels the group (a Class label or a policy name).
	Name string
	// Policy is the group's policy label (for per-policy rollups it
	// equals Name).
	Policy string
	// Instances is the number of pooled instances (or replicas).
	Instances int64
	// AvgPowerW, EnergyReduction, MeanWaitSec, LossRate, and MeanBacklog
	// pool per-instance values; EnergyReduction is relative to each
	// class's always-on power.
	AvgPowerW       stats.Running
	EnergyReduction stats.Running
	MeanWaitSec     stats.Running
	LossRate        stats.Running
	MeanBacklog     stats.Running
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

// Merge folds another group (same identity) into c.
func (c *ClassStats) Merge(o *ClassStats) {
	if c.Name == "" {
		c.Name, c.Policy = o.Name, o.Policy
	}
	c.Instances += o.Instances
	c.AvgPowerW.Merge(&o.AvgPowerW)
	c.EnergyReduction.Merge(&o.EnergyReduction)
	c.MeanWaitSec.Merge(&o.MeanWaitSec)
	c.LossRate.Merge(&o.LossRate)
	c.MeanBacklog.Merge(&o.MeanBacklog)
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

// Add folds one instance's (or replica's) metrics into c; maxPowerW is
// the device's always-on power, the reference for EnergyReduction.
func (c *ClassStats) Add(m *ctsim.Metrics, maxPowerW float64) {
	avgPower := m.AvgPowerW()
	c.Instances++
	c.AvgPowerW.Add(avgPower)
	c.EnergyReduction.Add(1 - avgPower/maxPowerW)
	c.MeanWaitSec.Add(m.MeanWaitSeconds())
	c.LossRate.Add(m.LossRate())
	c.MeanBacklog.Add(m.MeanBacklog())
	c.ResourceWaitSec.Add(m.ResourceWaitSec)
	c.ResourceDrops += m.ResourceDrops
	c.BudgetDenied += m.BudgetDenied
	c.DowntimeSec.Add(m.DowntimeSec)
	c.EnergyOutageJ += m.EnergyOutageJ
	c.Crashes += m.Crashes
	c.Retries += m.Retries
	c.RetryExhausted += m.RetryExhausted
	c.LostToOutage += m.LostToOutage
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
	// ClassStats is the fleet-wide aggregate: every instance folds into
	// it exactly as into its class's entry of Classes, so its pooled
	// metrics and counters (AvgPowerW … LostToOutage) read as fleet-wide
	// values. Its Name and Policy are empty.
	ClassStats
	// Devices is the number of simulated instances (always equal to
	// Instances); Shards is the number of pool jobs they were sharded
	// into (0 on a shard-local summary).
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
	s := &Summary{Classes: make([]ClassStats, len(r.classes)), WaitSketch: sk}
	s.reset(r, n)
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
	classes, sk, waits := s.Classes, s.WaitSketch, s.Waits
	*s = Summary{
		HorizonSec: r.spec.Horizon,
		Couple:     r.spec.Couple,
		CoupleSize: r.spec.CoupleSize,
		Faulted:    r.spec.Faults != nil,
		Classes:    classes,
		WaitSketch: sk,
	}
	for ci := range classes {
		classes[ci] = ClassStats{Name: r.classes[ci].name, Policy: r.classes[ci].src.Policy}
	}
	sk.Reset()
	if r.spec.Quantiles == QuantilesExact {
		// A nil Waits reads as sketch mode, so even n == 0 gets a buffer.
		if waits == nil || cap(waits) < n {
			waits = make([]float64, 0, n)
		}
		s.Waits = waits[:0]
	}
}

// Add folds one instance of class ci into the summary: the fleet
// totals, the fleet-wide and per-class aggregates, and the wait
// quantiles. m may be a ctsim.MetricsView; Add copies what it keeps.
// It shadows the embedded ClassStats.Add, which would fold into the
// fleet-wide aggregate alone.
func (s *Summary) Add(ci int, m *ctsim.Metrics, maxPowerW float64) {
	s.Devices++
	s.EnergyJ += m.EnergyJ
	s.Arrived += m.Arrived
	s.Served += m.Served
	s.Lost += m.Lost
	s.ClassStats.Add(m, maxPowerW)
	s.Classes[ci].Add(m, maxPowerW)
	wait := m.MeanWaitSeconds()
	s.WaitSketch.Add(wait)
	if s.Waits != nil {
		s.Waits = append(s.Waits, wait)
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
	s.ClassStats.Merge(&o.ClassStats)
	if len(s.Classes) == 0 {
		s.Classes = make([]ClassStats, len(o.Classes))
	}
	for i := range o.Classes {
		s.Classes[i].Merge(&o.Classes[i])
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
	return s.ClassStats.Availability(s.HorizonSec)
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
		out[j].Merge(c)
	}
	return out
}

// String summarizes the fleet in one line.
func (s *Summary) String() string {
	return fmt.Sprintf("fleet(%d devices, ct, %.0f s, %.4f W avg, %.2f%% loss)",
		s.Devices, s.HorizonSec, s.AvgPowerW.Mean(), 100*s.LossOverall())
}
