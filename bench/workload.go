package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/stats"
)

// The four workloads. Each one is a round of work that a run repeats
// until its time budget is spent; README.md says why each exists.
const (
	fleetSteady   = "fleet_steady"
	fleetTurnover = "fleet_turnover"
	fleetCoupled  = "fleet_coupled_faulted"
	paperFig2     = "paper_nonstationary"
)

var workloadNames = []string{fleetSteady, fleetTurnover, fleetCoupled, paperFig2}

// workers pins both GOMAXPROCS and the engine pool. One thread measures
// the code's own cost: with two, a round on a shared host also waits on
// the host's scheduling of the second CPU, and a reference kernel timed
// on one thread between rounds no longer tracks the round's slowdowns.
const workers = 1

// testScale divides every workload size for the warm-up pass and the
// package tests: large enough to reach every code path, small enough to
// take milliseconds.
const testScale = 200

// faultSpec is the fleet_coupled_faulted fault mix, in qdpm-fleet -faults
// syntax.
const faultSpec = "mtbf=150,repair=10,fail=0.05,outage=60/5"

// referenceDigests holds each workload's round digest at seed 1 and full
// scale. A run at seed 1 that digests differently has changed the
// simulated output, and counts that round as a failed operation.
var referenceDigests = map[string]string{
	fleetSteady:   "107a71de9a4e42c9",
	fleetTurnover: "2669de9487fe2961",
	fleetCoupled:  "5c754f42fa8ca173",
	paperFig2:     "095c9be659a65e28",
}

// task is one workload at one scale, built from the seed: exactly one of
// fleet and paper is set. ref is the digest every round must reproduce,
// when one is recorded for the seed and scale.
type task struct {
	name  string
	ref   string
	fleet *fleet.Spec
	paper *paperTask
}

// paperTask is the Fig. 2 comparison: every factory runs one replica per
// seed on the piecewise-stationary scenario.
type paperTask struct {
	scenario  experiment.Scenario
	factories []experiment.PolicyFactory
	seeds     []uint64
}

// newTask builds workload name from seed, with every size divided by
// div (1 for a measured round).
func newTask(name string, seed uint64, div int) (*task, error) {
	var t *task
	var err error
	switch name {
	case fleetSteady:
		t, err = newFleetTask(name, fleet.Spec{Devices: 2000 / div, Horizon: 400, Seed: seed})
	case fleetTurnover:
		t, err = newFleetTask(name, fleet.Spec{Devices: 160000 / div, Horizon: 4, Seed: seed})
	case fleetCoupled:
		var f *fleet.FaultSpec
		if f, err = fleet.ParseFaults(faultSpec); err == nil {
			t, err = newFleetTask(name, fleet.Spec{
				Devices: 1600 / div, Horizon: 400, Seed: seed,
				Couple: fleet.CoupleChannel, CoupleSize: 8, Faults: f,
			})
		}
	case paperFig2:
		t, err = newPaperTask(seed, 250000/int64(div), 2)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	if seed == 1 && div == 1 {
		t.ref = referenceDigests[name]
	}
	return t, nil
}

func newFleetTask(name string, sp fleet.Spec) (*task, error) {
	sp.Classes = fleet.DefaultMix()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &task{name: name, fleet: &sp}, nil
}

// newPaperTask builds the Fig. 2 schedule with segmentSlots per rate and
// nseeds replicas per policy: Q-DPM in its tracking configuration against
// the adaptive model-based LP pipeline.
func newPaperTask(seed uint64, segmentSlots int64, nseeds int) (*task, error) {
	cfg := experiment.DefaultFig2()
	cfg.SegmentSlots = segmentSlots
	sc, _, err := experiment.Fig2Scenario(cfg)
	if err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &task{name: paperFig2, paper: &paperTask{
		scenario: sc,
		factories: []experiment.PolicyFactory{
			experiment.QDPMTrackingFactory(sc.Device),
			experiment.AdaptiveLPFactory(sc.Device, cfg.Rates[0], cfg.OptimizeLatencySlots),
		},
		seeds: engine.DeriveSeeds(seed, nseeds),
	}}, nil
}

// round is the outcome of one pass over a task.
type round struct {
	// events counts simulated events: kernel events fired on a fleet, slots
	// on the paper workload.
	events uint64
	// jobs and failedJobs count engine jobs: fleet shards or replicas.
	jobs, failedJobs int
	digest           string
	// books is nil when the run's request and time accounting balance.
	books error
	// devices is the fleet size (0 on the paper workload).
	devices int64
}

// runRound executes one pass of t on pool. A fleet that loses shards
// still returns its surviving summary, with the losses in failedJobs; any
// other error is fatal.
func runRound(ctx context.Context, t *task, pool *engine.Pool) (round, error) {
	if t.fleet != nil {
		sp := *t.fleet
		r := round{jobs: sp.Shards()}
		sum, err := fleet.Run(ctx, sp, pool)
		var pe *fleet.PartialError
		switch {
		case errors.As(err, &pe):
			r.failedJobs = len(pe.Failed)
		case err != nil:
			return r, err
		}
		r.events, r.devices = sum.Events, sum.Devices
		r.digest = fleetDigest(sum)
		r.books = fleetBooks(sum, &sp)
		return r, nil
	}
	sums, err := runPaper(ctx, t.paper.factories, t.paper.scenario, t.paper.seeds,
		experiment.Parallel{Workers: pool.Workers, Progress: pool.Progress})
	if err != nil {
		return round{}, err
	}
	n := len(t.paper.seeds) * len(t.paper.factories)
	return round{
		events: uint64(n) * uint64(t.paper.scenario.Slots),
		jobs:   n,
		digest: paperDigest(sums),
		books:  paperBooks(sums, len(t.paper.seeds)),
	}, nil
}

// runPaper runs every factory over seeds on sc, one replicated run per
// factory, in factory order.
func runPaper(ctx context.Context, pfs []experiment.PolicyFactory, sc experiment.Scenario,
	seeds []uint64, par experiment.Parallel) ([]*experiment.Summary, error) {
	out := make([]*experiment.Summary, 0, len(pfs))
	for _, pf := range pfs {
		s, err := experiment.RunReplicatedCtx(ctx, sc, pf, seeds, par)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pf.Name, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// digester folds values into a 64-bit FNV-1a hash, floats by their bits.
type digester struct{ h hash.Hash64 }

func newDigester() digester { return digester{fnv.New64a()} }

func (d digester) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digester) i64(v int64)   { d.u64(uint64(v)) }
func (d digester) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d digester) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d digester) running(r *stats.Running) {
	d.i64(r.N())
	d.f64(r.Mean())
	d.f64(r.Var())
	d.f64(r.Min())
	d.f64(r.Max())
}

func (d digester) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// fleetDigest hashes a fleet summary's integer totals, the float bits of
// every per-class pooled aggregate, and the sketch's p50 and p99.
func fleetDigest(s *fleet.Summary) string {
	d := newDigester()
	for _, v := range []int64{s.Devices, s.Arrived, s.Served, s.Lost, int64(s.Events),
		s.ResourceDrops, s.BudgetDenied, s.Crashes, s.Retries, s.RetryExhausted, s.LostToOutage} {
		d.i64(v)
	}
	d.f64(s.EnergyJ)
	for i := range s.Classes {
		c := &s.Classes[i]
		d.str(c.Name)
		d.i64(c.Instances)
		for _, r := range []*stats.Running{&c.AvgPowerW, &c.EnergyReduction, &c.MeanWaitSec,
			&c.LossRate, &c.ResourceWaitSec, &c.DowntimeSec} {
			d.running(r)
		}
	}
	for _, q := range []float64{0.5, 0.99} {
		v, err := s.WaitQuantile(q)
		if err != nil {
			v = math.NaN()
		}
		d.f64(v)
	}
	return d.sum()
}

// paperDigest hashes every policy's pooled replica summary.
func paperDigest(sums []*experiment.Summary) string {
	d := newDigester()
	for _, s := range sums {
		d.str(s.Policy)
		d.i64(int64(s.Replicas))
		for _, r := range []*stats.Running{&s.AvgPowerW, &s.AvgCost, &s.MeanWaitSlots, &s.LossRate, &s.EnergyReduction} {
			d.running(r)
		}
	}
	return d.sum()
}

// fleetBooks checks the accounting any seed must satisfy: no request is
// served or lost twice, no more requests remain queued than the queues
// hold, and availability is a fraction.
func fleetBooks(s *fleet.Summary, sp *fleet.Spec) error {
	switch {
	case s.Devices != int64(sp.Devices):
		return fmt.Errorf("summary holds %d devices, spec %d", s.Devices, sp.Devices)
	case s.Served+s.Lost > s.Arrived:
		return fmt.Errorf("served %d + lost %d exceed arrived %d", s.Served, s.Lost, s.Arrived)
	case s.Arrived-s.Served-s.Lost > s.Devices*int64(sp.QueueCap):
		return fmt.Errorf("backlog %d exceeds %d devices x queue cap %d", s.Arrived-s.Served-s.Lost, s.Devices, sp.QueueCap)
	case !(s.Availability() >= 0 && s.Availability() <= 1):
		return fmt.Errorf("availability %v outside [0, 1]", s.Availability())
	}
	return nil
}

// paperBooks checks that every policy pooled one replica per seed and
// that its rates are fractions.
func paperBooks(sums []*experiment.Summary, seeds int) error {
	for _, s := range sums {
		switch {
		case s.Replicas != seeds:
			return fmt.Errorf("%s pooled %d replicas, want %d", s.Policy, s.Replicas, seeds)
		case !(s.LossRate.Min() >= 0 && s.LossRate.Max() <= 1):
			return fmt.Errorf("%s loss rate outside [0, 1]", s.Policy)
		case !(s.AvgPowerW.Min() > 0 && s.EnergyReduction.Max() <= 1):
			return fmt.Errorf("%s power %v or energy reduction %v out of range", s.Policy, s.AvgPowerW.Min(), s.EnergyReduction.Max())
		}
	}
	return nil
}
