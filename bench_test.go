// Package repro's top-level benchmarks regenerate (in miniature) every
// figure and table of the Q-DPM reproduction, one benchmark per artifact,
// plus the micro-benchmarks behind Table R1. Run with:
//
//	go test -bench=. -benchmem
//
// Full-size regenerations (paper-scale run lengths, all seeds) are done by
// cmd/qdpm-bench; these benchmarks use shortened runs so the suite stays
// minutes-scale while still exercising the identical code paths.
package repro_test

import (
	"context"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/mdp"
	"repro/internal/qlearn"
	"repro/internal/rng"
	"repro/internal/stochpm"
	"repro/internal/workload"
)

// BenchmarkFig1Convergence regenerates the Fig. 1 series (stationary
// convergence of Q-DPM onto the analytically optimal policy).
func BenchmarkFig1Convergence(b *testing.B) {
	cfg := experiment.Fig1Config{
		ArrivalP: 0.1,
		Slots:    60000,
		Window:   3000,
		Stride:   2000,
		Seeds:    []uint64{101},
	}
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Fig1Ctx(context.Background(), cfg, experiment.Parallel{})
		if err != nil {
			b.Fatal(err)
		}
		if err := fig.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2RapidResponse regenerates the Fig. 2 series (piecewise-
// stationary input, Q-DPM vs the model-based adaptive pipeline).
func BenchmarkFig2RapidResponse(b *testing.B) {
	cfg := experiment.Fig2Config{
		Rates:                []float64{0.02, 0.30},
		SegmentSlots:         20000,
		Window:               2500,
		Stride:               1000,
		Seeds:                []uint64{201},
		OptimizeLatencySlots: 1000,
	}
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Fig2Ctx(context.Background(), cfg, experiment.Parallel{})
		if err != nil {
			b.Fatal(err)
		}
		if err := fig.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableR1QStep is Table R1's first column: one Q-DPM decision +
// update — the technique's entire per-interval runtime.
func BenchmarkTableR1QStep(b *testing.B) {
	dev, err := experiment.CanonDevice()
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.New(core.Config{
		Device: dev, QueueCap: experiment.CanonQueueCap,
		LatencyWeight: experiment.CanonLatencyWeight,
		Stream:        rng.New(1),
	})
	if err != nil {
		b.Fatal(err)
	}
	agent := m.Agent()
	stream := rng.New(2)
	legal := []int{0, 1, 2}
	n := m.NumStates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % n
		a, _ := agent.SelectAction(s, legal, stream)
		agent.Update(s, a, -0.5, (s+1)%n, legal, 1, stream)
	}
}

// BenchmarkTableR1LPSolve is Table R1's LP column: one model-based policy
// re-optimization (the "extremely slow" step of the paper's anecdote).
func BenchmarkTableR1LPSolve(b *testing.B) {
	dev, err := experiment.CanonDevice()
	if err != nil {
		b.Fatal(err)
	}
	d, err := mdp.BuildDPM(mdp.DPMConfig{
		Device: dev, ArrivalP: 0.15,
		QueueCap:      experiment.CanonQueueCap,
		LatencyWeight: experiment.CanonLatencyWeight,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stochpm.SolveLP(d, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableR1RVISolve is Table R1's value-iteration column.
func BenchmarkTableR1RVISolve(b *testing.B) {
	dev, err := experiment.CanonDevice()
	if err != nil {
		b.Fatal(err)
	}
	d, err := mdp.BuildDPM(mdp.DPMConfig{
		Device: dev, ArrivalP: 0.15,
		QueueCap:      experiment.CanonQueueCap,
		LatencyWeight: experiment.CanonLatencyWeight,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.AverageCostRVI(1e-6, 500000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableR1ModelBuild measures constructing the explicit DTMDP the
// model-based pipeline must maintain (Q-DPM never builds it).
func BenchmarkTableR1ModelBuild(b *testing.B) {
	dev, err := experiment.CanonDevice()
	if err != nil {
		b.Fatal(err)
	}
	cfg := mdp.DPMConfig{
		Device: dev, ArrivalP: 0.15,
		QueueCap:      experiment.CanonQueueCap,
		LatencyWeight: experiment.CanonLatencyWeight,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mdp.BuildDPM(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableR2Row measures one Table R2 cell: a replicated stationary
// comparison run for one policy at one rate.
func BenchmarkTableR2Row(b *testing.B) {
	dev, err := experiment.CanonDevice()
	if err != nil {
		b.Fatal(err)
	}
	sc := experiment.Scenario{
		Name: "bench-r2", Device: dev,
		QueueCap:      experiment.CanonQueueCap,
		LatencyWeight: experiment.CanonLatencyWeight,
		Slots:         20000,
		Workload:      benchBernoulli(0.1),
	}
	pf := experiment.Factory("q-dpm", dev, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunReplicatedCtx(context.Background(), sc, pf, []uint64{1}, experiment.Parallel{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableR3Tracking measures one Table R3 row: the Fig. 2 scenario
// under the model-based adaptive pipeline (estimator + CUSUM + re-solve).
func BenchmarkTableR3Tracking(b *testing.B) {
	cfg := experiment.Fig2Config{
		Rates:                []float64{0.02, 0.30},
		SegmentSlots:         15000,
		Window:               2000,
		Stride:               1000,
		Seeds:                []uint64{31},
		OptimizeLatencySlots: 1000,
	}
	sc, _, err := experiment.Fig2Scenario(cfg)
	if err != nil {
		b.Fatal(err)
	}
	pf := experiment.AdaptiveLPFactory(sc.Device, 0.02, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunOneCtx(context.Background(), sc, pf, 31, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableR4Jitter measures one Table R4 cell: Q-DPM under
// continuously jittering parameters.
func BenchmarkTableR4Jitter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.TableR4Ctx(context.Background(), 0.15, 0.2, 2000, 20000, []uint64{41}, experiment.Parallel{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationVariant measures one ablation-grid cell (the SARSA
// variant on the Fig. 1 scenario).
func BenchmarkAblationVariant(b *testing.B) {
	specs := []experiment.AblationSpec{
		{Name: "sarsa", Mut: func(c *core.Config) { c.Rule = qlearn.SARSA }},
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.TableAblationsCtx(context.Background(), specs, 0.1, 20000, []uint64{51}, experiment.Parallel{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReplicatedScenario is the shared workload for the engine
// benchmarks: 8 Q-DPM replicas of 20k slots each.
func benchReplicatedScenario(b *testing.B) (experiment.Scenario, experiment.PolicyFactory, []uint64) {
	b.Helper()
	dev, err := experiment.CanonDevice()
	if err != nil {
		b.Fatal(err)
	}
	sc := experiment.Scenario{
		Name: "bench-replicated", Device: dev,
		QueueCap:      experiment.CanonQueueCap,
		LatencyWeight: experiment.CanonLatencyWeight,
		Slots:         20000,
		Workload:      benchBernoulli(0.1),
	}
	return sc, experiment.Factory("q-dpm", dev, 0), engine.DeriveSeeds(7, 8)
}

// BenchmarkRunReplicatedSerial pins the single-worker baseline: 8 Q-DPM
// replicas on one goroutine. BENCH_pr1.json records this next to the
// pooled variant so later PRs can track the parallel speedup.
func BenchmarkRunReplicatedSerial(b *testing.B) {
	sc, pf, seeds := benchReplicatedScenario(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunReplicatedCtx(context.Background(), sc, pf, seeds,
			experiment.Parallel{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunReplicatedPooled runs the same 8 replicas on a GOMAXPROCS
// worker pool. On an N-core host this should approach N× the serial
// throughput; the output is bit-identical either way.
func BenchmarkRunReplicatedPooled(b *testing.B) {
	sc, pf, seeds := benchReplicatedScenario(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunReplicatedCtx(context.Background(), sc, pf, seeds,
			experiment.Parallel{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQDPMReplicaSlots measures the per-slot cost of a full Q-DPM
// replica (decision + simulation + learning update): each op runs one
// fixed 20,000-slot replica of the registry's q-dpm, so the mix of
// memoized and computed learning rates is the same at every b.N. It
// reports ns/slot; the -benchmem numbers cover the replica's setup.
func BenchmarkQDPMReplicaSlots(b *testing.B) {
	const slots = 20000
	dev, err := experiment.CanonDevice()
	if err != nil {
		b.Fatal(err)
	}
	sc := experiment.Scenario{
		Name: "bench-slots", Device: dev,
		QueueCap:      experiment.CanonQueueCap,
		LatencyWeight: experiment.CanonLatencyWeight,
		Slots:         slots,
		Workload:      benchBernoulli(0.1),
	}
	pf := experiment.Factory("q-dpm", dev, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunOneCtx(context.Background(), sc, pf, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slots), "ns/slot")
}

// benchCTScenario is the shared continuous-time workload: Poisson
// arrivals on the synthetic 3-state device under the canonical 0.5 s
// governor, the Table CT cell shape.
func benchCTScenario(b *testing.B, horizon float64) (experiment.CTScenario, experiment.PolicyFactory) {
	b.Helper()
	psm := device.Synthetic3()
	dev, err := experiment.CanonDevice()
	if err != nil {
		b.Fatal(err)
	}
	sc := experiment.CTScenario{
		Name:          "bench-ct",
		Device:        psm,
		QueueCap:      experiment.CanonQueueCap,
		LatencyWeight: experiment.CanonLatencyWeight / experiment.CanonSlotSeconds,
		Horizon:       horizon,
		Period:        experiment.CanonSlotSeconds,
		Source: func() ctsim.Source {
			d, err := dist.NewExponential(0.2)
			if err != nil {
				panic(err)
			}
			src, err := ctsim.NewRenewalSource(d)
			if err != nil {
				panic(err)
			}
			return src
		},
	}
	return sc, experiment.Factory("timeout", dev, 8)
}

// BenchmarkCTReplicaTableCell measures one full Table CT replica through
// the experiment layer (policy build + adapter + ctsim run + metrics).
func BenchmarkCTReplicaTableCell(b *testing.B) {
	sc, pf := benchCTScenario(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunCTOneCtx(context.Background(), sc, pf, 31); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCTReplicatedPooled runs an 8-seed CT replication through the
// worker pool — the path where per-worker simulator reuse pays off. The
// pool is pinned to 4 workers, but that does not make allocs/op
// independent of the host: one simulator is built per worker that gets
// a job, and how many of the 4 do depends on scheduling and GOMAXPROCS.
// On a 2-vCPU host it read 152–153 allocs/op at -cpu 1 and 190–215 at
// -cpu 2 and 4, against a recorded baseline of 150 that the CI gate
// holds to within 10%.
func BenchmarkCTReplicatedPooled(b *testing.B) {
	sc, pf := benchCTScenario(b, 2048)
	seeds := engine.DeriveSeeds(9, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunCTReplicatedCtx(context.Background(), sc, pf, seeds,
			experiment.Parallel{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBernoulli returns a workload factory for a Bernoulli arrival
// process at rate p.
func benchBernoulli(p float64) func() workload.Arrivals {
	return func() workload.Arrivals {
		b, err := workload.NewBernoulli(p)
		if err != nil {
			panic(err)
		}
		return b
	}
}

// ---------------------------------------------------------------------------
// Fleet-scale benchmarks: the sharded multi-device layer at 1k–10k
// instances, reporting wall-clock throughput (devices/s) and the
// per-event cost of the whole stack (sharding + per-worker sim reuse +
// merge) alongside the standard ns/op.

// benchFleet runs one fleet of the given size per op and reports
// devices/s and ns/event. The pool is pinned to 4 workers so allocs/op
// (one reusable simulator per worker) is host-independent and the CI
// regression gate can compare it against the recorded baseline.
func benchFleet(b *testing.B, devices int, horizon float64) {
	benchFleetSpec(b, fleet.Spec{
		Devices: devices,
		Classes: fleet.DefaultMix(),
		Horizon: horizon,
		Seed:    11,
	})
}

func benchFleetSpec(b *testing.B, spec fleet.Spec) {
	devices := spec.Devices
	pool := &engine.Pool{Workers: 4}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		sum, err := fleet.Run(context.Background(), spec, pool)
		if err != nil {
			b.Fatal(err)
		}
		events = sum.Events
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(devices)/(perOp/1e9), "devices/s")
	if events > 0 {
		b.ReportMetric(perOp/float64(events), "ns/event")
		b.ReportMetric(float64(events), "events/op")
	}
}

// BenchmarkFleet1kCT: 1000 heterogeneous CT instances, 64 s horizon.
func BenchmarkFleet1kCT(b *testing.B) { benchFleet(b, 1000, 64) }

// BenchmarkFleet10kCT: the acceptance-scale fleet — 10,000 CT instances.
func BenchmarkFleet10kCT(b *testing.B) { benchFleet(b, 10000, 64) }

// BenchmarkFleet1MCT: the million-device acceptance scale at a short
// horizon, where per-instance turnover dominates — it tracks the
// zero-allocation instance lifecycle and the streamed O(workers) shard
// merge together. One op = one full million-device CT fleet; memory
// stays bounded because shard summaries fold as they complete and wait
// percentiles live in the mergeable sketch.
func BenchmarkFleet1MCT(b *testing.B) { benchFleet(b, 1_000_000, 4) }

// BenchmarkFleetCoupled10kCT: the acceptance-scale fleet with coupling
// on — groups of 8 share one kernel and contend for a single-occupancy
// channel. One op = one full coupled fleet; the delta against
// BenchmarkFleet10kCT is the whole cost of the shared-clock group loop
// (lane multiplexing + resource arbitration + interference accounting).
func BenchmarkFleetCoupled10kCT(b *testing.B) {
	benchFleetSpec(b, fleet.Spec{
		Devices:    10000,
		Classes:    fleet.DefaultMix(),
		Horizon:    64,
		Seed:       11,
		Couple:     fleet.CoupleChannel,
		CoupleSize: 8,
	})
}

// BenchmarkFleetCoupled1MCT: the flat-scaling contract extended to
// coupling — one million devices in groups of 8 on shared kernels, at
// the same short horizon as BenchmarkFleet1MCT. The BENCH ratio gate
// holds its ns/event within 1.20× of BenchmarkFleetCoupled10kCT: a
// coupled group's cost must be a pure function of the group, not of
// how many groups the fleet has.
func BenchmarkFleetCoupled1MCT(b *testing.B) {
	benchFleetSpec(b, fleet.Spec{
		Devices:    1_000_000,
		Classes:    fleet.DefaultMix(),
		Horizon:    4,
		Seed:       11,
		Couple:     fleet.CoupleChannel,
		CoupleSize: 8,
	})
}

// BenchmarkFleetFaulted10kCT: the acceptance-scale fleet under fault
// injection — crash/repair cycles plus transient retry/backoff at
// moderate severity. One op = one full faulted fleet; the delta against
// BenchmarkFleet10kCT is the whole cost of the fault layer (the crash
// schedule, retry holds, and resilience accounting), which must stay
// allocation-free and within the ns/event envelope.
func BenchmarkFleetFaulted10kCT(b *testing.B) {
	benchFleetSpec(b, fleet.Spec{
		Devices: 10000,
		Classes: fleet.DefaultMix(),
		Horizon: 64,
		Seed:    11,
		Faults: &fleet.FaultSpec{
			CrashMTBF:  150,
			RepairMean: 10,
			FailProb:   0.05,
		},
	})
}
