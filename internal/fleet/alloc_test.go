package fleet

import (
	"context"
	"testing"

	"repro/internal/ctsim"
)

// warmScratch returns a worker scratch that has already run every class
// of r's mix once, so pooled policies, sources, simulators, and ring
// buffers exist at their high-water marks — the steady state a
// long-lived fleet worker operates in.
func warmScratch(t testing.TB, r *runner, sum *Summary) *workerScratch {
	t.Helper()
	ws := &workerScratch{}
	ctx := context.Background()
	for i := 0; i < len(r.pattern); i++ {
		if err := runInstance(ctx, r, i, ws, sum); err != nil {
			t.Fatal(err)
		}
	}
	return ws
}

// runInstance runs instance i on the worker's pooled objects through the
// production per-instance path — a one-lane runGroupCT, which folds the
// instance into sum as runShard does.
func runInstance(ctx context.Context, r *runner, i int, ws *workerScratch, sum *Summary) error {
	return r.runGroupCT(ctx, i, i+1, ws, sum)
}

// TestFleetInstanceSetupAllocationFree is the acceptance gate for the
// zero-allocation instance lifecycle: once a worker's pooled object set
// is warm, running a complete fleet instance — stream reseed, policy and
// source reset, simulator Reset, full horizon, metrics fold — performs
// zero heap allocations, for every class of the default mix (the Q-DPM
// learner included). Part of the CI allocation-regression step
// (AllocationFree name match).
func TestFleetInstanceSetupAllocationFree(t *testing.T) {
	// The subtest is named for the continuous-time (ct) kernel, the
	// fleet's one kernel.
	t.Run("ct", func(t *testing.T) {
		spec := Spec{Devices: 64, Classes: DefaultMix(), Horizon: 64, Seed: 3}
		r, err := newRunner(spec)
		if err != nil {
			t.Fatal(err)
		}
		sum := newSummary(r, 0)
		ws := warmScratch(t, r, sum)
		ctx := context.Background()
		i := 0
		allocs := testing.AllocsPerRun(16, func() {
			if err := runInstance(ctx, r, i%spec.Devices, ws, sum); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("instance lifecycle allocates %.1f times per instance after warm-up", allocs)
		}
	})
}

// TestFleetCTEventLoopAllocationFree is the fleet acceptance gate for
// the CT hot path: for every class of the default mix — fixed timeout,
// greedy-off, and the adapted Q-DPM learner included — the steady-state
// event loop of a fleet instance performs zero heap allocations. The
// simulator is prepared exactly the way runGroupCT prepares a lane (same
// pooled objects, same cached config, same stream layout), on a private
// kernel so the test can drive it chunk by chunk. Part of the CI
// allocation-regression step (AllocationFree name match).
func TestFleetCTEventLoopAllocationFree(t *testing.T) {
	spec := Spec{Devices: 8, Classes: DefaultMix(), Horizon: 1e9, Seed: 3}
	r, err := newRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range r.classes {
		// The pattern interleaves classes; instance index ci of the first
		// weight cycle may not hit class ci, so search for one that does.
		inst := -1
		for i := 0; i < len(r.pattern); i++ {
			if r.classOf(i) == ci {
				inst = i
				break
			}
		}
		t.Run(r.classes[ci].name, func(t *testing.T) {
			var ln lane
			cs, err := ln.start(r, inst, nil)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := ctsim.New(cs.cfg)
			if err != nil {
				t.Fatal(err)
			}
			until := 2048.0
			if err := sim.Run(until); err != nil { // warm: ring growth, learner tables
				t.Fatal(err)
			}
			sim.MetricsView()
			allocs := testing.AllocsPerRun(20, func() {
				until += 256
				if err := sim.Run(until); err != nil {
					t.Fatal(err)
				}
				sim.MetricsView()
			})
			if allocs != 0 {
				t.Fatalf("steady-state fleet CT loop allocates %.1f times per 256 s chunk", allocs)
			}
		})
	}
}

// TestFleetShardLoopAllocationFree is the acceptance gate for pooled
// shard summaries: once a worker is warm and the summary pool holds a
// recycled part, a complete shard cycle — runShard over every instance,
// merge into the fleet total, return the part to the pool — performs
// zero heap allocations. This is what makes fleet allocations scale
// with classes (and the in-flight merge window), not with the number of
// shards run. Part of the CI allocation-regression step (AllocationFree
// name match).
func TestFleetShardLoopAllocationFree(t *testing.T) {
	// The subtest is named for the continuous-time (ct) kernel, the
	// fleet's one kernel.
	t.Run("ct", func(t *testing.T) {
		spec := Spec{Devices: 64, Classes: DefaultMix(), Horizon: 64, ShardSize: 64, Seed: 3}
		r, err := newRunner(spec)
		if err != nil {
			t.Fatal(err)
		}
		total := newSummary(r, 0)
		ws := warmScratch(t, r, total)
		ctx := context.Background()
		cycle := func() {
			part, err := r.runShard(ctx, 0, ws)
			if err != nil {
				t.Fatal(err)
			}
			total.Merge(part)
			r.putSummary(part)
		}
		cycle() // warm: pooled part, total's sketch bins
		allocs := testing.AllocsPerRun(16, cycle)
		if allocs != 0 {
			t.Fatalf("shard loop allocates %.1f times per shard after warm-up", allocs)
		}
	})
}

// TestFleetFaultedShardAllocationFree extends the shard-loop gate to
// the fault layer: with crash/retry faults enabled — and, in the
// coupled variants, scheduled outage windows driving the shared
// resource — a warm shard cycle still performs zero heap allocations.
// Crashes, retries, backoff holds, and outage toggles all recycle
// pooled kernel events and scratch state. Part of the CI
// allocation-regression step (AllocationFree name match).
func TestFleetFaultedShardAllocationFree(t *testing.T) {
	for _, couple := range []CoupleMode{CoupleNone, CoupleChannel, CoupleGateway, CouplePower} {
		name := string(couple)
		if couple == CoupleNone {
			name = "uncoupled"
		}
		t.Run(name, func(t *testing.T) {
			spec := Spec{
				Devices: 40, Classes: DefaultMix(),
				Horizon: 64, ShardSize: 40, Seed: 3,
				Faults: &FaultSpec{CrashMTBF: 30, RepairMean: 4, FailProb: 0.1},
			}
			if couple != CoupleNone {
				spec.Couple = couple
				spec.CoupleSize = 8
				spec.Faults.OutagePeriod = 20
				spec.Faults.OutageDuration = 3
			}
			r, err := newRunner(spec)
			if err != nil {
				t.Fatal(err)
			}
			total := newSummary(r, 0)
			ws := &workerScratch{}
			ctx := context.Background()
			cycle := func() {
				part, err := r.runShard(ctx, 0, ws)
				if err != nil {
					t.Fatal(err)
				}
				total.Merge(part)
				r.putSummary(part)
			}
			cycle() // warm: lanes/pools at high-water marks
			allocs := testing.AllocsPerRun(16, cycle)
			if allocs != 0 {
				t.Fatalf("%s faulted shard loop allocates %.1f times per shard after warm-up", name, allocs)
			}
			if total.Crashes == 0 || total.Retries == 0 {
				t.Fatalf("faulted alloc gate injected nothing: crashes=%d retries=%d", total.Crashes, total.Retries)
			}
		})
	}
}

// BenchmarkFleetInstanceCT measures one full fleet CT instance through
// the worker reuse path (reseed, reset, run, MetricsView), reporting
// ns/event. One op = one instance at a 512 s horizon.
func BenchmarkFleetInstanceCT(b *testing.B) {
	spec := Spec{Devices: 64, Classes: DefaultMix(), Horizon: 512, Seed: 5}
	r, err := newRunner(spec)
	if err != nil {
		b.Fatal(err)
	}
	var ws workerScratch
	sum := newSummary(r, 1)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runInstance(ctx, r, i%spec.Devices, &ws, sum); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if sum.Events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sum.Events), "ns/event")
		b.ReportMetric(float64(sum.Events)/float64(b.N), "events/op")
	}
}
