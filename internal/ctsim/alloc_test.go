package ctsim_test

import (
	"testing"

	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/rng"
)

// TestMetricsSnapshotsDoNotAlias pins the snapshot contract: consecutive
// Metrics calls own independent StateTime slices — mutating one snapshot
// perturbs neither the other nor the simulator's own accumulator.
// Regression for the append([]float64(nil), ...) era, when a snapshot was
// fresh by construction; the reuse path must not reintroduce sharing.
func TestMetricsSnapshotsDoNotAlias(t *testing.T) {
	psm := device.Synthetic3()
	pol, err := ctsim.NewTimeout(psm, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := ctsim.New(ctsim.Config{
		Device: psm, QueueCap: 8, Policy: pol,
		Source: expSource(t, 0.4), Stream: rng.New(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(500); err != nil {
		t.Fatal(err)
	}
	a := sim.Metrics()
	b := sim.Metrics()
	if &a.StateTime[0] == &b.StateTime[0] {
		t.Fatal("consecutive snapshots share a StateTime backing array")
	}
	orig := b.StateTime[0]
	a.StateTime[0] = -1e9
	if b.StateTime[0] != orig {
		t.Fatal("mutating one snapshot changed the other")
	}
	if err := sim.Run(600); err != nil {
		t.Fatal(err)
	}
	c := sim.Metrics()
	if c.StateTime[0] < 0 {
		t.Fatal("mutating a snapshot corrupted the simulator's accumulator")
	}
}

// TestResetMatchesFresh: a Reset simulator must reproduce a fresh New
// simulator bit for bit — this is what licenses per-worker Sim reuse in
// the experiment layer's replica grids.
func TestResetMatchesFresh(t *testing.T) {
	psm := device.Synthetic3()
	cfg := func(t *testing.T, seed uint64) ctsim.Config {
		pol, err := ctsim.NewTimeout(psm, 3)
		if err != nil {
			t.Fatal(err)
		}
		return ctsim.Config{
			Device: psm, QueueCap: 8, LatencyWeight: 0.6, Policy: pol,
			Source: expSource(t, 0.25), Stream: rng.New(seed),
		}
	}
	fresh := func(seed uint64) ctsim.Metrics {
		sim, err := ctsim.New(cfg(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(3000); err != nil {
			t.Fatal(err)
		}
		return sim.Metrics()
	}
	// One reused Sim runs the same replica sequence.
	sim, err := ctsim.New(cfg(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{7, 8, 7} {
		if err := sim.Reset(cfg(t, seed)); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(3000); err != nil {
			t.Fatal(err)
		}
		got, want := sim.Metrics(), fresh(seed)
		if got.EnergyJ != want.EnergyJ || got.Served != want.Served ||
			got.Arrived != want.Arrived || got.Lost != want.Lost ||
			got.BacklogSeconds != want.BacklogSeconds || got.Commands != want.Commands ||
			got.Decisions != want.Decisions || got.WaitSeconds != want.WaitSeconds {
			t.Fatalf("seed %d: reused sim diverged from fresh:\n got %+v\nwant %+v", seed, got, want)
		}
		for i := range want.StateTime {
			if got.StateTime[i] != want.StateTime[i] {
				t.Fatalf("seed %d: StateTime[%d] = %v, want %v", seed, i, got.StateTime[i], want.StateTime[i])
			}
		}
	}
}

// TestCTHotPathAllocationFree is the continuous-time analog of core's
// slotted-path gate: after warm-up (arena grown to its standing event
// population, queue ring sized), the event loop — arrivals, service,
// transitions, governor ticks, wake timers — performs no heap
// allocations. This is the allocation-regression gate CI relies on.
func TestCTHotPathAllocationFree(t *testing.T) {
	psm := device.Synthetic3()
	for _, tc := range []struct {
		name   string
		period float64 // 0 = event-driven
		policy func(t *testing.T) ctsim.Policy
	}{
		{"governor", 0.5, func(*testing.T) ctsim.Policy {
			return ctsim.Adapt(benchTimeout{deep: device.StateID(psm.NumStates() - 1), slots: 8}, 0.5)
		}},
		// The learner case runs the feedback path too: emitFeedback,
		// openEpoch and the adapter's quantization into its feedback
		// record, where an observation escaping to the heap would show.
		{"governor-learner", 0.5, func(t *testing.T) ctsim.Policy {
			return adaptedQDPM(t, psm, 0.5, 8, 0.6, rng.New(5))
		}},
		{"event-driven", 0, func(t *testing.T) ctsim.Policy {
			pol, err := ctsim.NewTimeout(psm, 4)
			if err != nil {
				t.Fatal(err)
			}
			return pol
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ctsim.Config{
				Device: psm, QueueCap: 8, LatencyWeight: 0.6,
				Source: expSource(t, 1.5), Stream: rng.New(4),
				DecisionPeriod: tc.period, Policy: tc.policy(t),
			}
			sim, err := ctsim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(2000); err != nil { // warm up
				t.Fatal(err)
			}
			horizon := 2000.0
			avg := testing.AllocsPerRun(10, func() {
				horizon += 500
				if err := sim.Run(horizon); err != nil {
					t.Fatal(err)
				}
				sim.MetricsView()
			})
			if avg > 0 {
				t.Errorf("%s event loop allocates: %.1f allocs per 500 simulated seconds, want 0", tc.name, avg)
			}
		})
	}
}
