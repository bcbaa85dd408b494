package stochpm

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/mdp"
	"repro/internal/rng"
	"repro/internal/slotsim"
	"repro/internal/workload"
)

func buildDPM(t *testing.T, p float64) *mdp.DPM {
	t.Helper()
	dev, err := device.Synthetic3().Slot(0.5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mdp.BuildDPM(mdp.DPMConfig{Device: dev, ArrivalP: p, QueueCap: 6, LatencyWeight: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLPMatchesRVIGain(t *testing.T) {
	// The occupancy LP and relative value iteration solve the same
	// average-cost problem; their optimal gains must agree.
	for _, p := range []float64{0.05, 0.15, 0.35} {
		d := buildDPM(t, p)
		lpSol, err := SolveLP(d, nil)
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		rvi, err := d.AverageCostRVI(1e-9, 300000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lpSol.Gain-rvi.Gain) > 1e-5 {
			t.Errorf("p=%v: LP gain %v != RVI gain %v", p, lpSol.Gain, rvi.Gain)
		}
	}
}

func TestLPProbsAreDistributions(t *testing.T) {
	d := buildDPM(t, 0.2)
	sol, err := SolveLP(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for s, probs := range sol.Probs {
		if probs == nil {
			continue
		}
		seen++
		sum := 0.0
		for ai, pr := range probs {
			if pr < -1e-9 || pr > 1+1e-9 {
				t.Fatalf("state %d action %d prob %v", s, ai, pr)
			}
			sum += pr
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("state %d probs sum to %v", s, sum)
		}
	}
	if seen == 0 {
		t.Fatal("LP left every state unvisited")
	}
}

func TestConstrainedLPRespectsBound(t *testing.T) {
	d := buildDPM(t, 0.2)
	// Unconstrained energy-optimal would sleep forever; bound backlog.
	sol, err := SolveLP(d, &Constraint{MaxMeanBacklog: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if sol.MeanBacklog > 0.5+1e-6 {
		t.Errorf("mean backlog %v exceeds bound 0.5", sol.MeanBacklog)
	}
	// Tighter bound must not decrease energy.
	tight, err := SolveLP(d, &Constraint{MaxMeanBacklog: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if tight.MeanEnergy < sol.MeanEnergy-1e-9 {
		t.Errorf("tighter bound lowered energy: %v < %v", tight.MeanEnergy, sol.MeanEnergy)
	}
	if tight.MeanBacklog > 0.1+1e-6 {
		t.Errorf("tight solution backlog %v exceeds 0.1", tight.MeanBacklog)
	}
}

func TestConstrainedLPRejectsNegativeBound(t *testing.T) {
	d := buildDPM(t, 0.2)
	if _, err := SolveLP(d, &Constraint{MaxMeanBacklog: -1}); err == nil {
		t.Error("negative bound accepted")
	}
}

func TestSolveLPNilModel(t *testing.T) {
	if _, err := SolveLP(nil, nil); err == nil {
		t.Error("nil model accepted")
	}
}

func TestLPPolicySimulatedGainMatchesLP(t *testing.T) {
	// Integration: run the randomized LP policy in the simulator and
	// compare the measured average cost with the LP's predicted gain.
	p := 0.15
	d := buildDPM(t, p)
	sol, err := SolveLP(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := NewLPPolicy(d, sol, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	arr, _ := workload.NewBernoulli(p)
	sim, err := slotsim.New(slotsim.Config{
		Device:        d.Cfg.Device,
		Arrivals:      arr,
		QueueCap:      6,
		Policy:        pol,
		Stream:        rng.New(12),
		LatencyWeight: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(400000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.AvgCost(); math.Abs(got-sol.Gain) > 0.02*sol.Gain+0.005 {
		t.Errorf("simulated avg cost %v vs LP gain %v", got, sol.Gain)
	}
}

func TestLPPolicyFallbackWakesOnBacklog(t *testing.T) {
	d := buildDPM(t, 0.2)
	sol, err := SolveLP(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Blank out all rows to force the fallback path.
	for s := range sol.Probs {
		sol.Probs[s] = nil
	}
	pol, _ := NewLPPolicy(d, sol, rng.New(13))
	got := pol.Decide(slotsim.Observation{Phase: 2, Queue: 3})
	if got != 0 {
		t.Errorf("fallback with backlog chose %d, want wake (0)", got)
	}
	got = pol.Decide(slotsim.Observation{Phase: 2, Queue: 0})
	if got != 2 {
		t.Errorf("fallback without backlog chose %d, want stay (2)", got)
	}
}

func TestLPPolicyClampsOverfullQueue(t *testing.T) {
	d := buildDPM(t, 0.2)
	sol, err := SolveLP(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	pol, _ := NewLPPolicy(d, sol, rng.New(14))
	// Queue beyond the modelled cap must not panic.
	_ = pol.Decide(slotsim.Observation{Phase: 0, Queue: 99})
}

func TestNewLPPolicyValidation(t *testing.T) {
	d := buildDPM(t, 0.2)
	sol, _ := SolveLP(d, nil)
	if _, err := NewLPPolicy(nil, sol, rng.New(1)); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewLPPolicy(d, nil, rng.New(1)); err == nil {
		t.Error("nil solution accepted")
	}
	if _, err := NewLPPolicy(d, sol, nil); err == nil {
		t.Error("nil stream accepted")
	}
}

func TestAdaptiveValidation(t *testing.T) {
	dev, _ := device.Synthetic3().Slot(0.5)
	good := AdaptiveConfig{
		Device: dev, QueueCap: 6, LatencyWeight: 0.3,
		InitialRate: 0.1, Stream: rng.New(1),
	}
	if _, err := NewAdaptive(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(AdaptiveConfig) AdaptiveConfig{
		func(c AdaptiveConfig) AdaptiveConfig { c.Device = nil; return c },
		func(c AdaptiveConfig) AdaptiveConfig { c.Stream = nil; return c },
		func(c AdaptiveConfig) AdaptiveConfig { c.InitialRate = -1; return c },
		func(c AdaptiveConfig) AdaptiveConfig { c.InitialRate = 2; return c },
		func(c AdaptiveConfig) AdaptiveConfig { c.OptimizeLatencySlots = -1; return c },
	}
	for i, mut := range bad {
		if _, err := NewAdaptive(mut(good)); err == nil {
			t.Errorf("bad adaptive config %d accepted", i)
		}
	}
	// QueueCap 0 is invalid for the model; surfaced from BuildDPM.
	c := good
	c.QueueCap = 0
	if _, err := NewAdaptive(c); err == nil {
		t.Error("queue cap 0 accepted")
	}
}

func TestAdaptiveResolvesOnShift(t *testing.T) {
	dev, _ := device.Synthetic3().Slot(0.5)
	a, err := NewAdaptive(AdaptiveConfig{
		Device: dev, QueueCap: 6, LatencyWeight: 0.3,
		InitialRate: 0.05, Stream: rng.New(21),
	})
	if err != nil {
		t.Fatal(err)
	}
	seg1, _ := workload.NewBernoulli(0.05)
	seg2, _ := workload.NewBernoulli(0.5)
	pw, _ := workload.NewPiecewise([]workload.Segment{
		{Slots: 5000, Proc: seg1},
		{Slots: 5000, Proc: seg2},
	})
	sim, err := slotsim.New(slotsim.Config{
		Device: dev, Arrivals: pw, QueueCap: 6,
		Policy: a, Stream: rng.New(22), LatencyWeight: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(10000, nil); err != nil {
		t.Fatal(err)
	}
	if a.Resolves < 2 {
		t.Errorf("adaptive never re-solved after the λ shift (resolves=%d)", a.Resolves)
	}
	if a.AlarmCount < 1 {
		t.Errorf("detector never fired (alarms=%d)", a.AlarmCount)
	}
}

func TestAdaptiveOptimizeLatencyDelaysResolve(t *testing.T) {
	dev, _ := device.Synthetic3().Slot(0.5)
	mk := func(latency int, seed uint64) int64 {
		a, err := NewAdaptive(AdaptiveConfig{
			Device: dev, QueueCap: 6, LatencyWeight: 0.3,
			InitialRate:          0.05,
			OptimizeLatencySlots: latency, Stream: rng.New(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		seg1, _ := workload.NewBernoulli(0.05)
		seg2, _ := workload.NewBernoulli(0.5)
		pw, _ := workload.NewPiecewise([]workload.Segment{
			{Slots: 2000, Proc: seg1},
			{Slots: 3000, Proc: seg2},
		})
		sim, err := slotsim.New(slotsim.Config{
			Device: dev, Arrivals: pw, QueueCap: 6,
			Policy: a, Stream: rng.New(seed + 100), LatencyWeight: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(5000, nil)
		return a.Resolves
	}
	// Sanity: both configurations still resolve (latency only delays).
	if mk(0, 31) < 2 || mk(500, 31) < 2 {
		t.Error("adaptive with optimize latency failed to re-solve")
	}
}

func BenchmarkSolveLP(b *testing.B) {
	dev, _ := device.Synthetic3().Slot(0.5)
	d, err := mdp.BuildDPM(mdp.DPMConfig{Device: dev, ArrivalP: 0.15, QueueCap: 6, LatencyWeight: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveLP(d, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLPSweepWithFallbackContract sweeps the adaptive controller's whole
// clamp band. The contract: the occupancy LP must solve the overwhelming
// majority of instances directly (matching RVI's gain), and every residual
// numerically-degenerate instance must be covered by the RVI fallback.
func TestLPSweepWithFallbackContract(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	dev, _ := device.Synthetic3().Slot(0.5)
	lpFails := 0
	total := 0
	for p := 0.005; p <= 0.985; p += 0.02 {
		total++
		d, err := mdp.BuildDPM(mdp.DPMConfig{Device: dev, ArrivalP: p, QueueCap: 6, LatencyWeight: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		rvi, err := d.AverageCostRVI(1e-8, 400000)
		if err != nil {
			t.Fatalf("p=%v: RVI failed: %v", p, err)
		}
		sol, err := SolveLP(d, nil)
		if err != nil {
			lpFails++
			// The fallback must always work.
			fb, ferr := SolutionFromMDPPolicy(d, rvi.Policy)
			if ferr != nil {
				t.Fatalf("p=%v: LP failed (%v) and fallback failed (%v)", p, err, ferr)
			}
			if math.Abs(fb.Gain-rvi.Gain) > 1e-3 {
				t.Errorf("p=%v: fallback gain %v != RVI %v", p, fb.Gain, rvi.Gain)
			}
			continue
		}
		if math.Abs(sol.Gain-rvi.Gain) > 1e-4 {
			t.Errorf("p=%v: LP gain %v != RVI gain %v", p, sol.Gain, rvi.Gain)
		}
	}
	if lpFails*10 > total {
		t.Errorf("LP failed on %d/%d instances; degenerate-instance handling regressed", lpFails, total)
	}
}

func TestSolutionFromMDPPolicy(t *testing.T) {
	d := buildDPM(t, 0.15)
	rvi, err := d.AverageCostRVI(1e-8, 300000)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolutionFromMDPPolicy(d, rvi.Policy)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Gain-rvi.Gain) > 1e-3 {
		t.Errorf("fallback gain %v != RVI %v", sol.Gain, rvi.Gain)
	}
	// Decomposition: gain = energy + w*backlog.
	want := sol.MeanEnergy + 0.3*sol.MeanBacklog
	if math.Abs(sol.Gain-want) > 1e-6 {
		t.Errorf("gain %v != energy %v + w*backlog %v", sol.Gain, sol.MeanEnergy, want)
	}
	// One-hot rows everywhere.
	for s, probs := range sol.Probs {
		ones := 0
		for _, pr := range probs {
			if pr == 1 {
				ones++
			}
		}
		if ones != 1 {
			t.Fatalf("state %d probs %v not one-hot", s, probs)
		}
	}
	if _, err := SolutionFromMDPPolicy(nil, nil); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := SolutionFromMDPPolicy(d, mdp.Policy{0}); err == nil {
		t.Error("short policy accepted")
	}
}
