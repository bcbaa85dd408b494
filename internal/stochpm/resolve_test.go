package stochpm

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/mdp"
	"repro/internal/rng"
	"repro/internal/slotsim"
)

// fig2Rates are the arrival rates of the paper's Fig. 2 schedule.
var fig2Rates = []float64{0.02, 0.08, 0.25, 0.30}

// canonAdaptive returns an adaptive controller on the canonical model
// (synthetic3 at 0.5 s slots, queue cap 8, latency weight 0.3).
func canonAdaptive(tb testing.TB) *Adaptive {
	tb.Helper()
	dev, err := device.Synthetic3().Slot(0.5)
	if err != nil {
		tb.Fatal(err)
	}
	a, err := NewAdaptive(AdaptiveConfig{
		Device: dev, QueueCap: 8, LatencyWeight: 0.3,
		InitialRate: fig2Rates[0], Stream: rng.New(7),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// diffSolutions describes the first difference between two solutions'
// deterministic fields, floats compared by their bits, or returns "".
func diffSolutions(got, want *Solution) string {
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case got.Pivots != want.Pivots:
		return fmt.Sprintf("%d pivots, want %d", got.Pivots, want.Pivots)
	case !bits(got.Gain, want.Gain):
		return fmt.Sprintf("gain %v, want %v", got.Gain, want.Gain)
	case !bits(got.MeanBacklog, want.MeanBacklog):
		return fmt.Sprintf("mean backlog %v, want %v", got.MeanBacklog, want.MeanBacklog)
	case !bits(got.MeanEnergy, want.MeanEnergy):
		return fmt.Sprintf("mean energy %v, want %v", got.MeanEnergy, want.MeanEnergy)
	case len(got.Probs) != len(want.Probs):
		return fmt.Sprintf("%d probability rows, want %d", len(got.Probs), len(want.Probs))
	}
	for s := range want.Probs {
		g, w := got.Probs[s], want.Probs[s]
		if (g == nil) != (w == nil) || len(g) != len(w) {
			return fmt.Sprintf("state %d: probabilities %v, want %v", s, g, w)
		}
		for ai := range w {
			if !bits(g[ai], w[ai]) {
				return fmt.Sprintf("state %d: probabilities %v, want %v", s, g, w)
			}
		}
	}
	return ""
}

// TestAdaptiveResolveMatchesSolveLP drives one controller through a rate
// sequence — the Fig. 2 rates, off-grid rates and both ends of the clamp
// band — and checks that every re-solve, made on the refilled model, LP
// and tableau, equals a one-shot SolveLP on a fresh model bit for bit. At
// p = 0.98 the LP breaks down numerically on this model, so the RVI
// fallback, run on the refilled model, is checked there too.
func TestAdaptiveResolveMatchesSolveLP(t *testing.T) {
	a := canonAdaptive(t)
	rates := append(append([]float64{}, fig2Rates...), 0.137, 0.005, 0.41, 0.98, 0.0731, 0.30, 0.02)
	fallbacks := int64(0)
	for _, p := range rates {
		if err := a.resolve(p); err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		d, err := mdp.BuildDPM(mdp.DPMConfig{Device: a.cfg.Device, ArrivalP: p,
			QueueCap: a.cfg.QueueCap, LatencyWeight: a.cfg.LatencyWeight})
		if err != nil {
			t.Fatal(err)
		}
		want, err := SolveLP(d, nil)
		if err != nil {
			fallbacks++
			res, err := d.AverageCostRVI(1e-7, 400000)
			if err != nil {
				t.Fatal(err)
			}
			if want, err = SolutionFromMDPPolicy(d, res.Policy); err != nil {
				t.Fatal(err)
			}
		}
		if a.LPFallbacks != fallbacks {
			t.Fatalf("p=%v: %d RVI fallbacks, want %d", p, a.LPFallbacks, fallbacks)
		}
		if diff := diffSolutions(a.cur.sol, want); diff != "" {
			t.Fatalf("p=%v: re-solve differs from a fresh model's: %s", p, diff)
		}
	}
	if fallbacks == 0 {
		t.Error("no rate exercised the RVI fallback")
	}
}

// TestConstrainedRefillMatchesSolveLP covers the refill of the backlog
// row, which the adaptive controller never uses: a constrained LP refilled
// at each rate solves exactly like a fresh one.
func TestConstrainedRefillMatchesSolveLP(t *testing.T) {
	cons := &Constraint{MaxMeanBacklog: 1}
	d := buildDPM(t, 0.1)
	o, err := newOccupancy(d, cons)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.05, 0.15, 0.3, 0.05} {
		if err := d.SetArrivalP(p); err != nil {
			t.Fatal(err)
		}
		o.refill()
		got, err := o.solve(time.Now())
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		want, err := SolveLP(buildDPM(t, p), cons)
		if err != nil {
			t.Fatalf("p=%v: one-shot LP: %v", p, err)
		}
		if diff := diffSolutions(got, want); diff != "" {
			t.Fatalf("p=%v: refilled constrained LP differs: %s", p, diff)
		}
	}
}

// TestAdaptiveResolveReuseDoesNotGrow is the re-solve's allocation gate:
// after the first solve, a re-solve allocates only its result — the LP
// point, the Solution with one probability row per state the policy
// visits, and the policy adapter; about 13 allocations and 4.3 KB on this
// model — never the model, the LP rows or the tableau (about 400 KB).
func TestAdaptiveResolveReuseDoesNotGrow(t *testing.T) {
	const maxAllocs, maxBytes = 32, 16 << 10
	a := canonAdaptive(t)
	i := 0
	resolve := func() {
		i++
		if err := a.resolve(fig2Rates[i%len(fig2Rates)]); err != nil {
			t.Fatal(err)
		}
	}
	resolve()
	if allocs := testing.AllocsPerRun(20, resolve); allocs > maxAllocs {
		t.Errorf("re-solve allocates %.1f times, want <= %d", allocs, maxAllocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		resolve()
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > maxBytes {
		t.Errorf("re-solve allocates %d bytes, want <= %d", bytes, maxBytes)
	}
}

// TestLPPolicyIgnoresModelRefill pins the LPPolicy contract: a policy
// reads only the rate-independent parts of its model, so refilling the
// model at another rate leaves its decisions unchanged for a fixed
// solution and stream.
func TestLPPolicyIgnoresModelRefill(t *testing.T) {
	kept, refilled := buildDPM(t, 0.1), buildDPM(t, 0.1)
	sol, err := SolveLP(kept, nil)
	if err != nil {
		t.Fatal(err)
	}
	before, err := NewLPPolicy(kept, sol, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewLPPolicy(refilled, sol, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := refilled.SetArrivalP(0.6); err != nil {
		t.Fatal(err)
	}
	nDev := refilled.Cfg.Device.PSM.NumStates()
	obs := rng.New(4)
	for i := 0; i < 5000; i++ {
		o := slotsim.Observation{
			Phase: device.StateID(obs.Intn(nDev)),
			Queue: obs.Intn(refilled.Cfg.QueueCap + 3), // past the cap too
			Slot:  int64(i),
		}
		if b, a := before.Decide(o), after.Decide(o); b != a {
			t.Fatalf("decision %d on %+v: %d before the refill, %d after", i, o, b, a)
		}
	}
}

// BenchmarkAdaptiveResolve times one re-solve of the adaptive controller
// on the canonical model, alternating the Fig. 2 rates: "refill" is the
// controller's own re-solve (refill the model and the LP, solve on the
// kept tableau); "rebuild" does the same work from scratch, with a fresh
// model, LP and tableau, as Table R1's LP column does.
func BenchmarkAdaptiveResolve(b *testing.B) {
	b.Run("refill", func(b *testing.B) {
		a := canonAdaptive(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.resolve(fig2Rates[i%len(fig2Rates)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		a := canonAdaptive(b)
		cfg := mdp.DPMConfig{Device: a.cfg.Device, QueueCap: a.cfg.QueueCap, LatencyWeight: a.cfg.LatencyWeight}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg.ArrivalP = fig2Rates[i%len(fig2Rates)]
			d, err := mdp.BuildDPM(cfg)
			if err != nil {
				b.Fatal(err)
			}
			sol, err := SolveLP(d, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := NewLPPolicy(d, sol, a.cfg.Stream); err != nil {
				b.Fatal(err)
			}
		}
	})
}
