package stochpm

import (
	"encoding/binary"
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

// clampRate is the band the controller clamps an estimate to.
func clampRate(p float64) float64 { return math.Min(math.Max(p, 0.005), 0.98) }

// missRate returns the i-th of 150 distinct rates k/512 in the band the
// Fig. 2 estimates take (about 0.02 to 0.31), where the LP solves
// without the RVI fallback.
func missRate(i int) float64 { return float64(10+i%150) / 512 }

// freshSolution solves a fresh model at rate p the way the controller
// does: the occupancy LP, or RVI where the LP fails. It reports whether
// the RVI fallback ran.
func freshSolution(a *Adaptive, p float64) (*Solution, bool, error) {
	d, err := mdp.BuildDPM(mdp.DPMConfig{Device: a.cfg.Device, ArrivalP: p,
		QueueCap: a.cfg.QueueCap, LatencyWeight: a.cfg.LatencyWeight})
	if err != nil {
		return nil, false, err
	}
	if sol, err := SolveLP(d, nil); err == nil {
		return sol, false, nil
	}
	res, err := d.AverageCostRVI(1e-7, 400000)
	if err != nil {
		return nil, true, err
	}
	sol, err := SolutionFromMDPPolicy(d, res.Policy)
	return sol, true, err
}

// runResolves re-solves one canonical controller at each rate in turn and
// checks the re-solve contract after every call:
//   - the installed solution equals a fresh model's at the clamped rate
//     bit for bit, the RVI fallback's where the LP fails;
//   - a clamped rate re-solved before reinstalls the same policy and adds
//     no solve time, and a new one installs a new policy;
//   - Resolves counts every call, LPFallbacks every fallback, a reused one
//     included, and the memo holds one entry per distinct clamped rate;
//   - a re-solve fails exactly where the fresh one does, and a failed one
//     leaves the policy, the counters and the memo as they were.
//
// It returns the number of fallbacks.
func runResolves(t *testing.T, rates []float64) int64 {
	t.Helper()
	a := canonAdaptive(t)
	installed := map[float64]*LPPolicy{clampRate(a.cfg.InitialRate): a.cur}
	type fresh struct {
		sol      *Solution
		fellBack bool
		err      error
	}
	solved := map[float64]fresh{}
	resolves, fallbacks := a.Resolves, a.LPFallbacks
	for _, p := range rates {
		c := clampRate(p)
		prev, seen := installed[c]
		cur, solveTime := a.cur, a.SolveTime
		err := a.resolve(p)
		f, ok := solved[c]
		if !ok {
			f.sol, f.fellBack, f.err = freshSolution(a, c)
			solved[c] = f
		}
		if (err != nil) != (f.err != nil) {
			t.Fatalf("p=%v: re-solve error %v, fresh solve error %v", p, err, f.err)
		}
		if err != nil {
			if a.cur != cur || a.Resolves != resolves || a.LPFallbacks != fallbacks || len(a.memo) != len(installed) {
				t.Fatalf("p=%v: failed re-solve changed the controller", p)
			}
			continue
		}
		resolves++
		if f.fellBack {
			fallbacks++
		}
		switch {
		case seen && a.cur != prev:
			t.Fatalf("p=%v: repeated rate installed a new policy", p)
		case seen && a.SolveTime != solveTime:
			t.Fatalf("p=%v: reused policy added %v of solve time", p, a.SolveTime-solveTime)
		case !seen && a.cur == cur:
			t.Fatalf("p=%v: new rate kept the old policy", p)
		}
		installed[c] = a.cur
		switch {
		case a.Resolves != resolves:
			t.Fatalf("p=%v: %d re-solves, want %d", p, a.Resolves, resolves)
		case a.LPFallbacks != fallbacks:
			t.Fatalf("p=%v: %d RVI fallbacks, want %d", p, a.LPFallbacks, fallbacks)
		case len(a.memo) != len(installed):
			t.Fatalf("p=%v: memo holds %d rates, want %d", p, len(a.memo), len(installed))
		}
		if diff := diffSolutions(a.cur.sol, f.sol); diff != "" {
			t.Fatalf("p=%v: re-solve differs from a fresh model's: %s", p, diff)
		}
	}
	return fallbacks
}

// TestAdaptiveResolveMatchesSolveLP drives one controller through a rate
// sequence — the Fig. 2 rates, off-grid rates and both ends of the clamp
// band — and checks that every re-solve, made on the refilled model, LP
// and tableau or reinstalled for a repeated rate, equals a one-shot
// SolveLP on a fresh model bit for bit. At p = 0.98 the LP breaks down
// numerically on this model, so the RVI fallback, run on the refilled
// model, is checked there too.
func TestAdaptiveResolveMatchesSolveLP(t *testing.T) {
	rates := append(append([]float64{}, fig2Rates...), 0.137, 0.005, 0.41, 0.98, 0.0731, 0.30, 0.02)
	if runResolves(t, rates) == 0 {
		t.Error("no rate exercised the RVI fallback")
	}
}

// TestAdaptiveResolveMemo pins the memo on a sequence with repeats: the
// RVI fallback at 0.98 twice, 0.001 and 0.004, which both clamp to 0.005,
// and NaN, which no model accepts, twice.
func TestAdaptiveResolveMemo(t *testing.T) {
	nan := math.NaN()
	rates := []float64{0.08, 0.98, 0.001, 0.25, nan, 0.004, 0.08, 0.98, 0.005, nan, 0.25, 0.02}
	if got := runResolves(t, rates); got != 2 {
		t.Errorf("%d RVI fallbacks, want 2", got)
	}
}

// FuzzAdaptiveResolve runs runResolves on rate sequences decoded from the
// input, two bytes a rate: k/512 for k in 0..512, or one of the rates
// around the clamp band's edges. At most 24 rates run, since a rate where
// the LP hits its pivot cap takes about a second to solve twice.
func FuzzAdaptiveResolve(f *testing.F) {
	edges := []float64{0.001, 0.004, 0.005, 0.98, 0.99}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rates []float64
		for i := 0; i+1 < len(data) && len(rates) < 24; i += 2 {
			k := int(binary.LittleEndian.Uint16(data[i:])) % (513 + len(edges))
			if k <= 512 {
				rates = append(rates, float64(k)/512)
			} else {
				rates = append(rates, edges[k-513])
			}
		}
		runResolves(t, rates)
	})
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

// TestAdaptiveResolveReuseDoesNotGrow is the re-solve's allocation gate.
// At a rate not solved before, a re-solve allocates only its result — the
// LP point, the Solution with one probability row per state the policy
// visits, the policy adapter and its memo entry; about 13 allocations and
// 4.3 KB on this model — never the model, the LP rows or the tableau
// (about 400 KB). At a rate solved before it allocates nothing.
func TestAdaptiveResolveReuseDoesNotGrow(t *testing.T) {
	t.Run("miss", func(t *testing.T) {
		const maxAllocs, maxBytes = 32, 16 << 10
		a := canonAdaptive(t)
		i := 0
		resolve := func() {
			if err := a.resolve(missRate(i)); err != nil {
				t.Fatal(err)
			}
			i++
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
		if i > 150 {
			t.Fatalf("%d re-solves cycled through missRate's rates", i)
		}
	})
	t.Run("hit", func(t *testing.T) {
		a := canonAdaptive(t)
		for _, p := range fig2Rates {
			if err := a.resolve(p); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		resolve := func() {
			if err := a.resolve(fig2Rates[i%len(fig2Rates)]); err != nil {
				t.Fatal(err)
			}
			i++
		}
		if allocs := testing.AllocsPerRun(100, resolve); allocs != 0 {
			t.Errorf("re-solve at a repeated rate allocates %.1f times, want 0", allocs)
		}
	})
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
// on the canonical model: "refill" is the controller's own re-solve at a
// rate not solved before (refill the model and the LP, solve on the kept
// tableau); "hit" is one at a rate solved before, which reinstalls that
// policy; "rebuild" does the refill's work from scratch, with a fresh
// model, LP and tableau, as Table R1's LP column does. Refill and rebuild
// cycle through missRate's rates, and refill empties the memo at the end
// of each cycle.
func BenchmarkAdaptiveResolve(b *testing.B) {
	b.Run("refill", func(b *testing.B) {
		a := canonAdaptive(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%150 == 0 {
				clear(a.memo)
			}
			if err := a.resolve(missRate(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		a := canonAdaptive(b)
		for _, p := range fig2Rates {
			if err := a.resolve(p); err != nil {
				b.Fatal(err)
			}
		}
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
			cfg.ArrivalP = missRate(i)
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
