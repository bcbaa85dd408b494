package lp_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/device"
	"repro/internal/lp"
	"repro/internal/mdp"
	"repro/internal/stochpm"
)

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// occupancyLP builds stochpm's occupancy LP for psm at 0.5 s slots and
// returns it with the model's state count.
func occupancyLP(tb testing.TB, psm *device.PSM, queueCap int, p float64, cons *stochpm.Constraint) (lp.Problem, int) {
	tb.Helper()
	dev, err := psm.Slot(0.5)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := mdp.BuildDPM(mdp.DPMConfig{Device: dev, ArrivalP: p, QueueCap: queueCap, LatencyWeight: 0.3})
	if err != nil {
		tb.Fatal(err)
	}
	b, err := stochpm.OccupancyLP(d, cons)
	if err != nil {
		tb.Fatal(err)
	}
	return b.Build(), d.N
}

// TestSolveMatchesDenseReference checks that Solve reproduces the dense
// reference simplex bit for bit on the occupancy LPs the adaptive
// controller solves: every catalog device with at most 150 model states,
// queue caps 2 and 8, rates across the controller's clamp band
// [0.005, 0.98] plus the Fig. 2 rates, unconstrained and with backlog
// bounds 0.5 and 2. A dozen of the queue-cap-8 LPs, most of them
// constrained, run into the pivot cap, which takes about a second per
// solver each and minutes under the race detector, so -short and -race
// keep only the queue-cap-2 models and the canonical one (synthetic3,
// queue cap 8, unconstrained).
func TestSolveMatchesDenseReference(t *testing.T) {
	rates := []float64{0.02, 0.08, 0.25, 0.30}
	for k := 0; k <= 12; k++ {
		rates = append(rates, 0.005+(0.98-0.005)*float64(k)/12)
	}
	catalog := device.Catalog()
	names := make([]string, 0, len(catalog))
	for name := range catalog {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, queueCap := range []int{2, 8} {
			for _, cons := range []*stochpm.Constraint{nil, {MaxMeanBacklog: 0.5}, {MaxMeanBacklog: 2}} {
				label := fmt.Sprintf("%s/q%d/unconstrained", name, queueCap)
				if cons != nil {
					label = fmt.Sprintf("%s/q%d/backlog%g", name, queueCap, cons.MaxMeanBacklog)
				}
				canonical := name == "synthetic3" && cons == nil
				t.Run(label, func(t *testing.T) {
					if (testing.Short() || raceEnabled) && queueCap > 2 && !canonical {
						t.Skip("reaches the pivot cap; runs without -short and -race")
					}
					t.Parallel()
					for _, p := range rates {
						prob, states := occupancyLP(t, catalog[name], queueCap, p, cons)
						if states > 150 {
							t.Skipf("%d model states", states)
						}
						if diff, _ := lp.DiffReference(prob); diff != "" {
							t.Errorf("p=%v: %s", p, diff)
						}
					}
				})
			}
		}
	}
}

// TestSolveIterationsCanonical pins the pivot counts, drive-out pivots
// included, of the canonical model's occupancy LP at the Fig. 2 rates.
func TestSolveIterationsCanonical(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{0.02, 108}, {0.08, 118}, {0.25, 129}, {0.30, 121}} {
		prob, _ := occupancyLP(t, device.Synthetic3(), 8, c.p, nil)
		sol, err := lp.Solve(prob)
		if err != nil {
			t.Fatalf("p=%v: %v", c.p, err)
		}
		if sol.Iterations != c.want {
			t.Errorf("p=%v: %d iterations, want %d", c.p, sol.Iterations, c.want)
		}
	}
}

func BenchmarkSolveOccupancy(b *testing.B) {
	p, _ := occupancyLP(b, device.Synthetic3(), 8, 0.25, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}
