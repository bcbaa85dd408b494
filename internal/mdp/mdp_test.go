package mdp

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/device"
)

// twoStateChain builds a tiny hand-checkable MDP:
// state 0, action 0: cost 1, stays in 0; action 1: cost 3, goes to 1.
// state 1, action 0: cost 0, stays in 1.
// Optimal discounted policy: state 0 should pay 3 once to reach the free
// state when gamma is high, stay when gamma is low.
func twoStateChain() *Model {
	return &Model{
		N:       2,
		Actions: [][]int{{0, 1}, {0}},
		Trans: [][][]Outcome{
			{{{Next: 0, P: 1}}, {{Next: 1, P: 1}}},
			{{{Next: 1, P: 1}}},
		},
		Costs: [][]float64{{1, 3}, {0}},
		Label: []string{"s0", "s1"},
	}
}

func TestValidateAcceptsGoodModel(t *testing.T) {
	if err := twoStateChain().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	mk := twoStateChain
	cases := []struct {
		name string
		mut  func(m *Model)
	}{
		{"probabilities not summing", func(m *Model) { m.Trans[0][0][0].P = 0.5 }},
		{"negative probability", func(m *Model) {
			m.Trans[0][0] = []Outcome{{Next: 0, P: -0.5}, {Next: 1, P: 1.5}}
		}},
		{"successor out of range", func(m *Model) { m.Trans[0][0][0].Next = 9 }},
		{"NaN cost", func(m *Model) { m.Costs[0][0] = math.NaN() }},
		{"no actions", func(m *Model) { m.Actions[1] = nil; m.Trans[1] = nil; m.Costs[1] = nil }},
		{"ragged actions", func(m *Model) { m.Costs[0] = m.Costs[0][:1] }},
	}
	for _, tc := range cases {
		m := mk()
		tc.mut(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestValueIterationHandComputable(t *testing.T) {
	m := twoStateChain()
	// gamma = 0.9: staying in s0 forever costs 1/(1-0.9) = 10;
	// switching costs 3 + 0 = 3. Optimal: switch, V(s0)=3, V(s1)=0.
	res, err := m.ValueIteration(0.9, 1e-9, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Actions[0][res.Policy[0]] != 1 {
		t.Errorf("gamma=0.9: policy stayed, want switch")
	}
	if math.Abs(res.Value[0]-3) > 1e-6 || math.Abs(res.Value[1]) > 1e-6 {
		t.Errorf("values %v, want [3 0]", res.Value)
	}
	// gamma = 0.5: staying costs 1/(1-0.5) = 2 < 3. Optimal: stay.
	res, err = m.ValueIteration(0.5, 1e-9, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Actions[0][res.Policy[0]] != 0 {
		t.Errorf("gamma=0.5: policy switched, want stay")
	}
	if math.Abs(res.Value[0]-2) > 1e-6 {
		t.Errorf("V(s0) = %v, want 2", res.Value[0])
	}
}

func TestValueIterationValidation(t *testing.T) {
	m := twoStateChain()
	if _, err := m.ValueIteration(0, 1e-6, 100); err == nil {
		t.Error("gamma=0 accepted")
	}
	if _, err := m.ValueIteration(1, 1e-6, 100); err == nil {
		t.Error("gamma=1 accepted")
	}
	if _, err := m.ValueIteration(0.9, 0, 100); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := m.ValueIteration(0.9, 1e-6, 0); err == nil {
		t.Error("maxIter=0 accepted")
	}
}

func TestAverageCostRVIHandComputable(t *testing.T) {
	// Cycle MDP: two states, each with a single action moving to the
	// other. Costs 2 and 4: average cost must be 3 regardless of policy.
	m := &Model{
		N:       2,
		Actions: [][]int{{0}, {0}},
		Trans: [][][]Outcome{
			{{{Next: 1, P: 1}}},
			{{{Next: 0, P: 1}}},
		},
		Costs: [][]float64{{2}, {4}},
		Label: []string{"a", "b"},
	}
	res, err := m.AverageCostRVI(1e-10, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Gain-3) > 1e-6 {
		t.Errorf("gain %v, want 3", res.Gain)
	}
}

func TestAverageCostRVIPicksCheaperRecurrentClass(t *testing.T) {
	// State 0 can stay (cost 2) or move to state 1 (cost 10 once) where
	// staying costs 1. Average-optimal: move, gain 1.
	m := &Model{
		N:       2,
		Actions: [][]int{{0, 1}, {0}},
		Trans: [][][]Outcome{
			{{{Next: 0, P: 1}}, {{Next: 1, P: 1}}},
			{{{Next: 1, P: 1}}},
		},
		Costs: [][]float64{{2, 10}, {1}},
	}
	res, err := m.AverageCostRVI(1e-10, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Gain-1) > 1e-6 {
		t.Errorf("gain %v, want 1", res.Gain)
	}
	if m.Actions[0][res.Policy[0]] != 1 {
		t.Error("policy did not move to the cheap state")
	}
}

func TestEvaluateAverageMatchesRVI(t *testing.T) {
	d := buildSynthDPM(t, 0.15)
	res, err := d.AverageCostRVI(1e-9, 200000)
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.EvaluateAverage(res.Policy, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-res.Gain) > 1e-3 {
		t.Errorf("policy evaluation gain %v != RVI gain %v", g, res.Gain)
	}
}

// ---------------------------------------------------------------------------
// DPM model builder

func buildSynthDPM(t *testing.T, p float64) *DPM {
	t.Helper()
	dev, err := device.Synthetic3().Slot(0.5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildDPM(DPMConfig{Device: dev, ArrivalP: p, QueueCap: 8, LatencyWeight: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildDPMStateCount(t *testing.T) {
	d := buildSynthDPM(t, 0.1)
	// synthetic3: 3 settled states × 9 queue levels = 27.
	// Transitions with latency ≥ 1: active->sleep (1), idle->sleep (1),
	// sleep->active (3), sleep->idle (3) = 8 phase-slots × 9 = 72.
	if d.N != 27+72 {
		t.Errorf("state count %d, want 99", d.N)
	}
}

func TestBuildDPMValidation(t *testing.T) {
	dev, _ := device.Synthetic3().Slot(0.5)
	bad := []DPMConfig{
		{Device: nil, ArrivalP: 0.1, QueueCap: 4, LatencyWeight: 0.1},
		{Device: dev, ArrivalP: -0.1, QueueCap: 4, LatencyWeight: 0.1},
		{Device: dev, ArrivalP: 1.1, QueueCap: 4, LatencyWeight: 0.1},
		{Device: dev, ArrivalP: 0.1, QueueCap: 0, LatencyWeight: 0.1},
		{Device: dev, ArrivalP: 0.1, QueueCap: 4, LatencyWeight: -1},
	}
	for i, cfg := range bad {
		if _, err := BuildDPM(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestBuildDPMSettledActions(t *testing.T) {
	d := buildSynthDPM(t, 0.1)
	// In a settled active state all 3 targets are allowed.
	s, err := d.SettledState(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Actions[s]) != 3 {
		t.Errorf("active state has %d actions, want 3", len(d.Actions[s]))
	}
	// Switching states have exactly the pseudo-action.
	idx := d.transIndex(2, 0, 2, 4) // sleep->active, 2 slots left, q=4
	if len(d.Actions[idx]) != 1 || d.Actions[idx][0] != -1 {
		t.Errorf("switching state actions %v, want [-1]", d.Actions[idx])
	}
}

func TestSettledStateBounds(t *testing.T) {
	d := buildSynthDPM(t, 0.1)
	if _, err := d.SettledState(5, 0); err == nil {
		t.Error("out-of-range device state accepted")
	}
	if _, err := d.SettledState(0, 9); err == nil {
		t.Error("out-of-range queue accepted")
	}
	if _, err := d.SettledState(0, -1); err == nil {
		t.Error("negative queue accepted")
	}
}

func TestDPMModelCostsNonNegative(t *testing.T) {
	d := buildSynthDPM(t, 0.25)
	for s := 0; s < d.N; s++ {
		for ai := range d.Actions[s] {
			if d.Costs[s][ai] < 0 {
				t.Fatalf("state %q action %d has negative cost %v", d.Label[s], ai, d.Costs[s][ai])
			}
		}
	}
}

func TestOptimalGainBelowAlwaysOnAndAboveZero(t *testing.T) {
	d := buildSynthDPM(t, 0.1)
	res, err := d.AverageCostRVI(1e-8, 200000)
	if err != nil {
		t.Fatal(err)
	}
	// Always-active at λ=0.1 costs 1.0 J/slot with zero backlog.
	if res.Gain >= 1.0 {
		t.Errorf("optimal gain %v >= always-on cost 1.0", res.Gain)
	}
	// It can never beat the sleep floor (0.05 J/slot).
	if res.Gain <= 0.05 {
		t.Errorf("optimal gain %v <= sleep floor", res.Gain)
	}
}

func TestOptimalPolicyRateMonotonicity(t *testing.T) {
	// Higher arrival rates must not decrease the optimal average cost.
	var prev float64
	for i, p := range []float64{0.02, 0.1, 0.3, 0.6} {
		d := buildSynthDPM(t, p)
		res, err := d.AverageCostRVI(1e-8, 200000)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Gain < prev-1e-6 {
			t.Errorf("gain at p=%v (%v) below gain at lower rate (%v)", p, res.Gain, prev)
		}
		prev = res.Gain
	}
}

func TestOptimalPolicySleepsWhenIdle(t *testing.T) {
	// At a very low rate the optimal action in (idle, q=0) must be to head
	// for sleep, and in (active, q>0) to stay active.
	d := buildSynthDPM(t, 0.01)
	res, err := d.AverageCostRVI(1e-8, 200000)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := d.ActionTarget(res.Policy, 1, 0) // idle, empty queue
	if err != nil {
		t.Fatal(err)
	}
	if tgt != 2 {
		t.Errorf("optimal action in (idle, q=0) at p=0.01 is %d, want sleep (2)", tgt)
	}
	tgt, err = d.ActionTarget(res.Policy, 0, 4) // active, backlog
	if err != nil {
		t.Fatal(err)
	}
	if tgt != 0 {
		t.Errorf("optimal action in (active, q=4) is %d, want active (0)", tgt)
	}
}

func TestActionTargetErrors(t *testing.T) {
	d := buildSynthDPM(t, 0.1)
	pol := make(Policy, d.N)
	if _, err := d.ActionTarget(pol, 9, 0); err == nil {
		t.Error("bad device state accepted")
	}
	pol2 := make(Policy, d.N)
	s, _ := d.SettledState(0, 0)
	pol2[s] = 99
	if _, err := d.ActionTarget(pol2, 0, 0); err == nil {
		t.Error("out-of-range action index accepted")
	}
}

// Property: for random arrival rates, the VI(γ→1) policy's average cost is
// within a whisker of the RVI gain (Blackwell optimality on these small
// chains), and both are bounded by the always-on cost.
func TestDiscountedApproachesAverageProperty(t *testing.T) {
	dev, err := device.Synthetic3().Slot(0.5)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pRaw uint8) bool {
		p := 0.02 + 0.5*float64(pRaw)/255
		d, err := BuildDPM(DPMConfig{Device: dev, ArrivalP: p, QueueCap: 6, LatencyWeight: 0.3})
		if err != nil {
			return false
		}
		rvi, err := d.AverageCostRVI(1e-7, 400000)
		if err != nil {
			return false
		}
		vi, err := d.ValueIteration(0.999, 1e-4, 400000)
		if err != nil {
			return false
		}
		gVI, err := d.EvaluateAverage(vi.Policy, 8000)
		if err != nil {
			return false
		}
		return math.Abs(gVI-rvi.Gain) < 5e-3 && rvi.Gain < 1.0+0.3*6+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// diffModels describes the first difference between two DPM models —
// structure, labels, or any rate-dependent value compared by its bits, so
// that a −0 or a last-place rounding difference shows — or returns "".
func diffModels(got, want *DPM) string {
	if got.N != want.N || got.Cfg != want.Cfg {
		return fmt.Sprintf("N/Cfg %d %+v, want %d %+v", got.N, got.Cfg, want.N, want.Cfg)
	}
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for s := 0; s < want.N; s++ {
		if got.Label[s] != want.Label[s] || len(got.Actions[s]) != len(want.Actions[s]) {
			return fmt.Sprintf("state %d: label %q with %d actions, want %q with %d",
				s, got.Label[s], len(got.Actions[s]), want.Label[s], len(want.Actions[s]))
		}
		for ai := range want.Actions[s] {
			g, w := got.Trans[s][ai], want.Trans[s][ai]
			if got.Actions[s][ai] != want.Actions[s][ai] || len(g) != len(w) {
				return fmt.Sprintf("state %d action %d: label %d with %d outcomes, want %d with %d",
					s, ai, got.Actions[s][ai], len(g), want.Actions[s][ai], len(w))
			}
			for k := range w {
				if g[k].Next != w[k].Next || !bits(g[k].P, w[k].P) {
					return fmt.Sprintf("state %d action %d outcome %d: %+v, want %+v", s, ai, k, g[k], w[k])
				}
			}
			if !bits(got.Costs[s][ai], want.Costs[s][ai]) || !bits(got.Energy[s][ai], want.Energy[s][ai]) ||
				!bits(got.Perf[s][ai], want.Perf[s][ai]) {
				return fmt.Sprintf("state %d action %d: cost/energy/perf %v/%v/%v, want %v/%v/%v", s, ai,
					got.Costs[s][ai], got.Energy[s][ai], got.Perf[s][ai],
					want.Costs[s][ai], want.Energy[s][ai], want.Perf[s][ai])
			}
		}
	}
	return ""
}

// TestSetArrivalPMatchesBuild refills one model through a sequence of
// rates, up and down the adaptive controller's clamp band, and checks
// after each refill that it equals a fresh BuildDPM at that rate bit for
// bit, on every catalog device at two queue caps.
func TestSetArrivalPMatchesBuild(t *testing.T) {
	rates := []float64{0.005, 0.02, 0.08, 0.25, 0.30, 0.98, 0.137, 0.5, 0.0123, 0.731, 0.02}
	for name, psm := range device.Catalog() {
		dev, err := psm.Slot(0.5)
		if err != nil {
			t.Fatal(err)
		}
		for _, queueCap := range []int{2, 8} {
			cfg := DPMConfig{Device: dev, ArrivalP: 0.4, QueueCap: queueCap, LatencyWeight: 0.3}
			d, err := BuildDPM(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range rates {
				if err := d.SetArrivalP(p); err != nil {
					t.Fatalf("%s/q%d p=%v: %v", name, queueCap, p, err)
				}
				cfg.ArrivalP = p
				fresh, err := BuildDPM(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if diff := diffModels(d, fresh); diff != "" {
					t.Fatalf("%s/q%d p=%v: %s", name, queueCap, p, diff)
				}
			}
		}
	}
}

// TestSetArrivalPRejectsEndpoints: at p = 0 or 1 an arrival count has
// probability zero and drops out of every outcome list, so neither a
// refill to those rates nor a refill of a model built at them is allowed.
func TestSetArrivalPRejectsEndpoints(t *testing.T) {
	d := buildSynthDPM(t, 0.1)
	for _, p := range []float64{0, 1, -0.1, 1.5, math.NaN()} {
		if err := d.SetArrivalP(p); err == nil {
			t.Errorf("refill to p=%v accepted", p)
		}
	}
	fresh, err := BuildDPM(d.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := diffModels(d, fresh); diff != "" {
		t.Errorf("rejected refill changed the model: %s", diff)
	}
	for _, p := range []float64{0, 1} {
		if err := buildSynthDPM(t, p).SetArrivalP(0.5); err == nil {
			t.Errorf("refill of a model built at p=%v accepted", p)
		}
	}
}

func BenchmarkSetArrivalP(b *testing.B) {
	dev, _ := device.Synthetic3().Slot(0.5)
	d, err := BuildDPM(DPMConfig{Device: dev, ArrivalP: 0.1, QueueCap: 8, LatencyWeight: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := d.SetArrivalP([]float64{0.02, 0.08, 0.25, 0.30}[i%4]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildDPM(b *testing.B) {
	dev, _ := device.Synthetic3().Slot(0.5)
	cfg := DPMConfig{Device: dev, ArrivalP: 0.1, QueueCap: 8, LatencyWeight: 0.3}
	for i := 0; i < b.N; i++ {
		if _, err := BuildDPM(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAverageCostRVI(b *testing.B) {
	dev, _ := device.Synthetic3().Slot(0.5)
	d, _ := BuildDPM(DPMConfig{Device: dev, ArrivalP: 0.1, QueueCap: 8, LatencyWeight: 0.3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.AverageCostRVI(1e-6, 200000); err != nil {
			b.Fatal(err)
		}
	}
}
