package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/mdp"
	"repro/internal/qlearn"
	"repro/internal/rng"
	"repro/internal/slotsim"
	"repro/internal/workload"
)

func synthDev(t *testing.T) *device.Slotted {
	t.Helper()
	dev, err := device.Synthetic3().Slot(0.5)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func managerConfig(t *testing.T, seed uint64) Config {
	return Config{
		Device:        synthDev(t),
		QueueCap:      8,
		LatencyWeight: 0.3,
		Stream:        rng.New(seed),
	}
}

func TestNewValidation(t *testing.T) {
	good := managerConfig(t, 1)
	if _, err := New(good); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(Config) Config
	}{
		{"nil device", func(c Config) Config { c.Device = nil; return c }},
		{"nil stream", func(c Config) Config { c.Stream = nil; return c }},
		{"queue cap 0", func(c Config) Config { c.QueueCap = 0; return c }},
		{"too many buckets", func(c Config) Config { c.QueueBuckets = 99; return c }},
		{"negative latency weight", func(c Config) Config { c.LatencyWeight = -1; return c }},
		{"non-increasing idle buckets", func(c Config) Config { c.IdleBuckets = []int64{5, 5}; return c }},
		{"fuzzy with sarsa", func(c Config) Config { c.Fuzzy = true; c.Rule = qlearn.SARSA; return c }},
		{"fuzzy with traces", func(c Config) Config { c.Fuzzy = true; c.TraceLambda = 0.5; return c }},
		{"qos bad eta", func(c Config) Config { c.QoS = &QoSConfig{TargetBacklog: 1, Eta: 0}; return c }},
		{"qos bad target", func(c Config) Config { c.QoS = &QoSConfig{TargetBacklog: -1, Eta: 0.1}; return c }},
	}
	for _, tc := range cases {
		if _, err := New(tc.mut(good)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestEncoderStateSpace(t *testing.T) {
	cfg := managerConfig(t, 2)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 device states × 9 queue levels × 1 idle bucket.
	if m.NumStates() != 27 {
		t.Errorf("NumStates = %d, want 27", m.NumStates())
	}
	cfg.QueueBuckets = 4
	cfg.IdleBuckets = []int64{4, 16, 64}
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumStates() != 3*4*4 {
		t.Errorf("bucketed NumStates = %d, want 48", m2.NumStates())
	}
}

func TestEncoderClampsQueue(t *testing.T) {
	m, err := New(managerConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	a := m.encode(0, 8, 0)
	b := m.encode(0, 999, 0)
	if a != b {
		t.Error("over-cap queue not clamped")
	}
	if m.encode(0, -5, 0) != m.encode(0, 0, 0) {
		t.Error("negative queue not clamped")
	}
}

func TestIdleBuckets(t *testing.T) {
	cfg := managerConfig(t, 4)
	cfg.IdleBuckets = []int64{4, 16}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.idleBucket(0) != 0 || m.idleBucket(3) != 0 {
		t.Error("idle < 4 not bucket 0")
	}
	if m.idleBucket(4) != 1 || m.idleBucket(15) != 1 {
		t.Error("idle in [4,16) not bucket 1")
	}
	if m.idleBucket(16) != 2 || m.idleBucket(1000) != 2 {
		t.Error("idle >= 16 not bucket 2")
	}
}

// runScenario wires a manager into the simulator at rate p for n slots.
func runScenario(t *testing.T, m *Manager, p float64, n int64, seed uint64) slotsim.Metrics {
	t.Helper()
	arr, err := workload.NewBernoulli(p)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := slotsim.New(slotsim.Config{
		Device:        m.cfg.Device,
		Arrivals:      arr,
		QueueCap:      m.cfg.QueueCap,
		Policy:        m,
		Stream:        rng.New(seed),
		LatencyWeight: m.cfg.LatencyWeight,
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := sim.Run(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return metrics
}

func optimalGain(t *testing.T, p float64) float64 {
	t.Helper()
	d, err := mdp.BuildDPM(mdp.DPMConfig{
		Device: synthDev(t), ArrivalP: p, QueueCap: 8, LatencyWeight: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.AverageCostRVI(1e-8, 300000)
	if err != nil {
		t.Fatal(err)
	}
	return res.Gain
}

func TestQDPMApproachesOptimalCost(t *testing.T) {
	// The Fig. 1 claim in miniature: after learning, Q-DPM's average cost
	// over the tail must be within 15% of the analytically optimal gain
	// and clearly below always-on.
	const p = 0.1
	opt := optimalGain(t, p)

	cfg := managerConfig(t, 5)
	cfg.Explore = qlearn.EpsGreedy{Eps: 0.3, MinEps: 0.002, DecayTau: 30000}
	cfg.Alpha = qlearn.Polynomial{Scale: 0.5, Omega: 0.65}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Learn.
	runScenario(t, m, p, 300000, 6)
	// Measure the tail with exploration nearly off.
	arr, _ := workload.NewBernoulli(p)
	sim, _ := slotsim.New(slotsim.Config{
		Device: m.cfg.Device, Arrivals: arr, QueueCap: 8,
		Policy: m, Stream: rng.New(7), LatencyWeight: 0.3,
	})
	tail, _ := sim.Run(100000, nil)
	got := tail.AvgCost()
	if got > opt*1.15 {
		t.Errorf("learned avg cost %v not within 15%% of optimal %v", got, opt)
	}
	if got >= 1.0 {
		t.Errorf("learned avg cost %v not below always-on 1.0", got)
	}
	if got < opt-0.02 {
		t.Errorf("learned avg cost %v below optimal %v — accounting bug?", got, opt)
	}
}

func TestLearnedGreedyPolicySensible(t *testing.T) {
	cfg := managerConfig(t, 8)
	cfg.Explore = qlearn.EpsGreedy{Eps: 0.3, MinEps: 0.01, DecayTau: 30000}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, m, 0.05, 200000, 9)
	// Empty queue at a low rate: active is wasteful; greedy should leave
	// the active state (idle or sleep both beat staying).
	if got := m.GreedyTarget(0, 0, 0); got == 0 {
		t.Errorf("greedy(active, q=0) stayed active after learning at λ=0.05")
	}

	// Backlog states are only visited at meaningful rates: learn at
	// λ=0.45 and check that a moderately backlogged active device keeps
	// serving. (Far-off-distribution states like q=8 stay at their
	// initial values — expected for online RL.)
	cfg2 := managerConfig(t, 88)
	cfg2.Explore = qlearn.EpsGreedy{Eps: 0.3, MinEps: 0.01, DecayTau: 30000}
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, m2, 0.45, 200000, 89)
	if got := m2.GreedyTarget(0, 2, 0); got != 0 {
		t.Errorf("greedy(active, q=2) after λ=0.45 training = %d, want stay active", got)
	}
}

func TestQDPMBeatsAlwaysOnAtLowRate(t *testing.T) {
	cfg := managerConfig(t, 10)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	metrics := runScenario(t, m, 0.02, 150000, 11)
	// Always-on costs 1.0/slot. Even counting the learning phase, Q-DPM
	// must do clearly better at λ=0.02.
	if avg := metrics.AvgCost(); avg > 0.8 {
		t.Errorf("Q-DPM lifetime avg cost %v, want < 0.8 (always-on = 1.0)", avg)
	}
}

func TestSARSAVariantLearns(t *testing.T) {
	cfg := managerConfig(t, 12)
	cfg.Rule = qlearn.SARSA
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	metrics := runScenario(t, m, 0.05, 150000, 13)
	if avg := metrics.AvgCost(); avg > 0.9 {
		t.Errorf("SARSA avg cost %v, want < 0.9", avg)
	}
	if m.Name() != "q-dpm-sarsa" {
		t.Errorf("name %q", m.Name())
	}
}

func TestDoubleQVariantLearns(t *testing.T) {
	cfg := managerConfig(t, 14)
	cfg.Rule = qlearn.DoubleQ
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	metrics := runScenario(t, m, 0.05, 150000, 15)
	if avg := metrics.AvgCost(); avg > 0.9 {
		t.Errorf("double-Q avg cost %v, want < 0.9", avg)
	}
}

func TestFuzzyVariantLearns(t *testing.T) {
	cfg := managerConfig(t, 16)
	cfg.Fuzzy = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	metrics := runScenario(t, m, 0.05, 150000, 17)
	if avg := metrics.AvgCost(); avg > 0.9 {
		t.Errorf("fuzzy avg cost %v, want < 0.9", avg)
	}
	if m.Name() != "q-dpm-fuzzy" {
		t.Errorf("name %q", m.Name())
	}
}

// TestFuzzyLearningRateFollowsVisits checks that every fuzzy component
// update counts a visit of its own pair, whose count picks the pair's
// learning rate: after a run the table's visits add up to its updates,
// and some pair has been visited many times, not only once.
func TestFuzzyLearningRateFollowsVisits(t *testing.T) {
	cfg := managerConfig(t, 21)
	cfg.Fuzzy = true
	cfg.Alpha = qlearn.Polynomial{Scale: 1, Omega: 1}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, m, 0.1, 20000, 22)
	updates := m.agent.Updates()
	if updates == 0 {
		t.Fatal("fuzzy run counted no table updates")
	}
	var visits, maxN int64
	for s := 0; s < m.NumStates(); s++ {
		for a := 0; a < m.nDev; a++ {
			n := m.agent.Visits(s, a)
			visits += n
			maxN = max(maxN, n)
		}
	}
	if visits != updates {
		t.Errorf("visits sum to %d, want the %d updates", visits, updates)
	}
	if maxN < 100 {
		t.Errorf("largest visit count is %d; fuzzy updates are not counting visits", maxN)
	}
}

func TestQoSAdaptsLambda(t *testing.T) {
	cfg := managerConfig(t, 18)
	cfg.LatencyWeight = 0.02 // deliberately too soft: QoS must compensate
	cfg.QoS = &QoSConfig{TargetBacklog: 0.5, Eta: 0.05}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	metrics := runScenario(t, m, 0.3, 200000, 19)
	if m.QosLambda() <= 0 {
		t.Errorf("QoS multiplier never rose above zero")
	}
	// With the multiplier active, mean backlog should be pulled toward
	// the target rather than saturating the queue.
	if mb := metrics.MeanBacklog(); mb > 4 {
		t.Errorf("mean backlog %v far above QoS target 0.5", mb)
	}
	if m.Name() != "q-dpm-qos" {
		t.Errorf("name %q", m.Name())
	}
}

func TestNonstationaryTracking(t *testing.T) {
	// Fig. 2 in miniature: after a rate switch, the manager's windowed
	// cost must recover toward the new regime's optimum.
	cfg := managerConfig(t, 20)
	cfg.Explore = qlearn.EpsGreedy{Eps: 0.1, MinEps: 0.02, DecayTau: 50000}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := workload.NewBernoulli(0.02)
	hi, _ := workload.NewBernoulli(0.4)
	pw, _ := workload.NewPiecewise([]workload.Segment{
		{Slots: 100000, Proc: lo},
		{Slots: 100000, Proc: hi},
	})
	sim, err := slotsim.New(slotsim.Config{
		Device: m.cfg.Device, Arrivals: pw, QueueCap: 8,
		Policy: m, Stream: rng.New(21), LatencyWeight: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var phase2Cost float64
	var phase2Slots int64
	sim.Run(200000, func(r slotsim.SlotRecord) {
		if r.Slot >= 150000 { // second half of the high-rate phase
			phase2Cost += r.Cost
			phase2Slots++
		}
	})
	avg2 := phase2Cost / float64(phase2Slots)
	opt2 := optimalGain(t, 0.4)
	if avg2 > opt2*1.3 {
		t.Errorf("post-switch avg cost %v not within 30%% of new optimum %v", avg2, opt2)
	}
}

func TestDecisionsCounter(t *testing.T) {
	m, err := New(managerConfig(t, 22))
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, m, 0.1, 1000, 23)
	if m.Decisions() == 0 || m.Decisions() > 1000 {
		t.Errorf("decisions %d out of (0,1000]", m.Decisions())
	}
}

func TestTableBytesSmall(t *testing.T) {
	// The paper's embedded-feasibility claim: the whole learner state for
	// the synthetic device must fit in a few KB.
	m, err := New(managerConfig(t, 24))
	if err != nil {
		t.Fatal(err)
	}
	if b := m.TableBytes(); b > 4096 {
		t.Errorf("table bytes %d, want <= 4096", b)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() float64 {
		m, err := New(managerConfig(t, 25))
		if err != nil {
			t.Fatal(err)
		}
		return runScenario(t, m, 0.1, 20000, 26).EnergyJ
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical seeds diverged: %v vs %v", a, b)
	}
}

func TestSMDPAccountingDuringTransitions(t *testing.T) {
	// Force many sleep->active wakeups (3-slot transitions) and check the
	// learner's update count equals its decision count (every decision
	// eventually completes exactly one update), which fails if the
	// semi-Markov accumulation leaks experiences.
	cfg := managerConfig(t, 27)
	cfg.Explore = qlearn.EpsGreedy{Eps: 0.5} // thrash states
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, m, 0.3, 10000, 28)
	// Decisions = settled slots; updates = completed experiences. Every
	// decision opens an experience completed at the *next* decision
	// point, so they can differ by at most 1 (the still-pending one).
	diff := m.Decisions() - m.Agent().Updates()
	if diff < 0 || diff > 1 {
		t.Errorf("decisions %d vs updates %d: experiences leaked", m.Decisions(), m.Agent().Updates())
	}
}

func mathAbs(x float64) float64 { return math.Abs(x) }

// TestManagerResetBitIdenticalToFresh: after a full learning run, Reset
// restores the manager so a second run replays bit-identically to a
// freshly built manager — the reuse contract the fleet layer's
// zero-allocation instance lifecycle rests on — without allocating.
func TestManagerResetBitIdenticalToFresh(t *testing.T) {
	runSim := func(m *Manager, seed uint64) slotsim.Metrics {
		sim, err := slotsim.New(slotsim.Config{
			Device:        synthDev(t),
			Arrivals:      mustBernoulli(t, 0.25),
			QueueCap:      8,
			Policy:        m,
			Stream:        rng.New(seed),
			LatencyWeight: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		met, err := sim.Run(4000, nil)
		if err != nil {
			t.Fatal(err)
		}
		return met
	}

	reused, err := New(managerConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	runSim(reused, 21) // dirty the table, schedule, and pending state

	stream := rng.New(1) // fresh exploration stream, same seed as cfg
	allocs := testing.AllocsPerRun(1, func() { reused.Reset(stream) })
	if allocs != 0 {
		t.Fatalf("Manager.Reset allocates %.1f times", allocs)
	}
	reused.Reset(rng.New(1))
	fresh, err := New(managerConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	a, b := runSim(reused, 33), runSim(fresh, 33)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reset manager run diverges from fresh:\n%+v\nvs\n%+v", a, b)
	}
	if reused.Decisions() != fresh.Decisions() {
		t.Fatalf("decision counters diverge: %d vs %d", reused.Decisions(), fresh.Decisions())
	}
	if g, w := reused.Agent().Updates(), fresh.Agent().Updates(); g != w {
		t.Fatalf("update counters diverge: %d vs %d", g, w)
	}
}

// mustBernoulli builds a Bernoulli arrival process or fails the test.
func mustBernoulli(t *testing.T, p float64) workload.Arrivals {
	t.Helper()
	arr, err := workload.NewBernoulli(p)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}
