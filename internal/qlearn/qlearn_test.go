package qlearn

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func defaultCfg() Config {
	return Config{
		NumStates:  4,
		NumActions: 2,
		Gamma:      0.9,
		Alpha:      Polynomial{Scale: 0.1},
		Explore:    EpsGreedy{Eps: 0.1},
	}
}

func TestNewAgentValidation(t *testing.T) {
	good := defaultCfg()
	if _, err := NewAgent(good); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(Config) Config
	}{
		{"zero states", func(c Config) Config { c.NumStates = 0; return c }},
		{"zero actions", func(c Config) Config { c.NumActions = 0; return c }},
		{"gamma 0", func(c Config) Config { c.Gamma = 0; return c }},
		{"gamma 1", func(c Config) Config { c.Gamma = 1; return c }},
		{"alpha > 1", func(c Config) Config { c.Alpha = Polynomial{Scale: 1.5}; return c }},
		{"alpha 0", func(c Config) Config { c.Alpha = Polynomial{Scale: 0}; return c }},
		{"nil explorer", func(c Config) Config { c.Explore = nil; return c }},
		{"bad trace lambda", func(c Config) Config { c.TraceLambda = 1; return c }},
		{"traces with sarsa", func(c Config) Config { c.Rule = SARSA; c.TraceLambda = 0.5; return c }},
	}
	for _, tc := range cases {
		if _, err := NewAgent(tc.mut(good)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestSchedules(t *testing.T) {
	p := Polynomial{Scale: 1, Omega: 0.5}
	if a := p.Alpha(4); math.Abs(a-0.5) > 1e-12 {
		t.Errorf("polynomial alpha %v", a)
	}
	// Monotone nonincreasing.
	for n := int64(1); n < 100; n++ {
		if p.Alpha(n+1) > p.Alpha(n) {
			t.Fatal("polynomial schedule not monotone")
		}
	}
	// Omega 0 is the constant rate C and Omega 1 the harmonic rate S/n,
	// bit for bit, through the agent's memo (n < alphaMemoSize, asked
	// twice so the second read is a hit) and past it.
	visits := []int64{1, 2, 3, 7, alphaMemoSize - 1, alphaMemoSize, alphaMemoSize + 1, 12345, 2000000}
	for _, scale := range []float64{0.1, 0.25, 0.5, 1, 1.0 / 3, 0.7} {
		for _, omega := range []float64{0, 1} {
			cfg := defaultCfg()
			cfg.Alpha = Polynomial{Scale: scale, Omega: omega}
			agent, err := NewAgent(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range visits {
				want := scale
				if omega == 1 {
					want = scale / float64(n)
				}
				for range 2 {
					if got := agent.alpha(n); got != want {
						t.Fatalf("Polynomial{%v, %v} at n=%d: alpha %v, want %v", scale, omega, n, got, want)
					}
				}
			}
		}
	}
}

func TestEpsGreedyDecay(t *testing.T) {
	e := EpsGreedy{Eps: 1, MinEps: 0.01, DecayTau: 100}
	if e.Epsilon(0) != 1 {
		t.Errorf("eps(0) = %v", e.Epsilon(0))
	}
	if e.Epsilon(1000000) != 0.01 {
		t.Errorf("eps floor = %v", e.Epsilon(1000000))
	}
	if e.Epsilon(100) >= e.Epsilon(0) {
		t.Error("epsilon did not decay")
	}
	// Constant when tau == 0.
	c := EpsGreedy{Eps: 0.3}
	if c.Epsilon(1e6) != 0.3 {
		t.Error("constant epsilon drifted")
	}
}

func TestEpsGreedySelectGreedyWhenEpsZero(t *testing.T) {
	e := EpsGreedy{Eps: 0}
	s := rng.New(1)
	q := []float64{1, 5, 3}
	for i := 0; i < 100; i++ {
		idx, explored := e.Select(q, 0, s)
		if idx != 1 || explored {
			t.Fatalf("greedy select returned %d explored=%v", idx, explored)
		}
	}
}

func TestEpsGreedyExplorationFraction(t *testing.T) {
	e := EpsGreedy{Eps: 0.25}
	s := rng.New(2)
	q := []float64{10, 0}
	exp := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if _, explored := e.Select(q, 0, s); explored {
			exp++
		}
	}
	if f := float64(exp) / n; math.Abs(f-0.25) > 0.01 {
		t.Errorf("exploration fraction %v, want 0.25", f)
	}
}

func TestArgmaxRandomTieBreak(t *testing.T) {
	s := rng.New(3)
	q := []float64{1, 1, 0}
	counts := [3]int{}
	for i := 0; i < 10000; i++ {
		counts[argmax(q, s)]++
	}
	if counts[2] != 0 {
		t.Error("argmax picked a non-maximal action")
	}
	if counts[0] < 4000 || counts[1] < 4000 {
		t.Errorf("tie-break skewed: %v", counts)
	}
}

func TestBoltzmannPrefersHigherQ(t *testing.T) {
	b := Boltzmann{Temp: 1}
	s := rng.New(4)
	q := []float64{0, 2}
	hi := 0
	const n = 100000
	for i := 0; i < n; i++ {
		idx, _ := b.Select(q, 0, s)
		if idx == 1 {
			hi++
		}
	}
	// P(hi) = e^2/(1+e^2) ≈ 0.881.
	want := math.Exp(2) / (1 + math.Exp(2))
	if f := float64(hi) / n; math.Abs(f-want) > 0.01 {
		t.Errorf("boltzmann P(hi) = %v, want %v", f, want)
	}
}

// TestBoltzmannTemperatureDecay pins T(t) = max(MinTemp, Temp·e^(−t/τ))
// at the start, after one time constant and past the floor, and a
// constant T when τ is unset.
func TestBoltzmannTemperatureDecay(t *testing.T) {
	b := Boltzmann{Temp: 2, MinTemp: 0.05, DecayTau: 30000}
	if got := b.temperature(0); got != 2 {
		t.Errorf("T(0) = %v, want 2", got)
	}
	if got, want := b.temperature(30000), 2*math.Exp(-1); got != want {
		t.Errorf("T(τ) = %v, want %v", got, want)
	}
	// 2·e^(−4) ≈ 0.037 is below the floor.
	if got := b.temperature(120000); got != 0.05 {
		t.Errorf("T(4τ) = %v, want the 0.05 floor", got)
	}
	if got := (Boltzmann{Temp: 2, MinTemp: 0.05}).temperature(1e9); got != 2 {
		t.Errorf("undecayed T = %v, want 2", got)
	}
}

func TestBoltzmannZeroTempIsGreedy(t *testing.T) {
	b := Boltzmann{Temp: 0}
	s := rng.New(5)
	q := []float64{0, 3, 1}
	for i := 0; i < 50; i++ {
		idx, explored := b.Select(q, 0, s)
		if idx != 1 || explored {
			t.Fatalf("zero-temp boltzmann returned %d explored=%v", idx, explored)
		}
	}
}

// twoStateQStar: deterministic 2-state MDP with known Q*.
// State 0: action 0 -> state 0, reward 0; action 1 -> state 1, reward 1.
// State 1: action 0 -> state 1, reward 2; action 1 -> state 0, reward 0.
// γ = 0.5. Optimal: from 0 go to 1, in 1 stay.
// Q*(1,0) = 2 + 0.5·Q*(1,0) -> 4. Q*(0,1) = 1 + 0.5·4 = 3.
// Q*(1,1) = 0 + 0.5·Q*(0,·)max = 0.5·3 = 1.5. Q*(0,0) = 0 + 0.5·3 = 1.5.
type toyEnv struct{ state int }

func (e *toyEnv) step(action int) (reward float64, next int) {
	switch {
	case e.state == 0 && action == 0:
		return 0, 0
	case e.state == 0 && action == 1:
		return 1, 1
	case e.state == 1 && action == 0:
		return 2, 1
	default:
		return 0, 0
	}
}

func runToy(t *testing.T, cfg Config, steps int, seed uint64) *Agent {
	t.Helper()
	agent, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(seed)
	env := &toyEnv{}
	legal := []int{0, 1}
	for i := 0; i < steps; i++ {
		st := env.state
		act, _ := agent.SelectAction(st, legal, s)
		r, next := env.step(act)
		env.state = next
		if cfg.Rule == SARSA {
			// Delayed: emulate by immediately selecting next action
			// deterministically for the update (greedy SARSA approx in
			// test harness: select then step loop keeps it on-policy).
			nextAct, _ := agent.SelectAction(next, legal, s)
			agent.UpdateSARSA(st, act, r, next, nextAct, 1)
			// Take the chosen action next iteration: rewind env by
			// setting a pending action is complex; instead accept the
			// extra selection — SARSA convergence in expectation still
			// holds for this smoke test.
			agent.stepBack()
			continue
		}
		agent.Update(st, act, r, next, legal, 1, s)
	}
	return agent
}

// stepBack undoes the extra SelectAction the SARSA test harness performs.
func (a *Agent) stepBack() { a.step-- }

func TestWatkinsConvergesToQStar(t *testing.T) {
	cfg := Config{
		NumStates: 2, NumActions: 2, Gamma: 0.5,
		Alpha:   Polynomial{Scale: 1, Omega: 0.7},
		Explore: EpsGreedy{Eps: 0.3},
	}
	agent := runToy(t, cfg, 200000, 7)
	want := map[[2]int]float64{
		{0, 0}: 1.5, {0, 1}: 3, {1, 0}: 4, {1, 1}: 1.5,
	}
	for k, w := range want {
		if got := agent.Q(k[0], k[1]); math.Abs(got-w) > 0.05 {
			t.Errorf("Q(%d,%d) = %v, want %v", k[0], k[1], got, w)
		}
	}
	if agent.Greedy(0, []int{0, 1}) != 1 || agent.Greedy(1, []int{0, 1}) != 0 {
		t.Error("greedy policy not optimal")
	}
}

func TestDoubleQConvergesToQStar(t *testing.T) {
	cfg := Config{
		NumStates: 2, NumActions: 2, Gamma: 0.5,
		Alpha:   Polynomial{Scale: 1, Omega: 0.7},
		Explore: EpsGreedy{Eps: 0.3},
		Rule:    DoubleQ,
	}
	agent := runToy(t, cfg, 300000, 8)
	if got := agent.Q(1, 0); math.Abs(got-4) > 0.1 {
		t.Errorf("double-Q Q(1,0) = %v, want 4", got)
	}
	if agent.Greedy(0, []int{0, 1}) != 1 {
		t.Error("double-Q greedy policy not optimal")
	}
}

func TestSARSAWithLowExplorationApproachesQStar(t *testing.T) {
	cfg := Config{
		NumStates: 2, NumActions: 2, Gamma: 0.5,
		Alpha:   Polynomial{Scale: 1, Omega: 0.7},
		Explore: EpsGreedy{Eps: 0.5, MinEps: 0.01, DecayTau: 20000},
		Rule:    SARSA,
	}
	agent := runToy(t, cfg, 300000, 9)
	// With ε → 0.01, SARSA's fixed point is within a whisker of Q*.
	if got := agent.Q(1, 0); math.Abs(got-4) > 0.25 {
		t.Errorf("SARSA Q(1,0) = %v, want ≈4", got)
	}
	if agent.Greedy(1, []int{0, 1}) != 0 {
		t.Error("SARSA greedy policy not optimal in state 1")
	}
}

func TestTracesAccelerateSparseReward(t *testing.T) {
	// Chain MDP: states 0..4, action 0 moves right, reward 1 only on
	// reaching state 4 (then reset to 0). With traces, credit flows back
	// along the chain in far fewer episodes.
	run := func(lambda float64, steps int) float64 {
		cfg := Config{
			NumStates: 5, NumActions: 1, Gamma: 0.9,
			Alpha:       Polynomial{Scale: 0.2},
			Explore:     EpsGreedy{Eps: 0},
			TraceLambda: lambda,
		}
		agent, err := NewAgent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := rng.New(10)
		state := 0
		legal := []int{0}
		for i := 0; i < steps; i++ {
			act, _ := agent.SelectAction(state, legal, s)
			var r float64
			next := state + 1
			if next == 4 {
				r, next = 1, 0
			}
			agent.Update(state, act, r, next, legal, 1, s)
			state = next
		}
		return agent.Q(0, 0)
	}
	const steps = 60
	without := run(0, steps)
	with := run(0.9, steps)
	if with <= without {
		t.Errorf("traces did not accelerate: Q(0,0) with=%v without=%v", with, without)
	}
}

func TestSMDPElapsedDiscount(t *testing.T) {
	// A 3-slot transition must discount the bootstrap by γ³.
	cfg := Config{
		NumStates: 2, NumActions: 1, Gamma: 0.5,
		Alpha:   Polynomial{Scale: 1}, // full overwrite for exactness
		Explore: EpsGreedy{Eps: 0},
	}
	agent, _ := NewAgent(cfg)
	agent.q[agent.idx(1, 0)] = 8
	s := rng.New(11)
	agent.Update(0, 0, 2, 1, []int{0}, 3, s)
	// target = 2 + 0.5³·8 = 3.
	if got := agent.Q(0, 0); math.Abs(got-3) > 1e-12 {
		t.Errorf("SMDP update gave %v, want 3", got)
	}
}

func TestUpdateSARSAOnWrongRulePanics(t *testing.T) {
	agent, _ := NewAgent(defaultCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("UpdateSARSA on Watkins agent did not panic")
		}
	}()
	agent.UpdateSARSA(0, 0, 0, 0, 0, 1)
}

func TestUpdateComponentUsesOwnVisitRate(t *testing.T) {
	// Harmonic 1/n: the pair's first share moves Q by weight·delta, its
	// second by half of that; another pair starts again at its first.
	agent, _ := NewAgent(Config{
		NumStates: 2, NumActions: 1, Gamma: 0.5,
		Alpha: Polynomial{Scale: 1, Omega: 1}, Explore: EpsGreedy{Eps: 0},
	})
	agent.UpdateComponent(0, 0, 0.5, 4)
	agent.UpdateComponent(0, 0, 0.5, 4)
	agent.UpdateComponent(1, 0, 0.25, 4)
	if got := agent.Q(0, 0); got != 2+1 {
		t.Errorf("Q(0,0) = %v, want 3", got)
	}
	if got := agent.Q(1, 0); got != 1 {
		t.Errorf("Q(1,0) = %v, want 1", got)
	}
	if agent.Visits(0, 0) != 2 || agent.Visits(1, 0) != 1 || agent.Updates() != 3 {
		t.Errorf("visits %d/%d, updates %d; want 2/1, 3", agent.Visits(0, 0), agent.Visits(1, 0), agent.Updates())
	}
	sarsa := defaultCfg()
	sarsa.Rule = SARSA
	other, _ := NewAgent(sarsa)
	defer func() {
		if recover() == nil {
			t.Fatal("UpdateComponent on a SARSA agent did not panic")
		}
	}()
	other.UpdateComponent(0, 0, 1, 1)
}

func TestSelectActionEmptyLegalPanics(t *testing.T) {
	agent, _ := NewAgent(defaultCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("empty legal set did not panic")
		}
	}()
	agent.SelectAction(0, nil, rng.New(1))
}

func TestBytesFootprint(t *testing.T) {
	cfg := defaultCfg() // 4 states × 2 actions
	agent, _ := NewAgent(cfg)
	if b := agent.Bytes(); b != 4*2*8*2 { // q + visits
		t.Errorf("Bytes = %d, want 128", b)
	}
	cfg.Rule = DoubleQ
	agent2, _ := NewAgent(cfg)
	if agent2.Bytes() <= agent.Bytes() {
		t.Error("DoubleQ footprint not larger")
	}
}

func TestVisitsAndUpdatesCounters(t *testing.T) {
	agent, _ := NewAgent(defaultCfg())
	s := rng.New(12)
	agent.Update(1, 0, 1, 2, []int{0, 1}, 1, s)
	agent.Update(1, 0, 1, 2, []int{0, 1}, 1, s)
	if agent.Visits(1, 0) != 2 {
		t.Errorf("visits %d, want 2", agent.Visits(1, 0))
	}
	if agent.Updates() != 2 {
		t.Errorf("updates %d, want 2", agent.Updates())
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	mk := func() *Agent {
		return runToy(t, Config{
			NumStates: 2, NumActions: 2, Gamma: 0.5,
			Alpha:   Polynomial{Scale: 0.1},
			Explore: EpsGreedy{Eps: 0.2},
		}, 5000, 99)
	}
	a, b := mk(), mk()
	for s := 0; s < 2; s++ {
		for act := 0; act < 2; act++ {
			if a.Q(s, act) != b.Q(s, act) {
				t.Fatal("identical seeds produced different tables")
			}
		}
	}
}

func BenchmarkQStep(b *testing.B) {
	// One decision + one update: the paper's entire per-interval runtime.
	agent, err := NewAgent(Config{
		NumStates: 99, NumActions: 3, Gamma: 0.95,
		Alpha:   Polynomial{Scale: 0.1},
		Explore: EpsGreedy{Eps: 0.05},
	})
	if err != nil {
		b.Fatal(err)
	}
	s := rng.New(1)
	legal := []int{0, 1, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := i % 99
		act, _ := agent.SelectAction(st, legal, s)
		agent.Update(st, act, -0.5, (st+1)%99, legal, 1, s)
	}
}

// TestResetBitIdenticalToFresh: after a learning episode, Reset restores
// the agent so a second episode replays bit-identically to a fresh
// agent's first — and allocates nothing.
func TestResetBitIdenticalToFresh(t *testing.T) {
	for _, cfg := range []Config{
		{NumStates: 4, NumActions: 3, Gamma: 0.9, Alpha: Polynomial{Scale: 0.1},
			Explore: EpsGreedy{Eps: 0.2}},
		{NumStates: 4, NumActions: 3, Gamma: 0.9, Alpha: Polynomial{Scale: 0.1},
			Explore: EpsGreedy{Eps: 0.2}, Rule: DoubleQ},
		{NumStates: 4, NumActions: 3, Gamma: 0.9, Alpha: Polynomial{Scale: 0.1},
			Explore: EpsGreedy{Eps: 0.2}, TraceLambda: 0.5},
	} {
		reused, err := NewAgent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		legal := []int{0, 1, 2}
		episode := func(a *Agent, seed uint64) {
			stream := rng.New(seed)
			s := 0
			for i := 0; i < 2000; i++ {
				act, _ := a.SelectAction(s, legal, stream)
				next := (s + act + 1) % cfg.NumStates
				a.Update(s, act, -float64(act), next, legal, 1+i%3, stream)
				s = next
			}
		}
		episode(reused, 7) // dirty every counter and table cell
		allocs := testing.AllocsPerRun(1, func() { reused.Reset() })
		if allocs != 0 {
			t.Fatalf("rule %v: Reset allocates %.1f times", cfg.Rule, allocs)
		}
		episode(reused, 11)
		fresh, err := NewAgent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		episode(fresh, 11)
		for s := 0; s < cfg.NumStates; s++ {
			for act := 0; act < cfg.NumActions; act++ {
				if reused.Q(s, act) != fresh.Q(s, act) {
					t.Fatalf("rule %v: reset agent Q(%d,%d)=%v != fresh %v",
						cfg.Rule, s, act, reused.Q(s, act), fresh.Q(s, act))
				}
				if reused.Visits(s, act) != fresh.Visits(s, act) {
					t.Fatalf("rule %v: visit counters diverge at (%d,%d)", cfg.Rule, s, act)
				}
			}
		}
		if reused.Step() != fresh.Step() || reused.Updates() != fresh.Updates() {
			t.Fatalf("rule %v: counters diverge: step %d/%d updates %d/%d",
				cfg.Rule, reused.Step(), fresh.Step(), reused.Updates(), fresh.Updates())
		}
	}
}
