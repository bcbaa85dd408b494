package slotsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/workload"
)

// stayPolicy always keeps the current state.
type stayPolicy struct{}

func (stayPolicy) Name() string                        { return "stay" }
func (stayPolicy) Decide(o Observation) device.StateID { return o.Phase }

// gotoPolicy always requests a fixed state.
type gotoPolicy struct{ target device.StateID }

func (p gotoPolicy) Name() string                      { return "goto" }
func (p gotoPolicy) Decide(Observation) device.StateID { return p.target }

// recordingLearner captures feedback for assertions.
type recordingLearner struct {
	stayPolicy
	fbs []Feedback
}

func (r *recordingLearner) Observe(fb *Feedback) { r.fbs = append(r.fbs, *fb) }

func synth() *device.Slotted {
	s, err := device.Synthetic3().Slot(0.5)
	if err != nil {
		panic(err)
	}
	return s
}

func mustBern(p float64) workload.Arrivals {
	b, err := workload.NewBernoulli(p)
	if err != nil {
		panic(err)
	}
	return b
}

func baseConfig(pol Policy, p float64, seed uint64) Config {
	return Config{
		Device:        synth(),
		Arrivals:      mustBern(p),
		QueueCap:      8,
		Policy:        pol,
		Stream:        rng.New(seed),
		LatencyWeight: 0.05,
	}
}

func TestConfigValidation(t *testing.T) {
	valid := baseConfig(stayPolicy{}, 0.1, 1)
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name string
		mut  func(c Config) Config
	}{
		{"nil device", func(c Config) Config { c.Device = nil; return c }},
		{"nil arrivals", func(c Config) Config { c.Arrivals = nil; return c }},
		{"nil policy", func(c Config) Config { c.Policy = nil; return c }},
		{"nil stream", func(c Config) Config { c.Stream = nil; return c }},
		{"negative qcap", func(c Config) Config { c.QueueCap = -1; return c }},
		{"negative latw", func(c Config) Config { c.LatencyWeight = -1; return c }},
		{"zero latw", func(c Config) Config { c.LatencyWeight = 0; return c }},
		{"bad initial state", func(c Config) Config { c.InitialState = 99; return c }},
	}
	for _, m := range mutations {
		c := m.mut(valid)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", m.name)
		}
	}
}

func TestAlwaysActiveEnergyExact(t *testing.T) {
	// Staying active for N slots must consume exactly N × 1.0 J on the
	// synthetic3 device.
	sim, err := New(baseConfig(stayPolicy{}, 0.2, 2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.EnergyJ-1000) > 1e-9 {
		t.Errorf("energy %v, want 1000", m.EnergyJ)
	}
	if m.StateSlots[0] != 1000 {
		t.Errorf("active slots %d, want 1000", m.StateSlots[0])
	}
	if got := m.AvgPowerW(0.5); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("avg power %v W, want 2.0", got)
	}
}

func TestRequestConservation(t *testing.T) {
	sim, err := New(baseConfig(stayPolicy{}, 0.6, 3))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(20000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Arrived != m.Served+m.Lost+int64(sim.Observe().Queue) {
		t.Errorf("conservation violated: arrived %d != served %d + lost %d + backlog %d",
			m.Arrived, m.Served, m.Lost, sim.Observe().Queue)
	}
	if m.Lost != 0 {
		t.Errorf("active server at λ=0.6 < μ=1 lost %d requests", m.Lost)
	}
}

func TestActiveServerClearsQueueEachSlot(t *testing.T) {
	// With Bernoulli arrivals (≤1/slot) and an always-active server
	// serving 1/slot, every request is served in its arrival slot.
	sim, _ := New(baseConfig(stayPolicy{}, 0.5, 4))
	m, _ := sim.Run(10000, nil)
	if m.WaitSlots != 0 {
		t.Errorf("always-active with ≤1 arrival/slot accrued %d wait slots", m.WaitSlots)
	}
	if m.MeanBacklog() != 0 {
		t.Errorf("mean backlog %v, want 0", m.MeanBacklog())
	}
}

func TestTransitionMechanics(t *testing.T) {
	// Command sleep (state 2) from active: latency 1 slot (0.5s at 0.5s
	// slots), energy 0.3 J. Then it stays asleep.
	dev := synth()
	sim, err := New(Config{
		Device: dev, Arrivals: mustBern(0), QueueCap: 8,
		Policy: gotoPolicy{target: 2}, Stream: rng.New(5), LatencyWeight: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0: transition slot (1 slot, 0.3 J).
	rec := sim.Step()
	if !rec.Transitioning {
		t.Fatal("slot 0 should be a transition slot")
	}
	if math.Abs(rec.Energy-0.3) > 1e-12 {
		t.Errorf("transition slot energy %v, want 0.3", rec.Energy)
	}
	// Slot 1 onward: sleeping at 0.05 J/slot.
	rec = sim.Step()
	if rec.Transitioning || rec.Phase != 2 {
		t.Fatalf("slot 1 should be settled in sleep, got phase %d transitioning %v", rec.Phase, rec.Transitioning)
	}
	if math.Abs(rec.Energy-0.05) > 1e-12 {
		t.Errorf("sleep slot energy %v, want 0.05", rec.Energy)
	}
	m := sim.Metrics()
	if m.Commands != 1 {
		t.Errorf("commands %d, want 1", m.Commands)
	}
	if m.TransitionSlots != 1 {
		t.Errorf("transition slots %d, want 1", m.TransitionSlots)
	}
}

func TestMultiSlotWakeup(t *testing.T) {
	// From sleep, waking takes 3 slots and 2.5 J on synthetic3.
	dev := synth()
	sim, err := New(Config{
		Device: dev, Arrivals: mustBern(0), QueueCap: 8,
		Policy: gotoPolicy{target: 0}, Stream: rng.New(6),
		LatencyWeight: 0.05, InitialState: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var energy float64
	for i := 0; i < 3; i++ {
		rec := sim.Step()
		if !rec.Transitioning {
			t.Fatalf("slot %d should be transitioning", i)
		}
		energy += rec.Energy
	}
	if math.Abs(energy-2.5) > 1e-9 {
		t.Errorf("wakeup energy %v, want 2.5", energy)
	}
	rec := sim.Step()
	if rec.Transitioning || rec.Phase != 0 {
		t.Fatalf("after wakeup: phase %d transitioning %v", rec.Phase, rec.Transitioning)
	}
	// No service during the transition: requests queued... none here (p=0).
	if sim.Metrics().Commands != 1 {
		t.Errorf("commands %d, want 1", sim.Metrics().Commands)
	}
}

func TestNoServiceDuringTransition(t *testing.T) {
	// Arrivals at rate 1 while the device wakes from sleep must queue.
	dev := synth()
	sim, err := New(Config{
		Device: dev, Arrivals: mustBern(1), QueueCap: 8,
		Policy: gotoPolicy{target: 0}, Stream: rng.New(7),
		LatencyWeight: 0.05, InitialState: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec := sim.Step()
		if rec.Served != 0 {
			t.Fatalf("served %d during transition slot %d", rec.Served, i)
		}
	}
	if q := sim.Observe().Queue; q != 3 {
		t.Errorf("backlog after 3-slot wakeup at rate 1 = %d, want 3", q)
	}
}

func TestDisallowedCommandClamped(t *testing.T) {
	// HDD forbids sleep -> standby; command it and verify the clamp.
	hdd, err := device.HDD().Slot(0.5)
	if err != nil {
		t.Fatal(err)
	}
	sleep, _ := hdd.PSM.StateByName("sleep")
	standby, _ := hdd.PSM.StateByName("standby")
	sim, err := New(Config{
		Device: hdd, Arrivals: mustBern(0), QueueCap: 8,
		Policy: gotoPolicy{target: standby}, Stream: rng.New(8),
		LatencyWeight: 0.05, InitialState: sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := sim.Step()
	if rec.Transitioning {
		t.Fatal("forbidden command caused a transition")
	}
	m := sim.Metrics()
	if m.Clamped != 1 || m.Commands != 0 {
		t.Errorf("clamped %d commands %d, want 1/0", m.Clamped, m.Commands)
	}
}

func TestOutOfRangeCommandClamped(t *testing.T) {
	sim, _ := New(baseConfig(gotoPolicy{target: 99}, 0.1, 9))
	sim.Step()
	if m := sim.Metrics(); m.Clamped != 1 {
		t.Errorf("out-of-range command not clamped: %+v", m)
	}
}

func TestLearnerReceivesFeedback(t *testing.T) {
	l := &recordingLearner{}
	sim, err := New(baseConfig(l, 0.5, 10))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(100, nil)
	if len(l.fbs) != 100 {
		t.Fatalf("learner saw %d feedbacks, want 100", len(l.fbs))
	}
	for i, fb := range l.fbs {
		if fb.Next.Slot != fb.Prev.Slot+1 {
			t.Fatalf("feedback %d: slots %d -> %d", i, fb.Prev.Slot, fb.Next.Slot)
		}
		if fb.Energy < 0 {
			t.Fatalf("feedback %d: energy %v", i, fb.Energy)
		}
	}
}

// chainLearner records, for every slot, the observation Decide saw (if
// the simulator consulted it), the feedback it was handed and the
// simulator's own Observe() at delivery. Its rule cycles the device
// through its latent transitions: wake on backlog (three slots out of
// sleep), idle while recently busy, sleep after threshold idle slots.
type chainLearner struct {
	sim       *Sim
	threshold int64

	decided bool
	seen    Observation

	decides []bool        // slot i consulted Decide
	seens   []Observation // what that Decide saw
	fbs     []Feedback
	afters  []Observation // sim.Observe() when slot i's feedback arrived
}

func (l *chainLearner) Name() string { return "chain-recorder" }

func (l *chainLearner) Decide(o Observation) device.StateID {
	l.decided, l.seen = true, o
	switch {
	case o.Queue > 0:
		return 0
	case o.IdleSlots >= l.threshold:
		return 2
	default:
		return 1
	}
}

func (l *chainLearner) Observe(fb *Feedback) {
	l.decides = append(l.decides, l.decided)
	l.seens = append(l.seens, l.seen)
	l.fbs = append(l.fbs, *fb)
	l.afters = append(l.afters, l.sim.Observe())
	l.decided = false
}

// TestSlotFeedbackChain pins what the slotted simulator promises a
// learner: fb.Prev is the observation Decide saw that slot, or, on a
// latent-transition slot where Decide is skipped, Observe() taken before
// the step; fb.Next is Observe() after the step; and each slot opens on
// the observation the previous one closed with. It runs through Run's
// record-free loop and through Step.
func TestSlotFeedbackChain(t *testing.T) {
	const slots = 3000
	for _, viaStep := range []bool{false, true} {
		name := "run"
		if viaStep {
			name = "step"
		}
		t.Run(name, func(t *testing.T) {
			l := &chainLearner{threshold: 4}
			sim, err := New(baseConfig(l, 0.2, 21))
			if err != nil {
				t.Fatal(err)
			}
			l.sim = sim
			befores := []Observation{sim.Observe()}
			if viaStep {
				for i := 0; i < slots; i++ {
					sim.Step()
					after := sim.Observe()
					if after != l.afters[i] {
						t.Fatalf("slot %d: Observe() after Step = %+v, at feedback %+v", i, after, l.afters[i])
					}
					befores = append(befores, after)
				}
			} else {
				if _, err := sim.Run(slots, nil); err != nil {
					t.Fatal(err)
				}
				befores = append(befores, l.afters...)
				if after := sim.Observe(); after != l.afters[slots-1] {
					t.Fatalf("Observe() after Run = %+v, at the last feedback %+v", after, l.afters[slots-1])
				}
			}
			if len(l.fbs) != slots {
				t.Fatalf("learner saw %d feedbacks, want %d", len(l.fbs), slots)
			}
			latent, wakeups := 0, 0
			for i, fb := range l.fbs {
				before := befores[i]
				if l.decides[i] {
					if l.seens[i] != before {
						t.Fatalf("slot %d: Decide saw %+v, Observe() before the step was %+v", i, l.seens[i], before)
					}
					if fb.Prev != l.seens[i] {
						t.Fatalf("slot %d: Prev = %+v, Decide saw %+v", i, fb.Prev, l.seens[i])
					}
				} else {
					if !before.Transitioning {
						t.Fatalf("slot %d: Decide skipped on a settled device %+v", i, before)
					}
					if fb.Prev != before {
						t.Fatalf("slot %d: Prev = %+v, Observe() before the step was %+v", i, fb.Prev, before)
					}
					latent++
					// A latent slot after another latent slot lies
					// inside a transition of three or more slots.
					if i > 0 && !l.decides[i-1] {
						wakeups++
					}
				}
				if fb.Next != l.afters[i] {
					t.Fatalf("slot %d: Next = %+v, Observe() after the step was %+v", i, fb.Next, l.afters[i])
				}
				if i+1 < len(l.fbs) && fb.Next != l.fbs[i+1].Prev {
					t.Fatalf("slot %d: Next = %+v, but slot %d opens on %+v", i, fb.Next, i+1, l.fbs[i+1].Prev)
				}
			}
			if latent == 0 || wakeups == 0 {
				t.Fatalf("chain too thin to pin anything: %d latent-transition slots, %d inside multi-slot wake-ups", latent, wakeups)
			}
		})
	}
}

func TestIdleSlotsTracking(t *testing.T) {
	// Rate-0 arrivals: idle counter grows and saturates.
	sim, err := New(baseConfig(stayPolicy{}, 0, 11))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(IdleSaturation+100, nil)
	if got := sim.Observe().IdleSlots; got != IdleSaturation {
		t.Errorf("idle slots %d, want saturation %d", got, IdleSaturation)
	}
	// Rate-1 arrivals: idle counter pinned at 0.
	sim2, _ := New(baseConfig(stayPolicy{}, 1, 12))
	sim2.Run(50, nil)
	if got := sim2.Observe().IdleSlots; got != 0 {
		t.Errorf("idle slots %d under rate-1 arrivals, want 0", got)
	}
}

func TestQueueOverflowCounted(t *testing.T) {
	// Sleeping device, rate-1 arrivals, cap 4: exactly cap requests
	// retained, the rest lost.
	sim, err := New(Config{
		Device: synth(), Arrivals: mustBern(1), QueueCap: 4,
		Policy: stayPolicy{}, Stream: rng.New(13),
		LatencyWeight: 0.05, InitialState: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := sim.Run(10, nil)
	if m.Lost != 6 {
		t.Errorf("lost %d, want 6", m.Lost)
	}
	if sim.Observe().Queue != 4 {
		t.Errorf("backlog %d, want 4", sim.Observe().Queue)
	}
}

// TestWaitAccounting: each served request waits the whole slots from
// its arrival slot to its service slot, in FIFO order.
func TestWaitAccounting(t *testing.T) {
	arr, err := workload.NewPlayback([]int{3, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{
		Device: synth(), Arrivals: arr, QueueCap: 8,
		Policy: stayPolicy{}, Stream: rng.New(15), LatencyWeight: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One service per slot: the slot-0 burst waits 0, 1 and 2 slots; the
	// slot-3 arrival is served at once.
	for _, want := range []int64{0, 1, 3, 3} {
		sim.Step()
		if got := sim.Metrics().WaitSlots; got != want {
			t.Fatalf("slot %d: wait slots %d, want %d", sim.Observe().Slot-1, got, want)
		}
	}
	m := sim.Metrics()
	if m.Served != 4 || m.MeanWaitSlots() != 0.75 {
		t.Fatalf("served %d, mean wait %v; want 4, 0.75", m.Served, m.MeanWaitSlots())
	}
}

func TestRunNegativeRejected(t *testing.T) {
	sim, _ := New(baseConfig(stayPolicy{}, 0.1, 14))
	if _, err := sim.Run(-1, nil); err == nil {
		t.Fatal("negative run accepted")
	}
}

func TestObserverSeesEverySlot(t *testing.T) {
	sim, _ := New(baseConfig(stayPolicy{}, 0.3, 15))
	var slots []int64
	sim.Run(50, func(r SlotRecord) { slots = append(slots, r.Slot) })
	if len(slots) != 50 {
		t.Fatalf("observer called %d times", len(slots))
	}
	for i, s := range slots {
		if s != int64(i) {
			t.Fatalf("observer slot %d = %d", i, s)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() Metrics {
		sim, _ := New(baseConfig(stayPolicy{}, 0.4, 77))
		m, _ := sim.Run(5000, nil)
		return m
	}
	a, b := run(), run()
	if a.EnergyJ != b.EnergyJ || a.Arrived != b.Arrived || a.CostTotal != b.CostTotal {
		t.Error("identical configs+seeds produced different metrics")
	}
}

func TestCostDecomposition(t *testing.T) {
	// CostTotal == EnergyJ + LatencyWeight * BacklogSum.
	sim, _ := New(Config{
		Device: synth(), Arrivals: mustBern(0.9), QueueCap: 8,
		Policy: stayPolicy{}, Stream: rng.New(16),
		LatencyWeight: 0.07, InitialState: 2, // sleeping: backlog builds
	})
	m, _ := sim.Run(3000, nil)
	want := m.EnergyJ + 0.07*float64(m.BacklogSum)
	if math.Abs(m.CostTotal-want) > 1e-6 {
		t.Errorf("cost %v != energy %v + w*backlog %v", m.CostTotal, m.EnergyJ, want)
	}
}

// Property: conservation and non-negative metrics hold for random seeds,
// rates, and initial states.
func TestInvariantsProperty(t *testing.T) {
	f := func(seed uint64, pRaw, initRaw uint8) bool {
		p := float64(pRaw%101) / 100
		arr, err := workload.NewBernoulli(p)
		if err != nil {
			return false
		}
		sim, err := New(Config{
			Device: synth(), Arrivals: arr, QueueCap: 8,
			Policy: stayPolicy{}, Stream: rng.New(seed),
			LatencyWeight: 0.05, InitialState: device.StateID(initRaw % 3),
		})
		if err != nil {
			return false
		}
		m, err := sim.Run(2000, nil)
		if err != nil {
			return false
		}
		if m.Arrived != m.Served+m.Lost+int64(sim.Observe().Queue) {
			return false
		}
		if m.EnergyJ < 0 || m.CostTotal < m.EnergyJ-1e-9 {
			return false
		}
		var settled int64
		for _, s := range m.StateSlots {
			settled += s
		}
		return settled+m.TransitionSlots == m.Slots
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// --- Cross-device integration: multi-arrival workloads and multi-serve
// devices exercise the paths Bernoulli+ServePerSlot=1 never touches.

func TestPoissonMultiArrivalConservation(t *testing.T) {
	pois, err := workload.NewPoisson(2.5) // several arrivals per slot
	if err != nil {
		t.Fatal(err)
	}
	hdd, err := device.HDD().Slot(0.5) // ServePerSlot = 41
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{
		Device: hdd, Arrivals: pois, QueueCap: 32,
		Policy: stayPolicy{}, Stream: rng.New(101), LatencyWeight: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(20000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Arrived != m.Served+m.Lost+int64(sim.Observe().Queue) {
		t.Errorf("conservation violated on multi-arrival workload")
	}
	// An active HDD serving 41/slot at λ=2.5 must never lose requests.
	if m.Lost != 0 {
		t.Errorf("active multi-serve device lost %d requests", m.Lost)
	}
	if m.MeanBacklog() != 0 {
		t.Errorf("multi-serve backlog %v, want 0", m.MeanBacklog())
	}
}

func TestMultiServeDrainsBacklogFast(t *testing.T) {
	// Sleeping WLAN accumulates a burst; once woken, ServePerSlot = 250
	// must clear the whole backlog in one slot.
	wlan, err := device.WLAN().Slot(0.5)
	if err != nil {
		t.Fatal(err)
	}
	doze, _ := wlan.PSM.StateByName("doze")
	txrx, _ := wlan.PSM.StateByName("txrx")
	burst, err := workload.NewPoisson(3)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{
		Device: wlan, Arrivals: burst, QueueCap: 64,
		Policy: stayPolicy{}, Stream: rng.New(102),
		LatencyWeight: 0.3, InitialState: doze,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		sim.Step()
	}
	backlog := sim.Observe().Queue
	if backlog == 0 {
		t.Fatal("no backlog accumulated while dozing")
	}
	// Wake and serve: doze->txrx takes 1 slot (0.1s at 0.5s slots)...
	// at 0.5s slots ceil(0.1/0.5)=1 slot. Then one serving slot clears all.
	// A 30-request burst lands in the transition slot.
	burst30, err := workload.NewPlayback([]int{30})
	if err != nil {
		t.Fatal(err)
	}
	sim2, err := New(Config{
		Device: wlan, Arrivals: burst30, QueueCap: 64,
		Policy: gotoPolicy{target: txrx}, Stream: rng.New(103),
		LatencyWeight: 0.3, InitialState: doze,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec := sim2.Step(); !rec.Transitioning || rec.Backlog != 30 {
		t.Fatalf("burst slot: transitioning %v, backlog %d; want true, 30", rec.Transitioning, rec.Backlog)
	}
	rec := sim2.Step()
	if rec.Served != 30 {
		t.Errorf("multi-serve slot served %d, want all 30", rec.Served)
	}
}

func TestSensorRadioEndToEnd(t *testing.T) {
	// Whole-catalog smoke: the sensor radio with a learning policy must
	// satisfy conservation and beat always-on energy at sparse traffic.
	dev, err := device.SensorRadio().Slot(0.05)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := workload.NewBernoulli(0.01)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{
		Device: dev, Arrivals: arr, QueueCap: 4,
		Policy: gotoPolicy{target: 2}, // park in sleep; wake never — stress clamp paths
		Stream: rng.New(104), LatencyWeight: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(50000, nil)
	if err != nil {
		t.Fatal(err)
	}
	alwaysOnEnergy := dev.StateEnergy[0] * float64(m.Slots)
	if m.EnergyJ >= alwaysOnEnergy {
		t.Errorf("sleeping radio energy %v not below always-on %v", m.EnergyJ, alwaysOnEnergy)
	}
	if m.Arrived != m.Served+m.Lost+int64(sim.Observe().Queue) {
		t.Error("conservation violated on sensor radio")
	}
}
