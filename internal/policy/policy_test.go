package policy

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/mdp"
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

func runPolicy(t *testing.T, dev *device.Slotted, pol slotsim.Policy, p float64, n int64, seed uint64) slotsim.Metrics {
	t.Helper()
	arr, err := workload.NewBernoulli(p)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := slotsim.New(slotsim.Config{
		Device: dev, Arrivals: arr, QueueCap: 8,
		Policy: pol, Stream: rng.New(seed), LatencyWeight: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDeriveRolesSynthetic(t *testing.T) {
	dev := synthDev(t)
	r, err := DeriveRoles(dev.PSM)
	if err != nil {
		t.Fatal(err)
	}
	if r.Wake != 0 || r.Shallow != 1 || r.Deep != 2 {
		t.Errorf("roles = %+v, want wake=0 shallow=1 deep=2", r)
	}
}

func TestDeriveRolesHDD(t *testing.T) {
	dev, err := device.HDD().Slot(0.5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := DeriveRoles(dev.PSM)
	if err != nil {
		t.Fatal(err)
	}
	active, _ := dev.PSM.StateByName("active")
	idle, _ := dev.PSM.StateByName("idle")
	standby, _ := dev.PSM.StateByName("standby")
	if r.Wake != active {
		t.Errorf("wake = %d, want active", r.Wake)
	}
	// Sleep is thriftier than standby but cannot reach active? It can
	// (1.9s). Sleep reachable from active and back -> deep = sleep.
	sleep, _ := dev.PSM.StateByName("sleep")
	if r.Deep != sleep {
		t.Errorf("deep = %d, want sleep (%d)", r.Deep, sleep)
	}
	if r.Shallow != idle && r.Shallow != standby {
		t.Errorf("shallow = %d, want idle or standby", r.Shallow)
	}
}

func TestAlwaysOnExactCost(t *testing.T) {
	dev := synthDev(t)
	p, err := NewAlwaysOn(dev)
	if err != nil {
		t.Fatal(err)
	}
	m := runPolicy(t, dev, p, 0.3, 10000, 1)
	if m.EnergyJ != 10000 { // 1.0 J/slot on synthetic3
		t.Errorf("always-on energy %v, want 10000", m.EnergyJ)
	}
	if m.MeanBacklog() != 0 {
		t.Errorf("always-on backlog %v, want 0", m.MeanBacklog())
	}
}

func TestGreedyOffSleepsImmediately(t *testing.T) {
	dev := synthDev(t)
	p, err := NewGreedyOff(dev)
	if err != nil {
		t.Fatal(err)
	}
	// No arrivals: first decision must command deep sleep.
	if got := p.Decide(slotsim.Observation{Phase: 0, Queue: 0}); got != 2 {
		t.Errorf("greedy-off with empty queue chose %d, want sleep", got)
	}
	if got := p.Decide(slotsim.Observation{Phase: 2, Queue: 1}); got != 0 {
		t.Errorf("greedy-off with backlog chose %d, want wake", got)
	}
}

func TestGreedyOffThrashesAtModerateRate(t *testing.T) {
	// The classic failure: at a moderate rate, greedy shutdown pays the
	// wake penalty constantly and loses to always-on on total cost.
	dev := synthDev(t)
	gr, _ := NewGreedyOff(dev)
	ao, _ := NewAlwaysOn(dev)
	mGr := runPolicy(t, dev, gr, 0.45, 40000, 2)
	mAo := runPolicy(t, dev, ao, 0.45, 40000, 3)
	if mGr.AvgCost() <= mAo.AvgCost() {
		t.Errorf("greedy-off (%v) should lose to always-on (%v) at λ=0.45",
			mGr.AvgCost(), mAo.AvgCost())
	}
}

func TestGreedyOffWinsAtVeryLowRate(t *testing.T) {
	dev := synthDev(t)
	gr, _ := NewGreedyOff(dev)
	ao, _ := NewAlwaysOn(dev)
	mGr := runPolicy(t, dev, gr, 0.005, 40000, 4)
	mAo := runPolicy(t, dev, ao, 0.005, 40000, 5)
	if mGr.AvgCost() >= mAo.AvgCost() {
		t.Errorf("greedy-off (%v) should beat always-on (%v) at λ=0.005",
			mGr.AvgCost(), mAo.AvgCost())
	}
}

func TestFixedTimeoutBehaviour(t *testing.T) {
	dev := synthDev(t)
	p, err := NewFixedTimeout(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Decide(slotsim.Observation{Phase: 0, Queue: 2}); got != 0 {
		t.Errorf("backlog: chose %d, want wake", got)
	}
	if got := p.Decide(slotsim.Observation{Phase: 0, Queue: 0, IdleSlots: 1}); got != 1 {
		t.Errorf("short idle from active: chose %d, want shallow", got)
	}
	if got := p.Decide(slotsim.Observation{Phase: 1, Queue: 0, IdleSlots: 2}); got != 1 {
		t.Errorf("short idle from shallow: chose %d, want stay", got)
	}
	if got := p.Decide(slotsim.Observation{Phase: 1, Queue: 0, IdleSlots: 4}); got != 2 {
		t.Errorf("timeout expired: chose %d, want deep", got)
	}
}

func TestFixedTimeoutValidation(t *testing.T) {
	if _, err := NewFixedTimeout(synthDev(t), -1); err == nil {
		t.Error("negative timeout accepted")
	}
}

// TestTimeoutAboveIdleCapRejected: the observed idle count saturates at
// slotsim.IdleSaturation, so a fixed timeout (or an adaptive timeout's
// max) above it could never fire. Both constructors reject it naming the
// cap, and accept a timeout exactly at the cap, which does fire.
func TestTimeoutAboveIdleCapRejected(t *testing.T) {
	dev := synthDev(t)
	const limit = slotsim.IdleSaturation
	want := fmt.Sprintf("above the idle-slot cap %d", limit)
	if _, err := NewFixedTimeout(dev, limit+1); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("fixed timeout %d: err = %v, want one containing %q", limit+1, err, want)
	}
	if _, err := NewAdaptiveTimeout(dev, 8, 1, limit+1); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("adaptive timeout max %d: err = %v, want one containing %q", limit+1, err, want)
	}
	p, err := NewFixedTimeout(dev, limit)
	if err != nil {
		t.Fatalf("fixed timeout at the cap rejected: %v", err)
	}
	if got := p.Decide(slotsim.Observation{Phase: 1, IdleSlots: limit}); got != 2 {
		t.Errorf("timeout at the cap with a saturated idle count chose %d, want deep", got)
	}
	if _, err := NewAdaptiveTimeout(dev, 8, 1, limit); err != nil {
		t.Errorf("adaptive timeout max at the cap rejected: %v", err)
	}
}

func TestTimeoutSweepMonotonyAtLowRate(t *testing.T) {
	// At a very low rate, shorter timeouts save more energy.
	dev := synthDev(t)
	var prev float64
	for i, timeout := range []int64{2, 16, 64} {
		p, _ := NewFixedTimeout(dev, timeout)
		m := runPolicy(t, dev, p, 0.005, 60000, 6)
		if i > 0 && m.EnergyJ < prev {
			t.Errorf("timeout %d used less energy than a shorter timeout (%v < %v)", timeout, m.EnergyJ, prev)
		}
		prev = m.EnergyJ
	}
}

func TestAdaptiveTimeoutValidation(t *testing.T) {
	dev := synthDev(t)
	if _, err := NewAdaptiveTimeout(dev, 5, 10, 20); err == nil {
		t.Error("initial < min accepted")
	}
	if _, err := NewAdaptiveTimeout(dev, 5, 1, 4); err == nil {
		t.Error("initial > max accepted")
	}
	if _, err := NewAdaptiveTimeout(dev, 5, -1, 10); err == nil {
		t.Error("negative min accepted")
	}
}

func TestAdaptiveTimeoutGrowsOnPrematureSleep(t *testing.T) {
	dev := synthDev(t)
	p, err := NewAdaptiveTimeout(dev, 2, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	// At a moderate rate, a 2-slot timeout sleeps prematurely all the
	// time; the timeout must grow.
	runPolicy(t, dev, p, 0.25, 20000, 7)
	if p.Timeout() <= 2 {
		t.Errorf("adaptive timeout stayed at %d under thrashing", p.Timeout())
	}
}

func TestAdaptiveTimeoutShrinksOnLongIdle(t *testing.T) {
	dev := synthDev(t)
	p, err := NewAdaptiveTimeout(dev, 32, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	runPolicy(t, dev, p, 0.002, 40000, 8)
	if p.Timeout() >= 32 {
		t.Errorf("adaptive timeout stayed at %d under long idles", p.Timeout())
	}
}

func TestPredictiveSleepsOnLongIdleHistory(t *testing.T) {
	dev := synthDev(t)
	p, err := NewPredictive(dev)
	if err != nil {
		t.Fatal(err)
	}
	m := runPolicy(t, dev, p, 0.005, 60000, 9)
	// Long idles dominate: predictive must sleep most of the time.
	if m.StateSlots[2] < m.Slots/2 {
		t.Errorf("predictive slept only %d/%d slots at λ=0.005", m.StateSlots[2], m.Slots)
	}
}

func TestPredictiveAvoidsSleepUnderDenseTraffic(t *testing.T) {
	dev := synthDev(t)
	p, err := NewPredictive(dev)
	if err != nil {
		t.Fatal(err)
	}
	m := runPolicy(t, dev, p, 0.8, 30000, 10)
	// Idle periods are ~1 slot; prediction collapses below break-even and
	// the device should almost never pay a deep-sleep round trip.
	if m.StateSlots[2] > m.Slots/10 {
		t.Errorf("predictive slept %d/%d slots at λ=0.8", m.StateSlots[2], m.Slots)
	}
}

func TestOptimalPolicyBeatsHeuristics(t *testing.T) {
	// Fig. 1's reference: the exact MDP policy must dominate the
	// heuristics on the objective it optimizes.
	dev := synthDev(t)
	const p = 0.1
	d, err := mdp.BuildDPM(mdp.DPMConfig{Device: dev, ArrivalP: p, QueueCap: 8, LatencyWeight: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.AverageCostRVI(1e-8, 500000)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewOptimal(d, res.Policy)
	if err != nil {
		t.Fatal(err)
	}
	mOpt := runPolicy(t, dev, opt, p, 200000, 11)

	others := []slotsim.Policy{}
	ao, _ := NewAlwaysOn(dev)
	gr, _ := NewGreedyOff(dev)
	t8, _ := NewFixedTimeout(dev, 8)
	others = append(others, ao, gr, t8)
	for _, other := range others {
		m := runPolicy(t, dev, other, p, 200000, 11)
		if mOpt.AvgCost() > m.AvgCost()+0.01 {
			t.Errorf("optimal (%v) lost to %s (%v)", mOpt.AvgCost(), other.Name(), m.AvgCost())
		}
	}
}

func TestOptimalSimMatchesGain(t *testing.T) {
	// Simulated average cost of the optimal policy must match the RVI
	// gain — the strongest check that simulator and model share dynamics.
	dev := synthDev(t)
	const p = 0.15
	d, err := mdp.BuildDPM(mdp.DPMConfig{Device: dev, ArrivalP: p, QueueCap: 8, LatencyWeight: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.AverageCostRVI(1e-9, 500000)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewOptimal(d, res.Policy)
	if err != nil {
		t.Fatal(err)
	}
	m := runPolicy(t, dev, opt, p, 600000, 12)
	if got := m.AvgCost(); got > res.Gain*1.02+0.005 || got < res.Gain*0.98-0.005 {
		t.Errorf("simulated optimal cost %v vs RVI gain %v — model/simulator divergence", got, res.Gain)
	}
}

func TestNewOptimalValidation(t *testing.T) {
	dev := synthDev(t)
	d, _ := mdp.BuildDPM(mdp.DPMConfig{Device: dev, ArrivalP: 0.1, QueueCap: 8, LatencyWeight: 0.3})
	if _, err := NewOptimal(nil, nil); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewOptimal(d, mdp.Policy{0}); err == nil {
		t.Error("short policy accepted")
	}
}

func TestPolicyNames(t *testing.T) {
	dev := synthDev(t)
	ao, _ := NewAlwaysOn(dev)
	gr, _ := NewGreedyOff(dev)
	ft, _ := NewFixedTimeout(dev, 8)
	at, _ := NewAdaptiveTimeout(dev, 8, 1, 64)
	pr, _ := NewPredictive(dev)
	names := map[string]bool{}
	for _, p := range []slotsim.Policy{ao, gr, ft, at, pr} {
		if p.Name() == "" {
			t.Error("empty policy name")
		}
		if names[p.Name()] {
			t.Errorf("duplicate policy name %q", p.Name())
		}
		names[p.Name()] = true
	}
}

func TestOptimalSimMatchesGainOnHDD(t *testing.T) {
	// Extend the model/simulator exactness check to a catalog device with
	// multi-request service (ServePerSlot = 41) and a forbidden
	// transition (sleep -> standby): the simulated average cost of the
	// exact policy must still match the RVI gain.
	dev, err := device.HDD().Slot(0.5)
	if err != nil {
		t.Fatal(err)
	}
	const p = 0.2
	d, err := mdp.BuildDPM(mdp.DPMConfig{Device: dev, ArrivalP: p, QueueCap: 6, LatencyWeight: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.AverageCostRVI(1e-9, 500000)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewOptimal(d, res.Policy)
	if err != nil {
		t.Fatal(err)
	}
	arr, _ := workload.NewBernoulli(p)
	sim, err := slotsim.New(slotsim.Config{
		Device: dev, Arrivals: arr, QueueCap: 6,
		Policy: opt, Stream: rng.New(55), LatencyWeight: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(600000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.AvgCost(); got > res.Gain*1.02+0.005 || got < res.Gain*0.98-0.005 {
		t.Errorf("HDD simulated optimal cost %v vs RVI gain %v — model/simulator divergence", got, res.Gain)
	}
}

func TestOptimalSimMatchesGainOnWLAN(t *testing.T) {
	// Same exactness check on the WLAN NIC (3 states, fast cheap wakeups).
	dev, err := device.WLAN().Slot(0.1)
	if err != nil {
		t.Fatal(err)
	}
	const p = 0.3
	d, err := mdp.BuildDPM(mdp.DPMConfig{Device: dev, ArrivalP: p, QueueCap: 6, LatencyWeight: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.AverageCostRVI(1e-9, 500000)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewOptimal(d, res.Policy)
	if err != nil {
		t.Fatal(err)
	}
	arr, _ := workload.NewBernoulli(p)
	sim, err := slotsim.New(slotsim.Config{
		Device: dev, Arrivals: arr, QueueCap: 6,
		Policy: opt, Stream: rng.New(56), LatencyWeight: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(600000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.AvgCost(); got > res.Gain*1.02+0.005 || got < res.Gain*0.98-0.005 {
		t.Errorf("WLAN simulated optimal cost %v vs RVI gain %v — model/simulator divergence", got, res.Gain)
	}
}

// TestResetRestoresAdaptiveState: after adaptation, Reset returns the
// stateful policies to their freshly-constructed behavior (the reuse
// contract fleet instances rely on); the stateless policies' Resets are
// exercised as no-ops. A reset policy replays a replica bit-identically
// to a fresh one.
func TestResetRestoresAdaptiveState(t *testing.T) {
	dev := synthDev(t)

	at, err := NewAdaptiveTimeout(dev, 2, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	runPolicy(t, dev, at, 0.25, 20000, 7) // drives the timeout up
	if at.Timeout() <= 2 {
		t.Fatal("precondition: adaptation did not move the timeout")
	}
	at.Reset()
	if at.Timeout() != 2 {
		t.Errorf("reset timeout %d, want initial 2", at.Timeout())
	}
	fresh, err := NewAdaptiveTimeout(dev, 2, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	ma, mb := runPolicy(t, dev, at, 0.25, 20000, 9), runPolicy(t, dev, fresh, 0.25, 20000, 9)
	if ma.EnergyJ != mb.EnergyJ || ma.Served != mb.Served || at.Timeout() != fresh.Timeout() {
		t.Errorf("reset adaptive-timeout replay diverges from fresh")
	}

	pr, err := NewPredictive(dev)
	if err != nil {
		t.Fatal(err)
	}
	runPolicy(t, dev, pr, 0.002, 40000, 8)
	pr.Reset()
	freshPr, err := NewPredictive(dev)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := runPolicy(t, dev, pr, 0.02, 20000, 11), runPolicy(t, dev, freshPr, 0.02, 20000, 11)
	if pa.EnergyJ != pb.EnergyJ || pa.Served != pb.Served {
		t.Errorf("reset predictive replay diverges from fresh")
	}

	// Stateless Resets are no-ops but part of the shared contract.
	ao, err := NewAlwaysOn(dev)
	if err != nil {
		t.Fatal(err)
	}
	ao.Reset()
	go_, err := NewGreedyOff(dev)
	if err != nil {
		t.Fatal(err)
	}
	go_.Reset()
	ft, err := NewFixedTimeout(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	ft.Reset()
	if ao.Name() != "always-on" || go_.Name() != "greedy-off" || ft.TimeoutSlots != 4 {
		t.Error("stateless reset mutated policy identity")
	}
}
