package ctsim_test

import (
	"math"
	"testing"

	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/rng"
)

// TestCrashRepairExactDowntime replays the fault stream's draw sequence
// with a mirror stream and checks the simulator's crash count, downtime
// integral, and energy integral against the exact schedule: crashes are
// drawn while up, repairs at each crash, energy accrues only while up.
func TestCrashRepairExactDowntime(t *testing.T) {
	const (
		horizon = 400.0
		mtbf    = 60.0
		repair  = 8.0
		seed    = 99
	)
	psm := device.Synthetic3()
	pol, err := ctsim.NewAlwaysOn(psm)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := ctsim.New(ctsim.Config{
		Device: psm, QueueCap: 8, Policy: pol,
		Source: traceSource(t, 1e9), Stream: rng.New(1),
		Faults: &ctsim.Faults{CrashMTBF: mtbf, RepairMean: repair, Stream: rng.New(seed)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(horizon); err != nil {
		t.Fatal(err)
	}
	m := sim.Metrics()

	// Mirror the draw sequence: TTF at t=0 and at each repair, repair
	// duration at each crash that lands inside the horizon.
	mirror := rng.New(seed)
	var downtime float64
	var crashes int64
	now := 0.0
	for {
		c := now + mtbf*mirror.ExpFloat64()
		if c > horizon {
			break
		}
		crashes++
		r := c + repair*mirror.ExpFloat64()
		if r >= horizon {
			downtime += horizon - c // down through the horizon
			break
		}
		downtime += r - c
		now = r
	}
	if m.Crashes != crashes {
		t.Fatalf("crashes = %d, want %d", m.Crashes, crashes)
	}
	if math.Abs(m.DowntimeSec-downtime) > 1e-9*horizon {
		t.Fatalf("downtime = %v s, want %v s", m.DowntimeSec, downtime)
	}
	wantE := psm.States[0].Power * (horizon - downtime)
	if math.Abs(m.EnergyJ-wantE) > 1e-9*wantE {
		t.Fatalf("energy = %v J, want %v J (power only while up)", m.EnergyJ, wantE)
	}
	wantA := 1 - downtime/horizon
	if gotA := 1 - m.DowntimeSec/m.Horizon; math.Abs(gotA-wantA) > 1e-12 {
		t.Fatalf("availability = %v, want %v", gotA, wantA)
	}
}

// TestRetryConservation: with transient failures only (no crashes),
// every request eventually serves or exhausts its retry budget — the
// arrival count is conserved exactly — and the retry machinery charges
// backoff energy and stretches waits relative to a fault-free run.
func TestRetryConservation(t *testing.T) {
	psm := device.Synthetic3()
	times := make([]float64, 40)
	for i := range times {
		times[i] = float64(i + 1)
	}
	run := func(f *ctsim.Faults) ctsim.Metrics {
		pol, err := ctsim.NewAlwaysOn(psm)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := ctsim.New(ctsim.Config{
			Device: psm, QueueCap: 64, Policy: pol,
			Source: traceSource(t, times...), Stream: rng.New(5),
			Faults: f,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(500); err != nil {
			t.Fatal(err)
		}
		return sim.Metrics()
	}
	base := run(nil)
	m := run(&ctsim.Faults{FailProb: 0.4, RetryMax: 2, Backoff: 0.05, Stream: rng.New(77)})
	if m.Arrived != 40 || m.Served+m.Lost != m.Arrived {
		t.Fatalf("conservation broken: arrived %d, served %d + lost %d", m.Arrived, m.Served, m.Lost)
	}
	if m.Lost != m.RetryExhausted {
		t.Fatalf("lost %d != retry-exhausted %d (no other loss path here)", m.Lost, m.RetryExhausted)
	}
	if m.Retries == 0 || m.RetryExhausted == 0 {
		t.Fatalf("p=0.4 over 40 requests injected nothing: %+v", m)
	}
	if !(m.EnergyOutageJ > 0) || m.EnergyOutageJ >= m.EnergyJ {
		t.Fatalf("backoff energy %v J out of range (total %v J)", m.EnergyOutageJ, m.EnergyJ)
	}
	if !(m.MeanWaitSeconds() > base.MeanWaitSeconds()) {
		t.Fatalf("retries did not stretch waits: %v <= %v", m.MeanWaitSeconds(), base.MeanWaitSeconds())
	}
	if base.Crashes != 0 || base.Retries != 0 || base.DowntimeSec != 0 || base.EnergyOutageJ != 0 {
		t.Fatalf("fault-free run accrued fault metrics: %+v", base)
	}
}

// TestCrashRetryCombined exercises crash/repair and retry/backoff
// together under a transitioning policy (timeout sleeps mid-run, so
// crashes land on transitions, sleeps, services, and backoff holds) and
// checks the books stay consistent: no request is double-counted, and
// anything unaccounted for is still queued within the cap.
func TestCrashRetryCombined(t *testing.T) {
	psm := device.Synthetic3()
	pol, err := ctsim.NewTimeout(psm, 2)
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, 80)
	for i := range times {
		times[i] = 0.7 * float64(i+1)
	}
	const queueCap = 16
	sim, err := ctsim.New(ctsim.Config{
		Device: psm, QueueCap: queueCap, Policy: pol,
		Source: traceSource(t, times...), Stream: rng.New(11),
		Faults: &ctsim.Faults{
			CrashMTBF: 30, RepairMean: 5,
			FailProb: 0.3, RetryMax: 2, Backoff: 0.1,
			Stream: rng.New(12),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(600); err != nil {
		t.Fatal(err)
	}
	m := sim.Metrics()
	if m.Crashes == 0 || m.Retries == 0 {
		t.Fatalf("combined faults injected nothing: %+v", m)
	}
	if pending := m.Arrived - m.Served - m.Lost; pending < 0 || pending > queueCap {
		t.Fatalf("books off: arrived %d, served %d, lost %d, pending %d", m.Arrived, m.Served, m.Lost, pending)
	}
	if m.Lost < m.RetryExhausted {
		t.Fatalf("lost %d < retry-exhausted %d", m.Lost, m.RetryExhausted)
	}
	if !(m.DowntimeSec > 0) || !(1-m.DowntimeSec/m.Horizon < 1) {
		t.Fatalf("no downtime: %+v", m)
	}
}

// TestFaultedResetMatchesFresh extends the reuse contract to the fault
// layer: a reused faulted simulator replays the exact metrics of a
// fresh one, seed for seed.
func TestFaultedResetMatchesFresh(t *testing.T) {
	psm := device.Synthetic3()
	cfg := func(t *testing.T, seed uint64) ctsim.Config {
		pol, err := ctsim.NewTimeout(psm, 3)
		if err != nil {
			t.Fatal(err)
		}
		return ctsim.Config{
			Device: psm, QueueCap: 8, LatencyWeight: 0.6, Policy: pol,
			Source: expSource(t, 0.25), Stream: rng.New(seed),
			Faults: &ctsim.Faults{
				CrashMTBF: 100, RepairMean: 6,
				FailProb: 0.1, RetryMax: 3, Backoff: 0.2,
				Stream: rng.New(seed + 1000),
			},
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
			got.WaitSeconds != want.WaitSeconds ||
			got.DowntimeSec != want.DowntimeSec || got.Crashes != want.Crashes ||
			got.Retries != want.Retries || got.RetryExhausted != want.RetryExhausted ||
			got.EnergyOutageJ != want.EnergyOutageJ {
			t.Fatalf("seed %d: reused faulted sim diverged from fresh:\n got %+v\nwant %+v", seed, got, want)
		}
		if want.Crashes == 0 && want.Retries == 0 {
			t.Fatalf("seed %d: faulted run injected nothing: %+v", seed, want)
		}
	}
}

// TestFaultConfigValidation covers the fault half of Config.Validate.
func TestFaultConfigValidation(t *testing.T) {
	psm := device.Synthetic3()
	base := func(t *testing.T) ctsim.Config {
		pol, err := ctsim.NewAlwaysOn(psm)
		if err != nil {
			t.Fatal(err)
		}
		return ctsim.Config{
			Device: psm, QueueCap: 8, Policy: pol,
			Source: expSource(t, 0.3), Stream: rng.New(1),
		}
	}
	cases := []struct {
		name string
		mut  func(*ctsim.Config)
	}{
		{"slot-compatible", func(c *ctsim.Config) {
			c.SlotCompatible = true
			c.DecisionPeriod = 1
			c.Faults = &ctsim.Faults{CrashMTBF: 10, RepairMean: 1, Stream: rng.New(2)}
		}},
		{"negative mtbf", func(c *ctsim.Config) {
			c.Faults = &ctsim.Faults{CrashMTBF: -1, Stream: rng.New(2)}
		}},
		{"crash without repair", func(c *ctsim.Config) {
			c.Faults = &ctsim.Faults{CrashMTBF: 10, Stream: rng.New(2)}
		}},
		{"prob one", func(c *ctsim.Config) {
			c.Faults = &ctsim.Faults{FailProb: 1, Backoff: 1, Stream: rng.New(2)}
		}},
		{"fail without backoff", func(c *ctsim.Config) {
			c.Faults = &ctsim.Faults{FailProb: 0.1, Stream: rng.New(2)}
		}},
		{"retry budget overflow", func(c *ctsim.Config) {
			c.Faults = &ctsim.Faults{FailProb: 0.1, Backoff: 1, RetryMax: 63, Stream: rng.New(2)}
		}},
		{"missing stream", func(c *ctsim.Config) {
			c.Faults = &ctsim.Faults{CrashMTBF: 10, RepairMean: 1}
		}},
	}
	for _, tc := range cases {
		cfg := base(t)
		tc.mut(&cfg)
		if _, err := ctsim.New(cfg); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
}
