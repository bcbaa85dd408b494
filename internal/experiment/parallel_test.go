package experiment

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/slotsim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// detScenario is a short learning-policy scenario: Q-DPM is the most
// state-dependent policy in the repo, so if pooling perturbed any stream
// or ordering it would show up here first.
func detScenario(slots int64) Scenario {
	dev, _ := CanonDevice()
	return Scenario{
		Name: "det", Device: dev, QueueCap: CanonQueueCap,
		LatencyWeight: CanonLatencyWeight, Slots: slots,
		Workload: func() workload.Arrivals {
			b, _ := workload.NewBernoulli(0.1)
			return b
		},
	}
}

// runningEqual compares two accumulators bit-for-bit via their accessors.
func runningEqual(a, b *stats.Running) bool {
	return a.N() == b.N() && a.Mean() == b.Mean() && a.Var() == b.Var() &&
		a.Min() == b.Min() && a.Max() == b.Max()
}

func summariesEqual(a, b *Summary) bool {
	return a.Replicas == b.Replicas &&
		runningEqual(&a.AvgPowerW, &b.AvgPowerW) &&
		runningEqual(&a.AvgCost, &b.AvgCost) &&
		runningEqual(&a.MeanWaitSlots, &b.MeanWaitSlots) &&
		runningEqual(&a.LossRate, &b.LossRate) &&
		runningEqual(&a.EnergyReduction, &b.EnergyReduction)
}

// TestPooledBitIdenticalToSerial is the engine's core guarantee: pooled
// RunReplicatedCtx output is bit-identical to the legacy serial loop for
// pool sizes 1, 4, and GOMAXPROCS.
func TestPooledBitIdenticalToSerial(t *testing.T) {
	sc := detScenario(20000)
	pf := Factory("q-dpm", sc.Device, 0)
	seeds := []uint64{1, 2, 3, 4, 5}

	// The legacy serial reduction, inlined: one Add per replica in seed
	// order.
	want := &Summary{Policy: pf.Name, Scenario: sc.Name, Replicas: len(seeds)}
	maxPower := sc.Device.MaxPowerEnergy() / sc.Device.SlotDuration
	for _, seed := range seeds {
		m, err := RunOneCtx(context.Background(), sc, pf, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := m.AvgPowerW(sc.Device.SlotDuration)
		want.AvgPowerW.Add(p)
		want.AvgCost.Add(m.AvgCost())
		want.MeanWaitSlots.Add(m.MeanWaitSlots())
		want.LossRate.Add(m.LossRate())
		want.EnergyReduction.Add(1 - p/maxPower)
	}

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		got, err := RunReplicatedCtx(context.Background(), sc, pf, seeds, Parallel{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !summariesEqual(got, want) {
			t.Errorf("workers=%d: pooled summary differs from serial:\n got %+v\nwant %+v",
				workers, got, want)
		}
	}
}

// TestFig1PooledDeterministic checks the figure pipeline end to end: the
// rendered series must not depend on worker count.
func TestFig1PooledDeterministic(t *testing.T) {
	cfg := Fig1Config{
		ArrivalP: 0.1, Slots: 20000, Window: 2000, Stride: 1000,
		Seeds: []uint64{11, 12},
	}
	serial, err := Fig1Ctx(context.Background(), cfg, Parallel{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := Fig1Ctx(context.Background(), cfg, Parallel{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Series) != len(pooled.Series) {
		t.Fatalf("series count %d vs %d", len(serial.Series), len(pooled.Series))
	}
	for i, s := range serial.Series {
		p := pooled.Series[i]
		if s.Name != p.Name || s.Len() != p.Len() {
			t.Fatalf("series %d shape mismatch: %s/%d vs %s/%d", i, s.Name, s.Len(), p.Name, p.Len())
		}
		for k := range s.Y {
			if s.X[k] != p.X[k] || s.Y[k] != p.Y[k] {
				t.Fatalf("series %q point %d differs: (%v,%v) vs (%v,%v)",
					s.Name, k, s.X[k], s.Y[k], p.X[k], p.Y[k])
			}
		}
	}
}

// TestRunReplicatedCancellation: cancelling mid-run must return promptly
// with the context error and leak no goroutines.
func TestRunReplicatedCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	sc := detScenario(50_000_000) // far too long to finish
	pf := Factory("timeout", sc.Device, 8)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunReplicatedCtx(ctx, sc, pf, []uint64{1, 2, 3, 4}, Parallel{Workers: 2})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation returned after %v, want prompt partial-error return", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before, %d after cancellation", before, runtime.NumGoroutine())
}

// TestRunOneCtxPreCancelled: a cancelled context aborts before any slot
// is simulated.
func TestRunOneCtxPreCancelled(t *testing.T) {
	sc := detScenario(1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	observed := 0
	_, err := RunOneCtx(ctx, sc, Factory("timeout", sc.Device, 8), 1, func(slotsim.SlotRecord) { observed++ })
	if err == nil {
		t.Fatal("pre-cancelled context accepted")
	}
	if observed != 0 {
		t.Errorf("%d slots simulated under a pre-cancelled context", observed)
	}
}

// TestSummaryMerge covers the pooled-summary combination directly,
// including the empty-receiver fast path.
func TestSummaryMerge(t *testing.T) {
	var a, b Summary
	b.Policy, b.Scenario, b.Replicas = "p", "s", 2
	b.AvgCost.Add(1)
	b.AvgCost.Add(3)
	a.Merge(&b)
	if a.Policy != "p" || a.Scenario != "s" || a.Replicas != 2 || a.AvgCost.Mean() != 2 {
		t.Fatalf("merge into empty: %+v", a)
	}
	var c Summary
	c.Policy, c.Scenario, c.Replicas = "p", "s", 1
	c.AvgCost.Add(5)
	a.Merge(&c)
	if a.Replicas != 3 || a.AvgCost.N() != 3 || a.AvgCost.Mean() != 3 {
		t.Fatalf("merge: %+v", a)
	}
	if a.AvgCost.Max() != 5 || a.AvgCost.Min() != 1 {
		t.Fatalf("merge min/max: %v %v", a.AvgCost.Min(), a.AvgCost.Max())
	}
}
