package ctsim_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/eventq"
	"repro/internal/rng"
)

// TestSharedKernelMixedPeriods puts two governors with different
// decision periods, 0.5 s and 0.3 s, on one shared kernel. Their ticks
// interleave out of time order, so the kernel's tick lane cannot hold
// both and some ticks go through its heap. Without a Resource the two
// simulators do not interact, so each must end bit-identical to its
// solo run on a private kernel.
func TestSharedKernelMixedPeriods(t *testing.T) {
	psm := device.WLAN() // its 2 ms service fits either period
	const horizon = 400.0
	cfg := func(period float64, seed uint64) ctsim.Config {
		return ctsim.Config{
			Device: psm, QueueCap: 8, LatencyWeight: 0.6,
			Policy: adaptedQDPM(t, psm, period, 8, 0.6, rng.New(seed+1)),
			Source: expSource(t, 2), Stream: rng.New(seed),
			DecisionPeriod: period,
		}
	}
	periods := []float64{0.5, 0.3}
	solo := make([]ctsim.Metrics, len(periods))
	for i, p := range periods {
		sim, err := ctsim.New(cfg(p, uint64(10*i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(horizon); err != nil {
			t.Fatal(err)
		}
		solo[i] = sim.Metrics()
	}
	k := eventq.New()
	sims := make([]*ctsim.Sim, len(periods))
	for i, p := range periods {
		var err error
		if sims[i], err = ctsim.NewShared(k, cfg(p, uint64(10*i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(horizon); err != nil {
		t.Fatal(err)
	}
	var fired uint64
	for i, sim := range sims {
		got := sim.Metrics()
		if !reflect.DeepEqual(got, solo[i]) {
			t.Errorf("period %v on a shared kernel diverged from its solo run:\n got %+v\nwant %+v", periods[i], got, solo[i])
		}
		if got.Decisions == 0 {
			t.Errorf("period %v: no decisions", periods[i])
		}
		fired += uint64(got.Decisions)
	}
	if k.Fired() < fired {
		t.Errorf("kernel fired %d events, fewer than the %d governor decisions", k.Fired(), fired)
	}
}

// pollLimit is a context whose Err reports cancellation after n polls,
// so a run that never reaches its horizon still ends.
type pollLimit struct {
	context.Context
	n int
}

func (c *pollLimit) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestRunRejectsNaNHorizon: a NaN limit passes every ordered
// comparison, so without an explicit check a periodic governor would
// run forever. Run and RunChunked must reject it before firing
// anything. The horizon promise and the poll limit bound the run if
// the check is missing.
func TestRunRejectsNaNHorizon(t *testing.T) {
	psm := device.Synthetic3()
	build := func() *ctsim.Sim {
		sim, err := ctsim.New(ctsim.Config{
			Device: psm, QueueCap: 8, LatencyWeight: 0.6,
			Policy: adaptedQDPM(t, psm, 0.5, 8, 0.6, rng.New(2)),
			Source: expSource(t, 0.4), Stream: rng.New(1),
			DecisionPeriod: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.SetHorizonHint(100)
		return sim
	}
	sim := build()
	if err := sim.Run(math.NaN()); err == nil {
		t.Error("Run(NaN) accepted")
	}
	if n := sim.FiredEvents(); n != 0 {
		t.Errorf("Run(NaN) fired %d events", n)
	}
	sim = build()
	ctx := &pollLimit{Context: context.Background(), n: 1000}
	err := sim.RunChunked(ctx, math.NaN(), 1)
	if err == nil || errors.Is(err, context.Canceled) {
		t.Errorf("RunChunked(NaN) returned %v, want a horizon error", err)
	}
	if n := sim.FiredEvents(); n != 0 {
		t.Errorf("RunChunked(NaN) fired %d events", n)
	}
}
