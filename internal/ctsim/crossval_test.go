package ctsim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/slotsim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestCrossValidationSlotQuantized proves the two simulators implement the
// same semantics: a ctsim run in slot-compatible mode over slot-quantized
// arrivals (mid-slot timestamps) and slot-multiple transition latencies
// must reproduce a slotsim run of the same scenario EXACTLY — identical
// energy (bitwise: both accumulate the same per-slot terms in the same
// order), identical served/arrived/lost counts, identical accepted and
// clamped commands — for stateless baselines, adaptive heuristics, and
// the Q-DPM learner alike.
func TestCrossValidationSlotQuantized(t *testing.T) {
	const (
		slotD  = 0.5 // power of two: all slot instants are exact doubles
		nSlots = 20000
		qcap   = 4
		latW   = 0.3
		seed   = 1234
	)
	psm := device.Synthetic3()
	dev, err := psm.Slot(slotD)
	if err != nil {
		t.Fatal(err)
	}

	// A deterministic arrival pattern with occasional bursts (to exercise
	// queue buildup and loss) shared by both simulators: per-slot counts
	// for slotsim's playback workload, mid-slot timestamps for ctsim's
	// trace source. Mid-slot placement keeps arrival events strictly
	// inside governor intervals, so the slotted decide→arrive→serve order
	// is reproduced without same-instant event ties.
	counts := make([]int, nSlots)
	gen := rng.New(99)
	var times []float64
	for i := range counts {
		u := gen.Float64()
		switch {
		case u < 0.10:
			counts[i] = 1
		case u < 0.13:
			counts[i] = 2
		case u < 0.14:
			counts[i] = 6 // burst: overflows the capacity-4 queue
		}
		for c := 0; c < counts[i]; c++ {
			times = append(times, (float64(i)+0.5)*slotD)
		}
	}
	tr := &trace.Trace{Times: times}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	builders := []struct {
		name  string
		build func(stream *rng.Stream) (slotsim.Policy, error)
	}{
		{"always-on", func(*rng.Stream) (slotsim.Policy, error) { return policy.NewAlwaysOn(dev) }},
		{"greedy-off", func(*rng.Stream) (slotsim.Policy, error) { return policy.NewGreedyOff(dev) }},
		{"timeout-6", func(*rng.Stream) (slotsim.Policy, error) { return policy.NewFixedTimeout(dev, 6) }},
		{"adaptive-timeout", func(*rng.Stream) (slotsim.Policy, error) {
			return policy.NewAdaptiveTimeout(dev, 8, 1, 128)
		}},
		{"predictive", func(*rng.Stream) (slotsim.Policy, error) { return policy.NewPredictive(dev) }},
		{"q-dpm", func(stream *rng.Stream) (slotsim.Policy, error) {
			return core.New(core.Config{
				Device: dev, QueueCap: qcap, LatencyWeight: latW, Stream: stream,
			})
		}},
	}

	for _, b := range builders {
		b := b
		t.Run(b.name, func(t *testing.T) {
			// Slotted run. The stream layout mirrors the experiment
			// layer's replica contract: first split feeds the policy,
			// second the simulator.
			root := rng.New(seed)
			polS, err := b.build(root.Split())
			if err != nil {
				t.Fatal(err)
			}
			playback, err := workload.NewPlayback(counts)
			if err != nil {
				t.Fatal(err)
			}
			ssim, err := slotsim.New(slotsim.Config{
				Device: dev, Arrivals: playback, QueueCap: qcap,
				Policy: polS, Stream: root.Split(), LatencyWeight: latW,
			})
			if err != nil {
				t.Fatal(err)
			}
			sm, err := ssim.Run(nSlots, nil)
			if err != nil {
				t.Fatal(err)
			}

			// Continuous run over the same trace, same stream layout.
			root2 := rng.New(seed)
			polC, err := b.build(root2.Split())
			if err != nil {
				t.Fatal(err)
			}
			src, err := ctsim.NewTraceSource(tr)
			if err != nil {
				t.Fatal(err)
			}
			csim, err := ctsim.New(ctsim.Config{
				Device: psm, QueueCap: qcap,
				LatencyWeight: latW / slotD, // J/req-slot → J/req-second
				Policy:        ctsim.Adapt(polC, slotD),
				Source:        src, Stream: root2.Split(),
				DecisionPeriod: slotD, SlotCompatible: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := csim.Run(nSlots * slotD); err != nil {
				t.Fatal(err)
			}
			cm := csim.Metrics()

			if cm.EnergyJ != sm.EnergyJ {
				t.Errorf("energy: ct %.17g J != slotted %.17g J", cm.EnergyJ, sm.EnergyJ)
			}
			if cm.Served != sm.Served {
				t.Errorf("served: ct %d != slotted %d", cm.Served, sm.Served)
			}
			if cm.Arrived != sm.Arrived {
				t.Errorf("arrived: ct %d != slotted %d", cm.Arrived, sm.Arrived)
			}
			if cm.Lost != sm.Lost {
				t.Errorf("lost: ct %d != slotted %d", cm.Lost, sm.Lost)
			}
			if cm.Commands != sm.Commands {
				t.Errorf("commands: ct %d != slotted %d", cm.Commands, sm.Commands)
			}
			if cm.Clamped != sm.Clamped {
				t.Errorf("clamped: ct %d != slotted %d", cm.Clamped, sm.Clamped)
			}
			// State occupancy in seconds must equal slot counts × slot.
			for i, st := range cm.StateTime {
				if want := float64(sm.StateSlots[i]) * slotD; st != want {
					t.Errorf("state %d time: ct %v s != slotted %v s", i, st, want)
				}
			}
			if want := float64(sm.TransitionSlots) * slotD; cm.TransitionTime != want {
				t.Errorf("transition time: ct %v s != slotted %v s", cm.TransitionTime, want)
			}
			if sm.Arrived == 0 {
				t.Fatal("degenerate scenario: no arrivals")
			}
			if b.name != "always-on" && sm.Commands == 0 {
				t.Errorf("degenerate scenario: %s never issued a command", b.name)
			}
		})
	}
}
