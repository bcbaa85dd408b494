package experiment

import (
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mdp"
	"repro/internal/policy"
	"repro/internal/qlearn"
	"repro/internal/rng"
	"repro/internal/slotsim"
	"repro/internal/stochpm"
)

// Canonical experiment parameters (see DESIGN.md §4). All figures and
// tables use the synthetic 3-state device at 0.5 s slots with queue cap 8
// and latency weight 0.3 J per request-slot unless stated otherwise.
const (
	// CanonQueueCap is the queue capacity shared by simulator and models.
	CanonQueueCap = 8
	// CanonLatencyWeight is the backlog cost weight in J/request-slot.
	CanonLatencyWeight = 0.3
	// CanonSlotSeconds is the slot duration.
	CanonSlotSeconds = 0.5
)

// CanonDevice returns the canonical slotted device.
func CanonDevice() (*device.Slotted, error) {
	return device.Synthetic3().Slot(CanonSlotSeconds)
}

// QDPMFactory returns the canonical converging Q-DPM configuration
// (decaying exploration, polynomial learning rate) used in Fig. 1: the
// unmodified QDPMVariantFactory.
func QDPMFactory(dev *device.Slotted) PolicyFactory {
	return QDPMVariantFactory("q-dpm", dev, nil)
}

// QDPMTrackingFactory returns the nonstationary-tracking configuration
// (constant exploration and learning rate) used in Fig. 2: a constant rate
// never stops adapting, which is exactly the paper's argument for rapid
// response.
func QDPMTrackingFactory(dev *device.Slotted) PolicyFactory {
	return PolicyFactory{
		Name: "q-dpm",
		New: func(stream *rng.Stream) (slotsim.Policy, error) {
			return core.New(core.Config{
				Device:        dev,
				QueueCap:      CanonQueueCap,
				LatencyWeight: CanonLatencyWeight,
				Explore:       qlearn.EpsGreedy{Eps: 0.08},
				Alpha:         qlearn.Constant{C: 0.25},
				Stream:        stream,
			})
		},
	}
}

// QDPMVariantFactory returns the converging Q-DPM configuration under
// name, with mut (if non-nil) applied to it: the ablations' variants.
func QDPMVariantFactory(name string, dev *device.Slotted, mut func(*core.Config)) PolicyFactory {
	return PolicyFactory{
		Name: name,
		New: func(stream *rng.Stream) (slotsim.Policy, error) {
			cfg := core.Config{
				Device:        dev,
				QueueCap:      CanonQueueCap,
				LatencyWeight: CanonLatencyWeight,
				Explore:       qlearn.EpsGreedy{Eps: 0.3, MinEps: 0.002, DecayTau: 30000},
				Alpha:         qlearn.Polynomial{Scale: 0.5, Omega: 0.65},
				Stream:        stream,
			}
			if mut != nil {
				mut(&cfg)
			}
			return core.New(cfg)
		},
	}
}

// OptimalFactory solves the exact model at arrival rate p once and shares
// the (stateless) policy across replicas. It also returns the optimal
// average cost — the horizontal reference line in Fig. 1.
func OptimalFactory(dev *device.Slotted, p float64) (PolicyFactory, float64, error) {
	d, err := mdp.BuildDPM(mdp.DPMConfig{
		Device:        dev,
		ArrivalP:      p,
		QueueCap:      CanonQueueCap,
		LatencyWeight: CanonLatencyWeight,
	})
	if err != nil {
		return PolicyFactory{}, 0, err
	}
	res, err := d.AverageCostRVI(1e-8, 500000)
	if err != nil {
		return PolicyFactory{}, 0, err
	}
	opt, err := policy.NewOptimal(d, res.Policy)
	if err != nil {
		return PolicyFactory{}, 0, err
	}
	return PolicyFactory{
		Name: "optimal",
		New:  func(*rng.Stream) (slotsim.Policy, error) { return opt, nil },
	}, res.Gain, nil
}

// AdaptiveLPFactory returns the model-based adaptive baseline: sliding-
// window estimator + CUSUM mode-switch controller + LP re-optimization,
// with optimizeLatency slots of policy freeze per re-solve (modelling the
// optimization wall-clock the paper complains about).
func AdaptiveLPFactory(dev *device.Slotted, initialRate float64, optimizeLatency int) PolicyFactory {
	return PolicyFactory{
		Name: "adaptive-lp",
		New: func(stream *rng.Stream) (slotsim.Policy, error) {
			return stochpm.NewAdaptive(stochpm.AdaptiveConfig{
				Device:               dev,
				QueueCap:             CanonQueueCap,
				LatencyWeight:        CanonLatencyWeight,
				InitialRate:          initialRate,
				Window:               512,
				OptimizeLatencySlots: optimizeLatency,
				Stream:               stream,
			})
		},
	}
}

// AlwaysOnFactory returns the always-on baseline.
func AlwaysOnFactory(dev *device.Slotted) PolicyFactory {
	return PolicyFactory{
		Name: "always-on",
		New: func(*rng.Stream) (slotsim.Policy, error) {
			return policy.NewAlwaysOn(dev)
		},
	}
}

// GreedyOffFactory returns the immediate-shutdown baseline.
func GreedyOffFactory(dev *device.Slotted) PolicyFactory {
	return PolicyFactory{
		Name: "greedy-off",
		New: func(*rng.Stream) (slotsim.Policy, error) {
			return policy.NewGreedyOff(dev)
		},
	}
}

// TimeoutFactory returns a fixed-timeout baseline.
func TimeoutFactory(dev *device.Slotted, slots int64) PolicyFactory {
	return PolicyFactory{
		Name: "timeout",
		New: func(*rng.Stream) (slotsim.Policy, error) {
			return policy.NewFixedTimeout(dev, slots)
		},
	}
}

// AdaptiveTimeoutFactory returns the Douglis-style adaptive timeout.
func AdaptiveTimeoutFactory(dev *device.Slotted) PolicyFactory {
	return PolicyFactory{
		Name: "adaptive-timeout",
		New: func(*rng.Stream) (slotsim.Policy, error) {
			return policy.NewAdaptiveTimeout(dev, 8, 1, 128)
		},
	}
}

// PredictiveFactory returns the Hwang–Wu predictive baseline.
func PredictiveFactory(dev *device.Slotted) PolicyFactory {
	return PolicyFactory{
		Name: "predictive",
		New: func(*rng.Stream) (slotsim.Policy, error) {
			return policy.NewPredictive(dev, 0.5)
		},
	}
}
