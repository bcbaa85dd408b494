package experiment

import (
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/qlearn"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/slotsim"
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

// canonFactory labels build as name and runs it at the canonical queue
// cap and latency weight, with each replica's own stream.
func canonFactory(name string, build func(registry.Args) (slotsim.Policy, error),
	dev *device.Slotted, rate float64, timeoutSlots int64) PolicyFactory {
	return PolicyFactory{
		Name: name,
		New: func(stream *rng.Stream) (slotsim.Policy, error) {
			return build(registry.Args{Device: dev, QueueCap: CanonQueueCap, LatencyWeight: CanonLatencyWeight,
				Rate: rate, TimeoutSlots: timeoutSlots, Stream: stream})
		},
	}
}

// Factory returns the policy registered under name (see package
// registry) at the canonical queue cap and latency weight. timeoutSlots
// is timeout's idle timeout and adaptive-timeout's initial one; the
// other policies ignore it. The model-based policies need an arrival
// rate: use OptimalFactory and AdaptiveLPFactory for them.
func Factory(name string, dev *device.Slotted, timeoutSlots int64) PolicyFactory {
	build := func(a registry.Args) (slotsim.Policy, error) { return registry.New(name, a) }
	return canonFactory(name, build, dev, 0, timeoutSlots)
}

// QDPMTrackingFactory returns the nonstationary-tracking configuration
// (constant exploration 0.08 and learning rate 0.25) used in Fig. 2 and
// Tables R3 and R4 under the "q-dpm" label: a constant rate never stops
// adapting, which is exactly the paper's argument for rapid response.
func QDPMTrackingFactory(dev *device.Slotted) PolicyFactory {
	return QDPMVariantFactory("q-dpm", dev, func(c *core.Config) {
		c.Explore = qlearn.EpsGreedy{Eps: 0.08}
		c.Alpha = qlearn.Polynomial{Scale: 0.25}
	})
}

// QDPMVariantFactory returns the converging Q-DPM configuration
// (registry.QDPM) under name, with mut (if non-nil) applied to it: the
// ablations' variants.
func QDPMVariantFactory(name string, dev *device.Slotted, mut func(*core.Config)) PolicyFactory {
	return canonFactory(name, registry.QDPM(mut), dev, 0, 0)
}

// OptimalFactory solves the exact model at arrival rate p once and shares
// the (stateless) policy across replicas. It also returns the optimal
// average cost — the horizontal reference line in Fig. 1.
func OptimalFactory(dev *device.Slotted, p float64) (PolicyFactory, float64, error) {
	opt, gain, err := registry.Optimal(registry.Args{
		Device: dev, QueueCap: CanonQueueCap, LatencyWeight: CanonLatencyWeight, Rate: p,
	})
	if err != nil {
		return PolicyFactory{}, 0, err
	}
	return PolicyFactory{
		Name: "optimal",
		New:  func(*rng.Stream) (slotsim.Policy, error) { return opt, nil },
	}, gain, nil
}

// AdaptiveLPFactory returns the model-based adaptive baseline
// (registry.AdaptiveLP) starting from initialRate, with optimizeLatency
// slots of policy freeze per re-solve (modelling the optimization
// wall-clock the paper complains about).
func AdaptiveLPFactory(dev *device.Slotted, initialRate float64, optimizeLatency int) PolicyFactory {
	return canonFactory("adaptive-lp", registry.AdaptiveLP(optimizeLatency), dev, initialRate, 0)
}
