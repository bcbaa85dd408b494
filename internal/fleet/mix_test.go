package fleet

import (
	"testing"

	"repro/internal/device"
	"repro/internal/registry"
	"repro/internal/rng"
)

// TestAcceptedPoliciesBuildAndReset builds every policy a mix accepts
// through the registry and checks that it is resettable, so a pooled
// lane can serve every instance of its class; registry policies outside
// the accepted list stay rejected.
func TestAcceptedPoliciesBuildAndReset(t *testing.T) {
	dev, err := device.Synthetic3().Slot(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range policies {
		if _, _, err := parsePolicy(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pol, err := registry.New(name, registry.Args{
			Device: dev, QueueCap: 8, LatencyWeight: 0.3,
			TimeoutSlots: registry.DefaultTimeoutSlots, Stream: rng.New(1),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reset, err := policyReset(pol)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reset(rng.New(2))
	}
	for _, name := range []string{"optimal", "adaptive-lp", "q-dpm-sarsa", "q-dpm-qos"} {
		if _, _, err := parsePolicy(name); err == nil {
			t.Errorf("%s accepted in a mix", name)
		}
	}
}
