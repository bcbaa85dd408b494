package experiment

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// TestQDPMFactoriesKeepLabelAndType pins what reports and traces read
// off the Q-DPM factories: Fig. 2's tracking override and the registry's
// converging config are both labelled "q-dpm" (summaries and the
// benchmark digests hash Summary.Policy) and both build the learner
// itself, a *core.Manager, which pooled resets and per-layer traces
// type-switch on.
func TestQDPMFactoriesKeepLabelAndType(t *testing.T) {
	dev, err := CanonDevice()
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range []PolicyFactory{QDPMTrackingFactory(dev), Factory("q-dpm", dev, 0)} {
		if pf.Name != "q-dpm" {
			t.Errorf("factory name %q, want q-dpm", pf.Name)
		}
		pol, err := pf.New(rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := pol.(*core.Manager); !ok {
			t.Errorf("%s builds %T, want *core.Manager", pf.Name, pol)
		}
	}
}
