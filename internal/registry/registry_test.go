package registry

import (
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
)

// TestEveryEntryBuilds builds every registered policy at queue cap 8 and
// at its bound, and expects a cap above the bound and an unknown name to
// be rejected.
func TestEveryEntryBuilds(t *testing.T) {
	dev, err := device.Synthetic3().Slot(0.5)
	if err != nil {
		t.Fatal(err)
	}
	args := func(qcap int) Args {
		return Args{Device: dev, QueueCap: qcap, LatencyWeight: 0.3, Rate: 0.1,
			TimeoutSlots: DefaultTimeoutSlots, Stream: rng.New(1)}
	}
	for _, name := range Names() {
		e, err := Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		caps := []int{8, e.maxQueueCap}
		if name == "adaptive-lp" {
			// From cap 12 up its first LP solve fails over to RVI after
			// seconds of pivoting (~2 s at cap 16, ~40 s at 48), so at
			// the bound only the cap check is exercised.
			caps = caps[:1]
			if err := e.CheckQueueCap(e.maxQueueCap); err != nil {
				t.Errorf("%s: cap at the bound rejected: %v", name, err)
			}
		}
		for _, qcap := range caps {
			pol, err := e.Build(args(qcap))
			if err != nil {
				t.Errorf("%s at cap %d: %v", name, qcap, err)
				continue
			}
			if pol.Name() == "" {
				t.Errorf("%s at cap %d: empty policy name", name, qcap)
			}
		}
		over := e.maxQueueCap + 1
		_, err = New(name, args(over))
		if err == nil || !strings.Contains(err.Error(), "above") {
			t.Errorf("%s at cap %d: got %v, want a cap error", name, over, err)
		}
	}
	if _, err := New("nope", args(8)); err == nil || !strings.Contains(err.Error(), `unknown policy "nope"`) {
		t.Errorf("unknown policy: got %v", err)
	}
}
