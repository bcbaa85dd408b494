package fleet_test

import (
	"context"
	"testing"

	"repro/internal/fleet"
)

// fuzzMaxRate bounds the arrival rate FuzzParseMix runs: the property
// is that an accepted mix is runnable, and a class at 1e12 requests per
// second is runnable too — just not within a fuzzing budget.
const fuzzMaxRate = 1e4

// FuzzParseMix: every mix ParseMix accepts validates as parsed and runs
// one device per class for one second without error. Seeds live in
// testdata/fuzz/FuzzParseMix.
func FuzzParseMix(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		classes, err := fleet.ParseMix(s)
		if err != nil {
			return
		}
		spec := fleet.Spec{Devices: 1, Classes: classes, Horizon: 1}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseMix(%q) accepted a mix Spec.Validate rejects: %v", s, err)
		}
		for i := range classes {
			if classes[i].RatePerSec > fuzzMaxRate {
				t.Skipf("class %d rate %g is beyond the fuzzing budget", i, classes[i].RatePerSec)
			}
			classes[i].Weight = 1
		}
		spec = fleet.Spec{Devices: len(classes), Classes: classes, Horizon: 1, Seed: 1}
		if _, err := fleet.Run(context.Background(), spec, nil); err != nil {
			t.Fatalf("ParseMix(%q) accepted a mix that fails: %v", s, err)
		}
	})
}

// FuzzParseFaults: every fault spec ParseFaults accepts validates for
// a CT fleet — coupled through a channel when it schedules outages,
// which act on the shared resource. Seeds live in
// testdata/fuzz/FuzzParseFaults.
func FuzzParseFaults(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		faults, err := fleet.ParseFaults(s)
		if err != nil {
			return
		}
		spec := fleet.Spec{Devices: 1, Classes: fleet.DefaultMix(), Horizon: 1, Faults: faults}
		if faults.OutagePeriod > 0 {
			spec.Couple = fleet.CoupleChannel
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseFaults(%q) accepted a spec Spec.Validate rejects: %v", s, err)
		}
	})
}
