package experiment

import (
	"context"
	"testing"
)

// TestAnalyticConformance runs the full analytic ladder — every ctsim,
// slotsim, and fleet rung — and requires every check to pass. This is
// the test behind the CI analytic-gate job; the seeds are fixed so the
// gate is deterministic.
func TestAnalyticConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("analytic conformance needs full horizons")
	}
	seeds := []uint64{101, 102, 103, 104, 105, 106, 107, 108}
	rep, err := RunAnalyticCtx(context.Background(), seeds, Parallel{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checks) == 0 {
		t.Fatal("conformance harness produced no checks")
	}
	for _, c := range rep.Checks {
		mode := "two-sided"
		if c.Bound {
			mode = "bound"
		}
		t.Logf("%-18s %-7s %-28s theory=%.6f sim=%.6f ci=%.6f slack=%.6f %s pass=%v",
			c.Rung, c.Sim, c.Metric, c.Theory, c.Observed, c.CI, c.Slack, mode, c.Pass)
	}
	for _, c := range rep.Failures() {
		t.Errorf("analytic check failed: %s/%s %s: theory %.6f, simulated %.6f (ci %.6f, slack %.6f)",
			c.Rung, c.Sim, c.Metric, c.Theory, c.Observed, c.CI, c.Slack)
	}
}

// TestAnalyticNoSeeds pins the empty-seed error path.
func TestAnalyticNoSeeds(t *testing.T) {
	if _, err := RunAnalyticCtx(context.Background(), nil, Parallel{}); err == nil {
		t.Error("RunAnalyticCtx accepted an empty seed list")
	}
}
