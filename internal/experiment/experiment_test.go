package experiment

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_r1_columns.txt")

// miniFig1 returns a small-but-meaningful Fig. 1 configuration for tests.
func miniFig1() Fig1Config {
	return Fig1Config{
		ArrivalP: 0.1,
		Slots:    100000,
		Window:   3000,
		Stride:   1500,
		Seeds:    []uint64{11, 12},
	}
}

func miniFig2() Fig2Config {
	return Fig2Config{
		Rates:                []float64{0.02, 0.30},
		SegmentSlots:         30000,
		Window:               2500,
		Stride:               1000,
		Seeds:                []uint64{21},
		OptimizeLatencySlots: 1000,
	}
}

func TestScenarioValidate(t *testing.T) {
	dev, err := CanonDevice()
	if err != nil {
		t.Fatal(err)
	}
	good := Scenario{
		Name: "ok", Device: dev, QueueCap: 8, LatencyWeight: 0.3, Slots: 10,
		Workload: func() workload.Arrivals {
			b, _ := workload.NewBernoulli(0.1)
			return b
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Device = nil
	if bad.Validate() == nil {
		t.Error("nil device accepted")
	}
	bad = good
	bad.Workload = nil
	if bad.Validate() == nil {
		t.Error("nil workload accepted")
	}
	bad = good
	bad.Slots = 0
	if bad.Validate() == nil {
		t.Error("zero slots accepted")
	}
}

func TestRunReplicatedDeterministic(t *testing.T) {
	dev, _ := CanonDevice()
	sc := Scenario{
		Name: "det", Device: dev, QueueCap: 8, LatencyWeight: 0.3, Slots: 5000,
		Workload: func() workload.Arrivals {
			b, _ := workload.NewBernoulli(0.1)
			return b
		},
	}
	pf := Factory("timeout", dev, 8)
	a, err := RunReplicatedCtx(context.Background(), sc, pf, []uint64{1, 2, 3}, Parallel{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReplicatedCtx(context.Background(), sc, pf, []uint64{1, 2, 3}, Parallel{})
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgPowerW.Mean() != b.AvgPowerW.Mean() {
		t.Error("replicated runs not deterministic")
	}
	if a.Replicas != 3 {
		t.Errorf("replicas %d", a.Replicas)
	}
}

func TestRunReplicatedNoSeeds(t *testing.T) {
	dev, _ := CanonDevice()
	sc := Scenario{
		Name: "x", Device: dev, QueueCap: 8, LatencyWeight: 0.3, Slots: 10,
		Workload: func() workload.Arrivals {
			b, _ := workload.NewBernoulli(0.1)
			return b
		},
	}
	if _, err := RunReplicatedCtx(context.Background(), sc, Factory("timeout", dev, 8), nil, Parallel{}); err == nil {
		t.Error("no seeds accepted")
	}
}

func TestMeanSeries(t *testing.T) {
	a := &stats.Series{Name: "a", X: []float64{1, 2}, Y: []float64{1, 3}}
	b := &stats.Series{Name: "b", X: []float64{1, 2}, Y: []float64{3, 5}}
	m, err := MeanSeries("m", []*stats.Series{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if m.Y[0] != 2 || m.Y[1] != 4 {
		t.Errorf("mean series %v", m.Y)
	}
	if _, err := MeanSeries("x", nil); err == nil {
		t.Error("empty input accepted")
	}
	c := &stats.Series{Name: "c", X: []float64{1}, Y: []float64{1}}
	if _, err := MeanSeries("x", []*stats.Series{a, c}); err == nil {
		t.Error("ragged series accepted")
	}
}

func TestFig1ShapeHolds(t *testing.T) {
	// The load-bearing reproduction check: Q-DPM's tail must approach the
	// optimal line and beat the heuristics; the ordering
	// optimal <= q-dpm < {timeout, greedy} must hold on tails.
	fig, err := Fig1Ctx(context.Background(), miniFig1(), Parallel{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*stats.Series{}
	for _, s := range fig.Series {
		byName[s.Name] = s
	}
	for _, want := range []string{"q-dpm", "optimal", "timeout", "greedy-off"} {
		if byName[want] == nil {
			t.Fatalf("figure missing series %q", want)
		}
	}
	gain := fig.HLines["optimal gain"]
	if !(gain > 0) {
		t.Fatalf("optimal gain %v", gain)
	}
	qTail := byName["q-dpm"].TailMean(0.25)
	optTail := byName["optimal"].TailMean(0.25)
	toTail := byName["timeout"].TailMean(0.25)

	if qTail > gain*1.25 {
		t.Errorf("q-dpm tail %v not within 25%% of optimal gain %v", qTail, gain)
	}
	if qTail < optTail-0.05 {
		t.Errorf("q-dpm tail %v below optimal tail %v: accounting bug", qTail, optTail)
	}
	// At λ=0.1 the discriminative heuristic is the fixed timeout (greedy
	// shutdown is near-optimal at long idles, so it is context, not a
	// bar): Q-DPM must clearly beat it.
	if qTail >= toTail {
		t.Errorf("q-dpm tail %v did not beat timeout %v", qTail, toTail)
	}
	// Convergence: the last quarter must be better than the first quarter.
	first := stats.Mean(byName["q-dpm"].Y[:byName["q-dpm"].Len()/4])
	if qTail >= first {
		t.Errorf("q-dpm did not improve over time: first %v tail %v", first, qTail)
	}
}

func TestFig2ShapeHolds(t *testing.T) {
	// After the low→high switch both adaptive policies dip; Q-DPM must
	// recover at least as fast as adaptive-LP (the paper's core claim).
	cfg := miniFig2()
	fig, err := Fig2Ctx(context.Background(), cfg, Parallel{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.VLines) != 1 {
		t.Fatalf("expected 1 switch point, got %v", fig.VLines)
	}
	byName := map[string]*stats.Series{}
	for _, s := range fig.Series {
		byName[s.Name] = s
	}
	q := byName["q-dpm"]
	lp := byName["adaptive-lp"]
	if q == nil || lp == nil {
		t.Fatal("missing series")
	}
	sw := fig.VLines
	segEnd := []float64{float64(2 * cfg.SegmentSlots)}
	qRec := RecoverySlots(q, sw, segEnd, 0.06)
	lpRec := RecoverySlots(lp, sw, segEnd, 0.06)
	if qRec[0] < 0 {
		t.Fatalf("q-dpm never recovered after the switch")
	}
	if lpRec[0] >= 0 && qRec[0] > lpRec[0]+int64(cfg.Window) {
		t.Errorf("q-dpm recovery %d much slower than adaptive-lp %d", qRec[0], lpRec[0])
	}
}

func TestTableR1OrdersOfMagnitude(t *testing.T) {
	tab, rows, err := TableR1Ctx(context.Background(), []int{3, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		// The paper's claim: an LP re-solve is orders of magnitude more
		// expensive than a Q step. Counted in table entries read, not
		// timed, so no host is fast or loaded enough to move it.
		if ratio := float64(r.LPTableauReads) / float64(r.QStepReads); ratio < 100 {
			t.Errorf("|S|=%d: LP solve reads %d tableau entries, a Q step %d table entries: ratio %.1f < 100",
				r.States, r.LPTableauReads, r.QStepReads, ratio)
		}
		if r.QTableBytes >= r.ModelBytes {
			t.Errorf("|S|=%d: Q table (%dB) not smaller than model (%dB)", r.States, r.QTableBytes, r.ModelBytes)
		}
	}
	// Larger model must not get cheaper. Pivot counts, unlike solve
	// times, do not depend on machine load.
	if rows[1].LPPivots < rows[0].LPPivots {
		t.Errorf("LP pivots shrank with model size: %d -> %d", rows[0].LPPivots, rows[1].LPPivots)
	}
	var buf bytes.Buffer
	RenderTable(&buf, tab.Title, tab.Headers, tab.Rows)
	if !strings.Contains(buf.String(), "Table R1") {
		t.Error("render missing title")
	}
}

// TestTableR1DeterministicColumns pins the columns of Table R1 that no
// machine load moves — the state count, the Q table and model sizes and
// the LP's pivot count — at queue caps 3 and 8. The wall-clock columns
// are left out. -update rewrites testdata/golden_r1_columns.txt.
func TestTableR1DeterministicColumns(t *testing.T) {
	_, rows, err := TableR1Ctx(context.Background(), []int{3, 8})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("# |S| QTableBytes ModelBytes LPPivots\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d %d %d %d\n", r.States, r.QTableBytes, r.ModelBytes, r.LPPivots)
	}
	golden := filepath.Join("testdata", "golden_r1_columns.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("Table R1's deterministic columns differ from %s:\n%s\nwant:\n%s", golden, got, want)
	}
}

func TestRecoverySlots(t *testing.T) {
	s := &stats.Series{Name: "x"}
	// Steps: level 0 until x=10, dips to -1, back to 0 at x=14, stays.
	ys := []float64{0, 0, 0, 0, 0, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	for i, y := range ys {
		s.Append(float64(i*2+2), y) // x = 2,4,...,40
	}
	rec := RecoverySlots(s, []float64{10}, []float64{40}, 0.1)
	// Dip at x=12,14 (indices 5,6); recovered from x=16 -> 6 slots after
	// the switch at 10.
	if rec[0] != 6 {
		t.Errorf("recovery %d, want 6", rec[0])
	}
	// A switch beyond the sampled range can never register recovery.
	recNever := RecoverySlots(&stats.Series{
		X: []float64{11, 12}, Y: []float64{5, -5},
	}, []float64{100}, []float64{200}, 0.0001)
	if recNever[0] != -1 {
		t.Errorf("impossible recovery reported %d", recNever[0])
	}
}

func TestFigureRender(t *testing.T) {
	fig := &Figure{
		Title: "T", XLabel: "x", YLabel: "y",
		Series: []*stats.Series{
			{Name: "s1", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
			{Name: "s2", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}},
		},
		VLines: []float64{1},
		HLines: map[string]float64{"ref": 1},
		Note:   "note",
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T", "# note", "legend", "s1", "s2", "ref"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigureRenderEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Figure{Title: "E"}).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no data") {
		t.Error("empty figure render missing placeholder")
	}
}

func TestWindowedSeriesValidation(t *testing.T) {
	dev, _ := CanonDevice()
	sc := Scenario{
		Name: "x", Device: dev, QueueCap: 8, LatencyWeight: 0.3, Slots: 10,
		Workload: func() workload.Arrivals {
			b, _ := workload.NewBernoulli(0.1)
			return b
		},
	}
	ctx := context.Background()
	if _, _, err := windowedSeries(ctx, sc, Factory("timeout", dev, 8), 1, 0, 5, slotCost, meanAsIs); err == nil {
		t.Error("zero window accepted")
	}
	if _, _, err := windowedSeries(ctx, sc, Factory("timeout", dev, 8), 1, 5, 0, slotEnergy, reductionVs(dev.MaxPowerEnergy())); err == nil {
		t.Error("zero stride accepted")
	}
}

func TestTableR4JitterWorkload(t *testing.T) {
	tab, err := TableR4Ctx(context.Background(), 0.15, 0.2, 2000, 30000, []uint64{41}, Parallel{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows %d, want 4", len(tab.Rows))
	}
}

func TestTableAblationsSmoke(t *testing.T) {
	specs := DefaultAblations()[:2] // baseline + one variant
	tab, err := TableAblationsCtx(context.Background(), specs, 0.1, 30000, []uint64{51}, Parallel{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
}
