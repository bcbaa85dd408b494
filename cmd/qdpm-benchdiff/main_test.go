package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCTReplicaTableCell 	     100	    675788 ns/op	    1568 B/op	      29 allocs/op
BenchmarkFleet1kCT 	       3	  37021045 ns/op	     27012 devices/s	    335995 events/op	       110.2 ns/event	 1902856 B/op	   20019 allocs/op
PASS
pkg: repro/internal/eventq
BenchmarkScheduleAndFire-4   	85702724	        12.74 ns/op	       0 B/op	       0 allocs/op
BenchmarkNotInBaseline-4     	     100	       100.0 ns/op	       0 B/op	       0 allocs/op
ok  	repro/internal/eventq	1.2s
`

const sampleBaseline = `{
  "benchmarks": {
    "BenchmarkCTReplicaTableCell": {"ns_per_op": 675788, "bytes_per_op": 1568, "allocs_per_op": 29},
    "BenchmarkFleet1kCT": {"ns_per_op": 37021045, "bytes_per_op": 1902856, "allocs_per_op": 20019},
    "eventq/BenchmarkScheduleAndFire": {"ns_per_op": 12.74, "bytes_per_op": 0, "allocs_per_op": 0},
    "BenchmarkNeverRan": {"ns_per_op": 1, "bytes_per_op": 0, "allocs_per_op": 0}
  }
}`

// writeBaseline drops a baseline file into a temp dir.
func writeBaseline(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestParseBenchKeysAndFields: names are keyed by package suffix (root
// package unprefixed), the -N worker suffix is stripped, and custom
// metrics do not confuse the ns/B/allocs extraction.
func TestParseBenchKeysAndFields(t *testing.T) {
	res, err := parseBench(strings.NewReader(sampleBench), "repro")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(res), res)
	}
	byKey := map[string]result{}
	for _, r := range res {
		byKey[r.Key] = r
	}
	cell := byKey["BenchmarkCTReplicaTableCell"]
	if cell.NsPerOp != 675788 || cell.AllocsPerOp != 29 {
		t.Fatalf("root benchmark misparsed: %+v", cell)
	}
	fleet := byKey["BenchmarkFleet1kCT"]
	if fleet.NsPerOp != 37021045 || fleet.AllocsPerOp != 20019 {
		t.Fatalf("custom-metric benchmark misparsed: %+v", fleet)
	}
	sched := byKey["eventq/BenchmarkScheduleAndFire"]
	if sched.NsPerOp != 12.74 || sched.AllocsPerOp != 0 {
		t.Fatalf("pkg-prefixed benchmark misparsed: %+v", sched)
	}
}

// TestParseBenchRejectsNonFinite: NaN, ±Inf and negative figures are
// errors that name their line. A NaN used to pass every gate, because
// every comparison with NaN is false.
func TestParseBenchRejectsNonFinite(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-2 1 NaN ns/op 0 B/op 0 allocs/op",
		"BenchmarkX-2 1 +Inf ns/op 0 B/op 0 allocs/op",
		"BenchmarkX-2 1 -Inf ns/op 0 B/op 0 allocs/op",
		"BenchmarkX-2 1 -5 ns/op 0 B/op 0 allocs/op",
		"BenchmarkX-2 1 5 ns/op 0 B/op NaN allocs/op",
		"BenchmarkX-2 1 5 ns/op -1 B/op 0 allocs/op",
		"BenchmarkX-2 1 5 ns/op Inf ns/event",
	} {
		_, err := parseBench(strings.NewReader(line+"\n"), "repro")
		if err == nil {
			t.Errorf("parseBench accepted %q", line)
		} else if !strings.Contains(err.Error(), line) {
			t.Errorf("error %q does not name the line %q", err, line)
		}
	}
}

// TestNaNRunFailsGate: NaN ns/op and allocs/op on the gated fleet rows
// make the gate fail instead of printing ok for both rows and for their
// ratio gate.
func TestNaNRunFailsGate(t *testing.T) {
	in := `BenchmarkFleet10kCT-2 1 NaN ns/op 0 B/op NaN allocs/op NaN ns/event
BenchmarkFleet1MCT-2 1 NaN ns/op 0 B/op NaN allocs/op NaN ns/event
`
	var out bytes.Buffer
	if err := run(strings.NewReader(in), &out, []string{"-baseline", filepath.Join("..", "..", "BENCH_pr10.json")}); err == nil {
		t.Fatalf("NaN bench run passed the gate:\n%s", out.String())
	}
}

// FuzzParseBench: parseBench never panics, and every figure it accepts
// is finite and nonnegative (-1 marks an absent B/op or allocs/op).
// Seeds live in testdata/fuzz/FuzzParseBench.
func FuzzParseBench(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		res, err := parseBench(strings.NewReader(in), "repro")
		if err != nil {
			return
		}
		ok := func(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
		for _, r := range res {
			if !ok(r.NsPerOp) || !(ok(r.AllocsPerOp) || r.AllocsPerOp == -1) || !(ok(r.BytesPerOp) || r.BytesPerOp == -1) {
				t.Fatalf("parseBench(%q) accepted %+v", in, r)
			}
			for k, v := range r.Extra {
				if !ok(v) {
					t.Fatalf("parseBench(%q) accepted %s = %v", in, k, v)
				}
			}
		}
	})
}

// TestGatePasses: a run matching its baseline exits clean and reports
// missing benchmarks without failing them.
func TestGatePasses(t *testing.T) {
	base := writeBaseline(t, sampleBaseline)
	var out bytes.Buffer
	err := run(strings.NewReader(sampleBench), &out, []string{"-baseline", base})
	if err != nil {
		t.Fatalf("gate failed on matching run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "not in baseline") {
		t.Fatalf("missing-benchmark report absent:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "3 compared, 1 missing") {
		t.Fatalf("summary line wrong:\n%s", out.String())
	}
}

// TestGateFailsOnNsRegression: ns/op beyond tolerance fails the gate.
func TestGateFailsOnNsRegression(t *testing.T) {
	base := writeBaseline(t, `{"benchmarks": {
		"eventq/BenchmarkScheduleAndFire": {"ns_per_op": 9.0, "bytes_per_op": 0, "allocs_per_op": 0}}}`)
	var out bytes.Buffer
	err := run(strings.NewReader(sampleBench), &out, []string{"-baseline", base, "-ns-tol", "0.25"})
	if err == nil {
		t.Fatalf("12.74 ns/op vs 9.0 baseline passed a 25%% gate:\n%s", out.String())
	}
	// The same regression passes a looser gate.
	out.Reset()
	if err := run(strings.NewReader(sampleBench), &out, []string{"-baseline", base, "-ns-tol", "0.60"}); err != nil {
		t.Fatalf("60%% gate rejected a 42%% regression: %v", err)
	}
}

// TestGateFailsOnAllocRegression: any allocation on a zero-alloc
// baseline fails regardless of tolerance; non-zero baselines use the
// fractional tolerance.
func TestGateFailsOnAllocRegression(t *testing.T) {
	bench := `pkg: repro/internal/eventq
BenchmarkScheduleAndFire-4  	 1000000	        12.00 ns/op	       8 B/op	       1 allocs/op
`
	base := writeBaseline(t, `{"benchmarks": {
		"eventq/BenchmarkScheduleAndFire": {"ns_per_op": 12.74, "bytes_per_op": 0, "allocs_per_op": 0}}}`)
	var out bytes.Buffer
	err := run(strings.NewReader(bench), &out, []string{"-baseline", base, "-alloc-tol", "1000"})
	if err == nil {
		t.Fatalf("allocation on a 0-alloc path passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "zero-allocation baseline") {
		t.Fatalf("failure reason wrong:\n%s", out.String())
	}

	// Non-zero baseline: within tolerance passes, beyond fails.
	bench2 := `pkg: repro
BenchmarkCTReplicaTableCell 	     100	    675788 ns/op	    1568 B/op	      31 allocs/op
`
	base2 := writeBaseline(t, `{"benchmarks": {
		"BenchmarkCTReplicaTableCell": {"ns_per_op": 675788, "bytes_per_op": 1568, "allocs_per_op": 29}}}`)
	out.Reset()
	if err := run(strings.NewReader(bench2), &out, []string{"-baseline", base2}); err != nil {
		t.Fatalf("31 vs 29 allocs failed a 10%% gate: %v", err)
	}
	out.Reset()
	if err := run(strings.NewReader(bench2), &out, []string{"-baseline", base2, "-alloc-tol", "0.01"}); err == nil {
		t.Fatalf("31 vs 29 allocs passed a 1%% gate:\n%s", out.String())
	}
}

// TestGateStrictAndErrors: strict mode fails missing benchmarks and
// baseline entries that did not run; bad inputs error out.
func TestGateStrictAndErrors(t *testing.T) {
	base := writeBaseline(t, sampleBaseline)
	var out bytes.Buffer
	if err := run(strings.NewReader(sampleBench), &out, []string{"-baseline", base, "-strict"}); err == nil {
		t.Fatal("strict mode passed with a missing benchmark")
	}

	// Deletion hole: every run-side benchmark is in the baseline, but a
	// pinned baseline entry produced no result — strict must fail, and
	// non-strict must pass (partial invocations stay supported).
	bench := `pkg: repro/internal/eventq
BenchmarkScheduleAndFire-4   	85702724	        12.74 ns/op	       0 B/op	       0 allocs/op
`
	delBase := writeBaseline(t, `{"benchmarks": {
		"eventq/BenchmarkScheduleAndFire": {"ns_per_op": 12.74, "bytes_per_op": 0, "allocs_per_op": 0},
		"eventq/BenchmarkDeleted": {"ns_per_op": 1, "bytes_per_op": 0, "allocs_per_op": 0}}}`)
	out.Reset()
	if err := run(strings.NewReader(bench), &out, []string{"-baseline", delBase, "-strict"}); err == nil {
		t.Fatalf("strict mode passed with a deleted pinned benchmark:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "GONE eventq/BenchmarkDeleted") {
		t.Fatalf("deleted benchmark not reported:\n%s", out.String())
	}
	out.Reset()
	if err := run(strings.NewReader(bench), &out, []string{"-baseline", delBase}); err != nil {
		t.Fatalf("non-strict mode failed a partial run: %v", err)
	}
	if err := run(strings.NewReader(sampleBench), &out, nil); err == nil {
		t.Fatal("missing -baseline accepted")
	}
	if err := run(strings.NewReader("no benchmarks here"), &out, []string{"-baseline", base}); err == nil {
		t.Fatal("empty bench input accepted")
	}
	empty := writeBaseline(t, `{"benchmarks": {}}`)
	if err := run(strings.NewReader(sampleBench), &out, []string{"-baseline", empty}); err == nil {
		t.Fatal("empty baseline accepted")
	}
	malformed := writeBaseline(t, `{"benchmarks"`)
	if err := run(strings.NewReader(sampleBench), &out, []string{"-baseline", malformed}); err == nil {
		t.Fatal("malformed baseline accepted")
	}
}

// TestRatioGates: cross-benchmark ratio gates pass within max, fail
// beyond it, skip (non-strict) or fail (strict) when an endpoint did not
// run, and reject malformed gate entries.
func TestRatioGates(t *testing.T) {
	// Two fleet scales with ns/event custom metrics: 100.0 at 10k and
	// 110.0 at 1M — a 1.10 scaling ratio.
	bench := `pkg: repro
BenchmarkFleet10kCT 	       3	 337021045 ns/op	     29673 devices/s	   3391334 events/op	       100.0 ns/event	  695716 B/op	     558 allocs/op
BenchmarkFleet1MCT 	       1	 11021045000 ns/op	     27012 devices/s	 100335995 events/op	       110.0 ns/event	  895716 B/op	     958 allocs/op
`
	baseBench := `"benchmarks": {
		"BenchmarkFleet10kCT": {"ns_per_op": 337021045, "allocs_per_op": 558},
		"BenchmarkFleet1MCT": {"ns_per_op": 11021045000, "allocs_per_op": 958}}`
	gate := func(max float64) string {
		return `{` + baseBench + `,
		"ratio_gates": [{"metric": "ns_per_event",
			"num": "BenchmarkFleet1MCT", "den": "BenchmarkFleet10kCT",
			"max": ` + strconv.FormatFloat(max, 'g', -1, 64) + `,
			"note": "per-event cost must stay flat with fleet scale"}]}`
	}

	// 1.10 measured ratio under a 1.15 cap: passes and reports.
	base := writeBaseline(t, gate(1.15))
	var out bytes.Buffer
	if err := run(strings.NewReader(bench), &out, []string{"-baseline", base}); err != nil {
		t.Fatalf("1.10 ratio failed a 1.15 gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok   ratio ns_per_event(BenchmarkFleet1MCT)") {
		t.Fatalf("passing ratio not reported:\n%s", out.String())
	}

	// Same run under a 1.05 cap: fails with the note.
	base = writeBaseline(t, gate(1.05))
	out.Reset()
	if err := run(strings.NewReader(bench), &out, []string{"-baseline", base}); err == nil {
		t.Fatalf("1.10 ratio passed a 1.05 gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL ratio") || !strings.Contains(out.String(), "stay flat") {
		t.Fatalf("ratio failure not reported with note:\n%s", out.String())
	}

	// An endpoint missing from the run: skipped non-strict, fails strict.
	partial := `pkg: repro
BenchmarkFleet10kCT 	       3	 337021045 ns/op	     100.0 ns/event	  695716 B/op	     558 allocs/op
`
	partialBase := writeBaseline(t, `{"benchmarks": {
		"BenchmarkFleet10kCT": {"ns_per_op": 337021045, "allocs_per_op": 558}},
		"ratio_gates": [{"metric": "ns_per_event",
			"num": "BenchmarkFleet1MCT", "den": "BenchmarkFleet10kCT", "max": 1.15}]}`)
	out.Reset()
	if err := run(strings.NewReader(partial), &out, []string{"-baseline", partialBase}); err != nil {
		t.Fatalf("non-strict run failed on a skipped ratio gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "SKIP ratio") {
		t.Fatalf("skipped ratio not reported:\n%s", out.String())
	}
	out.Reset()
	if err := run(strings.NewReader(partial), &out, []string{"-baseline", partialBase, "-strict"}); err == nil {
		t.Fatalf("strict run passed with an unevaluated ratio gate:\n%s", out.String())
	}

	// Malformed gate entries error out (authoring mistakes, not skips).
	for _, bad := range []string{
		`[{"metric": "", "num": "A", "den": "B", "max": 1}]`,
		`[{"metric": "ns_per_op", "num": "A", "den": "B", "max": 0}]`,
	} {
		badBase := writeBaseline(t, `{`+baseBench+`, "ratio_gates": `+bad+`}`)
		out.Reset()
		if err := run(strings.NewReader(bench), &out, []string{"-baseline", badBase}); err == nil {
			t.Fatalf("malformed ratio gate %s accepted", bad)
		}
	}

	// -update preserves ratio_gates verbatim, and the updated file still
	// enforces them.
	base = writeBaseline(t, gate(1.15))
	out.Reset()
	if err := run(strings.NewReader(bench), &out, []string{"-baseline", base, "-update"}); err != nil {
		t.Fatalf("update failed: %v", err)
	}
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "ratio_gates") || !strings.Contains(string(raw), "stay flat") {
		t.Fatalf("ratio_gates not preserved by -update:\n%s", raw)
	}
	out.Reset()
	if err := run(strings.NewReader(bench), &out, []string{"-baseline", base, "-strict"}); err != nil {
		t.Fatalf("updated baseline fails its own run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok   ratio") {
		t.Fatalf("ratio gate not evaluated after update:\n%s", out.String())
	}
}

// TestUpdateRewritesBaseline: -update replaces the benchmarks map with
// the measured figures (including custom metrics under their JSON
// keys), preserves other top-level fields and per-entry notes, and
// bootstraps a missing file.
func TestUpdateRewritesBaseline(t *testing.T) {
	base := writeBaseline(t, `{
  "pr": 4,
  "host": {"cpu": "test"},
  "benchmarks": {
    "BenchmarkCTReplicaTableCell": {"ns_per_op": 1, "allocs_per_op": 1, "note": "keep me"},
    "BenchmarkGone": {"ns_per_op": 2}
  }
}`)
	var out bytes.Buffer
	if err := run(strings.NewReader(sampleBench), &out, []string{"-baseline", base, "-update"}); err != nil {
		t.Fatalf("update failed: %v\n%s", err, out.String())
	}
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		PR   int                       `json:"pr"`
		Host map[string]any            `json:"host"`
		B    map[string]map[string]any `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("rewritten baseline unparseable: %v\n%s", err, raw)
	}
	if got.PR != 4 || got.Host["cpu"] != "test" {
		t.Fatalf("top-level fields not preserved: %s", raw)
	}
	if _, ok := got.B["BenchmarkGone"]; ok {
		t.Fatal("stale baseline entry survived the rewrite")
	}
	cell := got.B["BenchmarkCTReplicaTableCell"]
	if cell["ns_per_op"] != 675788.0 || cell["allocs_per_op"] != 29.0 || cell["bytes_per_op"] != 1568.0 {
		t.Fatalf("figures not recorded: %v", cell)
	}
	if cell["note"] != "keep me" {
		t.Fatalf("note dropped: %v", cell)
	}
	fleet := got.B["BenchmarkFleet1kCT"]
	if fleet["ns_per_event"] != 110.2 || fleet["devices_per_s"] != 27012.0 || fleet["events_per_op"] != 335995.0 {
		t.Fatalf("custom metrics not recorded: %v", fleet)
	}
	// The updated file passes its own gate.
	out.Reset()
	if err := run(strings.NewReader(sampleBench), &out, []string{"-baseline", base, "-strict"}); err != nil {
		t.Fatalf("updated baseline fails its own run: %v\n%s", err, out.String())
	}

	// Bootstrapping: no file yet.
	fresh := filepath.Join(t.TempDir(), "BENCH_new.json")
	out.Reset()
	if err := run(strings.NewReader(sampleBench), &out, []string{"-baseline", fresh, "-update"}); err != nil {
		t.Fatalf("bootstrap update failed: %v", err)
	}
	raw, err = os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "BenchmarkScheduleAndFire") {
		t.Fatalf("bootstrapped baseline incomplete: %s", raw)
	}
}

// Three runs of the same two benchmarks (`go test -count 3` output),
// with a different run hitting the noise floor for each key: the
// coupled benchmark is fastest in run 2, the uncoupled one in run 1.
const multiRunBench = `pkg: repro
BenchmarkFleetCoupled10kCT 	       2	 500000000 ns/op	     130.0 ns/event	     1480 allocs/op
BenchmarkFleet10kCT 	       3	 300000000 ns/op	      90.0 ns/event	      614 allocs/op
pkg: repro
BenchmarkFleetCoupled10kCT 	       2	 460000000 ns/op	     122.0 ns/event	     1478 allocs/op
BenchmarkFleet10kCT 	       3	 340000000 ns/op	      95.0 ns/event	      614 allocs/op
pkg: repro
BenchmarkFleetCoupled10kCT 	       2	 480000000 ns/op	     126.0 ns/event	     1479 allocs/op
BenchmarkFleet10kCT 	       3	 310000000 ns/op	      84.0 ns/event	      614 allocs/op
`

// TestBestOfReduce: each benchmark collapses to the whole row of its
// own fastest run (so correlated custom metrics stay consistent),
// first-appearance order is preserved, and more occurrences than the
// declared run count is an error.
func TestBestOfReduce(t *testing.T) {
	res, err := parseBench(strings.NewReader(multiRunBench), "repro")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("parsed %d results, want 6", len(res))
	}
	best, err := bestOfReduce(res, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 2 {
		t.Fatalf("reduced to %d results, want 2: %+v", len(best), best)
	}
	coupled, fleet := best[0], best[1]
	if coupled.Key != "BenchmarkFleetCoupled10kCT" || fleet.Key != "BenchmarkFleet10kCT" {
		t.Fatalf("first-appearance order not preserved: %+v", best)
	}
	// Run 2's whole row wins for coupled: min ns/op brings along its own
	// ns/event and allocs, not element-wise minima across runs.
	if coupled.NsPerOp != 460000000 || coupled.Extra["ns_per_event"] != 122.0 || coupled.AllocsPerOp != 1478 {
		t.Fatalf("coupled best row wrong: %+v", coupled)
	}
	// Run 1 wins for uncoupled — selection is per benchmark, not per run.
	if fleet.NsPerOp != 300000000 || fleet.Extra["ns_per_event"] != 90.0 {
		t.Fatalf("uncoupled best row wrong: %+v", fleet)
	}
	// Declared 2 runs but 3 occurrences present: the flag and the input
	// disagree, which is an authoring mistake rather than noise.
	if _, err := bestOfReduce(res, 2); err == nil {
		t.Fatal("3 occurrences accepted under -best-of 2")
	}
	// n=1 is the identity (the no-flag path).
	same, err := bestOfReduce(res, 1)
	if err != nil || len(same) != 6 {
		t.Fatalf("best-of 1 altered the results: %v, %d rows", err, len(same))
	}
}

// TestBestOfGateAndUpdate: with -best-of the gate and the recorder both
// see the per-benchmark minima — a baseline pinned at the noise floor
// passes only when the slow runs are folded away, and -update records
// the floor, not the last run.
func TestBestOfGateAndUpdate(t *testing.T) {
	base := writeBaseline(t, `{"benchmarks": {
		"BenchmarkFleetCoupled10kCT": {"ns_per_op": 460000000, "allocs_per_op": 1478},
		"BenchmarkFleet10kCT": {"ns_per_op": 300000000, "allocs_per_op": 614}},
		"ratio_gates": [{"metric": "ns_per_event",
			"num": "BenchmarkFleetCoupled10kCT", "den": "BenchmarkFleet10kCT",
			"max": 1.40}]}`)

	// Without folding, the slow runs (500M vs 460M baseline ≈ +8.7%)
	// pass the default 25% tolerance but fail a 5% one.
	var out bytes.Buffer
	if err := run(strings.NewReader(multiRunBench), &out, []string{"-baseline", base, "-ns-tol", "0.05"}); err == nil {
		t.Fatalf("slow unfolded runs passed a 5%% gate:\n%s", out.String())
	}
	out.Reset()
	if err := run(strings.NewReader(multiRunBench), &out, []string{"-baseline", base, "-ns-tol", "0.05", "-best-of", "3"}); err != nil {
		t.Fatalf("best-of minima failed their own baseline: %v\n%s", err, out.String())
	}
	// The ratio gate sees the folded rows too: 122/90 ≈ 1.356 ≤ 1.40,
	// while the per-run worst case (130/84 ≈ 1.548) would fail.
	if !strings.Contains(out.String(), "ok   ratio ns_per_event(BenchmarkFleetCoupled10kCT)") {
		t.Fatalf("ratio gate not evaluated on folded rows:\n%s", out.String())
	}

	// -best-of composes with -update: the recorded figures are the minima.
	fresh := filepath.Join(t.TempDir(), "BENCH_bestof.json")
	out.Reset()
	if err := run(strings.NewReader(multiRunBench), &out, []string{"-baseline", fresh, "-update", "-best-of", "3"}); err != nil {
		t.Fatalf("best-of update failed: %v", err)
	}
	raw, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		B map[string]map[string]any `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("recorded baseline unparseable: %v\n%s", err, raw)
	}
	if got.B["BenchmarkFleetCoupled10kCT"]["ns_per_event"] != 122.0 ||
		got.B["BenchmarkFleet10kCT"]["ns_per_event"] != 90.0 {
		t.Fatalf("minima not recorded: %s", raw)
	}

	// A run count below 1 is rejected.
	out.Reset()
	if err := run(strings.NewReader(multiRunBench), &out, []string{"-baseline", base, "-best-of", "0"}); err == nil {
		t.Fatal("-best-of 0 accepted")
	}
}
