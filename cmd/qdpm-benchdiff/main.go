// Command qdpm-benchdiff is the CI benchmark-regression gate: it parses
// `go test -bench` output and compares every benchmark against the
// recorded BENCH_*.json baseline, failing when ns/op regresses beyond a
// tolerance or when a zero-allocation path starts allocating.
//
//	go test -run '^$' -bench 'ScheduleAndFire|CTReplica|Fleet' -benchmem \
//	    ./... | qdpm-benchdiff -baseline BENCH_pr4.json
//
// Benchmark names are keyed the way the BENCH files record them: the
// package directory's last element prefixes the name (eventq/
// BenchmarkScheduleAndFire), except for the repository root package,
// which is unprefixed. Benchmarks missing from the baseline are reported
// but pass, and baseline entries that did not run are ignored, so one
// baseline can serve several partial bench invocations. -strict closes
// both holes for pinned CI runs: it fails benchmarks missing from the
// baseline (renames) AND baseline entries that produced no result
// (deletions or regex un-pinning).
//
// Gate rules, per benchmark present in both sides:
//
//   - ns/op:     fail when current > baseline × (1 + ns-tol). Default
//     ns-tol 0.25; CI passes a larger value because shared runners are
//     noisy.
//   - allocs/op: fail when the baseline is 0 and the current value is
//     not — zero-allocation hot paths are a hard invariant, not a
//     budget. Non-zero baselines fail beyond (1 + alloc-tol), default
//     0.10, since alloc counts are near-deterministic.
//
// Ratio gates. Beyond per-benchmark comparisons, a baseline may carry a
// top-level "ratio_gates" array pinning relations BETWEEN benchmarks of
// the same run — the shape of a scaling curve rather than any absolute
// figure:
//
//	"ratio_gates": [{
//	  "metric": "ns_per_event",
//	  "num": "BenchmarkFleet1MCT", "den": "BenchmarkFleet10kCT",
//	  "max": 1.15,
//	  "note": "per-event cost must stay flat from 10k to 1M devices"
//	}]
//
// The gate fails when metric(num)/metric(den) > max in the current run.
// Metrics name recorded keys: ns_per_op, allocs_per_op, bytes_per_op, or
// any custom metric key (ns_per_event). Ratios compare two measurements
// from the same host and run, so they hold a tight tolerance where
// absolute ns/op gates must absorb cross-host noise. A gate whose
// endpoints did not run is skipped (partial invocations stay supported)
// unless -strict, which fails it like an unran pinned benchmark.
// -update preserves ratio_gates untouched (it only rewrites the
// benchmarks map).
//
// -update flips the tool from gate to recorder: instead of comparing, it
// rewrites the baseline's benchmarks map from the bench run (ns/op,
// B/op, allocs/op, and custom metrics like ns/event), preserving every
// other top-level field and per-entry notes — the path for recording a
// new BENCH_prN.json without hand-editing.
//
// -best-of N declares the input to carry up to N runs of each benchmark
// (`go test -bench -count N`) and reduces every benchmark to its
// fastest run — the whole result row of the minimum-ns/op occurrence,
// so correlated figures (ns/event, devices/s) stay mutually consistent
// — before gating or recording. The minimum across repeated runs
// estimates the noise floor, which is what both sides of a gate should
// compare on a shared CI runner; a benchmark appearing more than N
// times fails (the run and the flag disagree).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Stdin, os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "qdpm-benchdiff: %v\n", err)
		os.Exit(1)
	}
}

// baselineEntry is one recorded benchmark in a BENCH_*.json file. Only
// the fields the gate compares are decoded; extra fields (bytes_per_op,
// ns_per_event, notes) are ignored.
type baselineEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// ratioGate pins a relation between two benchmarks of the same run:
// Metric(Num)/Metric(Den) must not exceed Max. See the package comment.
type ratioGate struct {
	Metric string  `json:"metric"`
	Num    string  `json:"num"`
	Den    string  `json:"den"`
	Max    float64 `json:"max"`
	Note   string  `json:"note"`
}

// validate rejects a malformed gate entry (a baseline-authoring error,
// not a measurement failure).
func (g *ratioGate) validate(i int) error {
	if g.Metric == "" || g.Num == "" || g.Den == "" {
		return fmt.Errorf("ratio_gates[%d] needs metric, num, and den", i)
	}
	if !(g.Max > 0) {
		return fmt.Errorf("ratio_gates[%d] (%s/%s) max %v must be positive", i, g.Num, g.Den, g.Max)
	}
	return nil
}

// baselineFile is the BENCH_*.json schema subset the gate reads.
type baselineFile struct {
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
	RatioGates []ratioGate              `json:"ratio_gates"`
}

// result is one parsed benchmark run.
type result struct {
	// Key is the baseline lookup key: pkg-suffix/Name, or bare Name for
	// the repository root package.
	Key string
	// NsPerOp and AllocsPerOp mirror -benchmem output (the gated
	// figures; B/op is deliberately not gated — the allocs rule covers
	// the hard 0-alloc invariant and byte counts track it).
	// AllocsPerOp is -1 when the line carried no allocation figures
	// (bench run without -benchmem).
	NsPerOp     float64
	AllocsPerOp float64
	// BytesPerOp is -1 when absent; recorded by -update, never gated.
	BytesPerOp float64
	// Extra holds the custom metrics (ns/event, devices/s, ...) keyed
	// the way BENCH files record them (ns_per_event, devices_per_s);
	// recorded by -update, never gated.
	Extra map[string]float64
}

// metricKey converts a go-test unit into the BENCH JSON key:
// ns/event -> ns_per_event, devices/s -> devices_per_s.
func metricKey(unit string) string {
	return strings.NewReplacer("/", "_per_", ".", "_").Replace(unit)
}

// parseBench scans `go test -bench` output, tracking `pkg:` headers to
// key benchmarks the way the BENCH files do.
func parseBench(r io.Reader, module string) ([]result, error) {
	var out []result
	prefix := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if pkg, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(pkg)
			if pkg == module {
				prefix = ""
			} else if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
				prefix = pkg[i+1:] + "/"
			} else {
				prefix = pkg + "/"
			}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		// Name-N iterations value unit [value unit]...
		if len(f) < 4 || (len(f)%2 != 0) {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i]
		}
		res := result{Key: prefix + name, AllocsPerOp: -1, BytesPerOp: -1}
		seenNs := false
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", f[i], line)
			}
			// Every comparison with NaN is false, so a NaN would pass
			// each gate; no recorded figure is negative or infinite.
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return nil, fmt.Errorf("value %q in line %q must be finite and >= 0", f[i], line)
			}
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp, seenNs = v, true
			case "allocs/op":
				res.AllocsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			default:
				if res.Extra == nil {
					res.Extra = make(map[string]float64)
				}
				res.Extra[metricKey(f[i+1])] = v
			}
		}
		if !seenNs {
			continue // a custom-metric-only line; nothing to gate
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// bestOfReduce collapses repeated runs of each benchmark (`go test
// -count N` emits one line per run) to the single fastest run by
// ns/op, preserving first-appearance order. The whole winning row is
// kept — not an element-wise minimum — so "bigger is better" custom
// metrics (devices/s) come from the same measurement as the ns figures
// they accompany. A key appearing more than n times is an error: the
// input holds more runs than -best-of was told to expect.
func bestOfReduce(results []result, n int) ([]result, error) {
	if n <= 1 {
		return results, nil
	}
	idx := make(map[string]int, len(results))
	counts := make(map[string]int, len(results))
	out := make([]result, 0, len(results))
	for _, res := range results {
		counts[res.Key]++
		if counts[res.Key] > n {
			return nil, fmt.Errorf("benchmark %s ran %d times, more than the declared -best-of %d",
				res.Key, counts[res.Key], n)
		}
		if j, ok := idx[res.Key]; ok {
			if res.NsPerOp < out[j].NsPerOp {
				out[j] = res
			}
			continue
		}
		idx[res.Key] = len(out)
		out = append(out, res)
	}
	return out, nil
}

// metric returns the named figure from a parsed result, using the same
// keys the BENCH files record (ns_per_op, allocs_per_op, bytes_per_op,
// or a custom metric key like ns_per_event). ok is false when the run
// did not carry that figure.
func (r *result) metric(key string) (v float64, ok bool) {
	switch key {
	case "ns_per_op":
		return r.NsPerOp, true
	case "allocs_per_op":
		return r.AllocsPerOp, r.AllocsPerOp >= 0
	case "bytes_per_op":
		return r.BytesPerOp, r.BytesPerOp >= 0
	default:
		v, ok = r.Extra[key]
		return v, ok
	}
}

// checkRatioGates evaluates the baseline's cross-benchmark ratio gates
// against the run and returns (failed, skipped) counts. Gates whose
// endpoints did not run (or ran without the pinned metric) are skipped
// and reported; strict mode turns skips into failures at the caller.
func checkRatioGates(gates []ratioGate, byKey map[string]*result, stdout io.Writer) (failed, skipped int, err error) {
	for i := range gates {
		g := &gates[i]
		if err := g.validate(i); err != nil {
			return 0, 0, err
		}
		num, den := byKey[g.Num], byKey[g.Den]
		var nv, dv float64
		var nok, dok bool
		if num != nil {
			nv, nok = num.metric(g.Metric)
		}
		if den != nil {
			dv, dok = den.metric(g.Metric)
		}
		switch {
		case !nok || !dok:
			skipped++
			fmt.Fprintf(stdout, "SKIP ratio %s(%s)/%s(%s): endpoint did not run or lacks the metric\n",
				g.Metric, g.Num, g.Metric, g.Den)
		case dv == 0:
			skipped++
			fmt.Fprintf(stdout, "SKIP ratio %s(%s)/%s(%s): denominator is zero\n",
				g.Metric, g.Num, g.Metric, g.Den)
		case nv/dv > g.Max:
			failed++
			fmt.Fprintf(stdout, "FAIL ratio %s(%s)/%s(%s) = %.4g/%.4g = %.3f exceeds max %.3f\n",
				g.Metric, g.Num, g.Metric, g.Den, nv, dv, nv/dv, g.Max)
			if g.Note != "" {
				fmt.Fprintf(stdout, "     (%s)\n", g.Note)
			}
		default:
			fmt.Fprintf(stdout, "ok   ratio %s(%s)/%s(%s) = %.3f (max %.3f)\n",
				g.Metric, g.Num, g.Metric, g.Den, nv/dv, g.Max)
		}
	}
	return failed, skipped, nil
}

// compare applies the gate rules and returns the failure reasons (none
// means the benchmark passes, or has no baseline to compare against).
func compare(res result, base *baselineEntry, nsTol, allocTol float64) []string {
	if base == nil {
		return nil
	}
	var failures []string
	if base.NsPerOp > 0 && res.NsPerOp > base.NsPerOp*(1+nsTol) {
		failures = append(failures, fmt.Sprintf("ns/op %.4g exceeds baseline %.4g by more than %.0f%%",
			res.NsPerOp, base.NsPerOp, 100*nsTol))
	}
	if res.AllocsPerOp >= 0 {
		switch {
		case base.AllocsPerOp == 0 && res.AllocsPerOp > 0:
			failures = append(failures, fmt.Sprintf("allocates %.4g allocs/op on a zero-allocation baseline path",
				res.AllocsPerOp))
		case base.AllocsPerOp > 0 && res.AllocsPerOp > base.AllocsPerOp*(1+allocTol):
			failures = append(failures, fmt.Sprintf("allocs/op %.4g exceeds baseline %.4g by more than %.0f%%",
				res.AllocsPerOp, base.AllocsPerOp, 100*allocTol))
		}
	}
	return failures
}

// updateBaseline rewrites the baseline's benchmarks map from a parsed
// bench run — ns/op, B/op, allocs/op, and every custom metric (ns/event,
// devices/s, ...) under their BENCH JSON keys — preserving all other
// top-level fields and each surviving entry's note, then writes the file
// back in place. This is how BENCH_prN.json is recorded: run the pinned
// benchmarks, pipe through -update, review the diff.
func updateBaseline(path string, raw []byte, results []result, stdout io.Writer) error {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	// Per-entry notes survive the rewrite; everything else is replaced
	// by the measured figures.
	var old struct {
		Benchmarks map[string]struct {
			Note string `json:"note"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &old); err != nil {
		return fmt.Errorf("parsing %s benchmarks: %w", path, err)
	}
	benches := make(map[string]map[string]any, len(results))
	for _, res := range results {
		e := map[string]any{"ns_per_op": res.NsPerOp}
		if res.BytesPerOp >= 0 {
			e["bytes_per_op"] = res.BytesPerOp
		}
		if res.AllocsPerOp >= 0 {
			e["allocs_per_op"] = res.AllocsPerOp
		}
		for k, v := range res.Extra {
			e[k] = v
		}
		if o, ok := old.Benchmarks[res.Key]; ok && o.Note != "" {
			e["note"] = o.Note
		}
		benches[res.Key] = e
	}
	nb, err := json.Marshal(benches)
	if err != nil {
		return err
	}
	top["benchmarks"] = nb
	out, err := json.MarshalIndent(top, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "updated %s: %d benchmarks recorded\n", path, len(benches))
	return nil
}

// run drives the gate: parse, compare, report, and return an error when
// any benchmark fails.
func run(stdin io.Reader, stdout io.Writer, args []string) error {
	fs := flag.NewFlagSet("qdpm-benchdiff", flag.ContinueOnError)
	var (
		baselinePath = fs.String("baseline", "", "BENCH_*.json file to compare against (required)")
		nsTol        = fs.Float64("ns-tol", 0.25, "allowed fractional ns/op regression")
		allocTol     = fs.Float64("alloc-tol", 0.10, "allowed fractional allocs/op regression on non-zero baselines")
		strict       = fs.Bool("strict", false, "fail benchmarks missing from the baseline and baseline entries that did not run")
		module       = fs.String("module", "repro", "module path whose root package is unprefixed in baseline keys")
		inPath       = fs.String("in", "", "read bench output from this file instead of stdin")
		update       = fs.Bool("update", false, "rewrite the baseline's benchmarks map from this bench run instead of gating (other fields and per-entry notes are preserved; the file may not exist yet)")
		bestOf       = fs.Int("best-of", 1, "input carries up to N runs per benchmark (-count N); keep each benchmark's fastest run before gating or recording")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *baselinePath == "" {
		return fmt.Errorf("-baseline is required")
	}
	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		if !(*update && errors.Is(err, os.ErrNotExist)) {
			return err
		}
		raw = []byte("{}") // -update bootstraps a fresh baseline
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", *baselinePath, err)
	}
	if len(base.Benchmarks) == 0 && !*update {
		return fmt.Errorf("%s carries no benchmarks", *baselinePath)
	}
	in := stdin
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	results, err := parseBench(in, *module)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	if *bestOf < 1 {
		return fmt.Errorf("-best-of %d must be at least 1", *bestOf)
	}
	if results, err = bestOfReduce(results, *bestOf); err != nil {
		return err
	}
	if *update {
		return updateBaseline(*baselinePath, raw, results, stdout)
	}

	failed, missing := 0, 0
	byKey := make(map[string]*result, len(results))
	for i := range results {
		byKey[results[i].Key] = &results[i]
	}
	unran := 0
	if *strict {
		keys := make([]string, 0, len(base.Benchmarks))
		for k := range base.Benchmarks {
			if byKey[k] == nil {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		unran = len(keys)
		for _, k := range keys {
			fmt.Fprintf(stdout, "GONE %-48s recorded in baseline but produced no result\n", k)
		}
	}
	for _, res := range results {
		var bp *baselineEntry
		if b, ok := base.Benchmarks[res.Key]; ok {
			bp = &b
		}
		failures := compare(res, bp, *nsTol, *allocTol)
		switch {
		case bp == nil:
			missing++
			fmt.Fprintf(stdout, "?  %-50s %12.4g ns/op  (not in baseline)\n", res.Key, res.NsPerOp)
		case len(failures) > 0:
			failed++
			fmt.Fprintf(stdout, "FAIL %-48s %12.4g ns/op vs %.4g baseline\n", res.Key, res.NsPerOp, bp.NsPerOp)
			for _, f := range failures {
				fmt.Fprintf(stdout, "     %s\n", f)
			}
		default:
			delta := 0.0
			if bp.NsPerOp > 0 {
				delta = 100 * (res.NsPerOp - bp.NsPerOp) / bp.NsPerOp
			}
			fmt.Fprintf(stdout, "ok   %-48s %12.4g ns/op  (%+.1f%% vs baseline)\n", res.Key, res.NsPerOp, delta)
		}
	}
	ratioFailed, ratioSkipped, err := checkRatioGates(base.RatioGates, byKey, stdout)
	if err != nil {
		return fmt.Errorf("%s: %w", *baselinePath, err)
	}
	fmt.Fprintf(stdout, "%d benchmarks: %d compared, %d missing from baseline, %d failed\n",
		len(results), len(results)-missing, missing, failed)
	if failed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond tolerance", failed)
	}
	if ratioFailed > 0 {
		return fmt.Errorf("%d ratio gate(s) exceeded", ratioFailed)
	}
	if *strict && missing > 0 {
		return fmt.Errorf("%d benchmark(s) missing from baseline (strict mode)", missing)
	}
	if *strict && unran > 0 {
		return fmt.Errorf("%d baseline benchmark(s) produced no result (strict mode)", unran)
	}
	if *strict && ratioSkipped > 0 {
		return fmt.Errorf("%d ratio gate(s) could not be evaluated (strict mode)", ratioSkipped)
	}
	return nil
}
