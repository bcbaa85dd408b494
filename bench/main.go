// Command bench is the repository benchmark. It runs one workload for a
// fixed wall-clock budget and prints, as the last line of standard output,
// one JSON object: whether every output checked correct, how many
// operations it attempted and how many failed, and every metric with its
// unit. Build and run it from the repository root with
//
//	bash bench/run.sh --workload fleet_steady --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the separate
// traced pass and prints the per-layer metrics. --repeat N runs the
// benchmark N times at seeds seed..seed+N-1 and prints each metric's
// median, quartiles, and (q3-q1)/median. README.md lists the workloads,
// the metrics, and which layer each per-layer metric belongs to.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"syscall"
	"time"

	"repro/internal/engine"
)

// metricDef declares one printed metric. exact marks a per-layer count
// that is a pure function of the seed, so every traced round must
// reproduce it bit for bit.
type metricDef struct {
	name, unit string
	exact      bool
}

// endToEnd are the --trace 0 metrics, all measured with tracing off.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "ns_per_event", unit: "ns"},
	{name: "cpu_ns_per_event", unit: "ns"},
	{name: "alloc_mb", unit: "MB"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object every run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupProbes is the fewest fresh processes that time the set-up.
const setupProbes = 9

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 30, "wall-clock budget of the measured rounds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	repeat := fs.Int("repeat", 0, "run the benchmark this many times at successive seeds and print each metric's spread")
	setupOnly := fs.Bool("setup-only", false, "build the workload and run its warm-up, then exit (the set-up probe)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *name) || (*trace != 0 && *trace != 1) || !(*seconds > 0) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "usage: bench --workload %v [--seed N] [--seconds S] [--trace 0|1] [--repeat N]\n", workloadNames)
		return 2
	}
	runtime.GOMAXPROCS(workers)
	ctx := context.Background()
	if *setupOnly {
		if _, err := warmUp(ctx, *name, *seed, 1); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *repeat > 0 {
		return repeatRuns(*repeat, *name, *seed, *seconds, *trace, stdout, stderr)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = measureLayers(ctx, *name, *seed, 1, budget, stderr)
	} else {
		res, err = measureEndToEnd(ctx, *name, *seed, 1, budget, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// warmUp builds workload name from seed with its sizes divided by div
// (1 for the benchmark proper) and runs it once at test scale: everything
// a run does before its first measured round.
func warmUp(ctx context.Context, name string, seed uint64, div int) (*task, error) {
	t, err := newTask(name, seed, div)
	if err != nil {
		return nil, err
	}
	small, err := newTask(name, seed, testScale)
	if err != nil {
		return nil, err
	}
	if _, err := runRound(ctx, small, &engine.Pool{Workers: workers}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return t, nil
}

// setupProbe is the wall time of one fresh process that builds the
// workload and finishes its warm-up — process start, package
// initialization, input construction, and first-call costs together,
// the work a change could move out of the measured rounds.
func setupProbe(exe, name string, seed uint64, stderr io.Writer) (float64, error) {
	cmd := exec.Command(exe, "--setup-only", "--workload", name, "--seed", strconv.FormatUint(seed, 10))
	cmd.Stdout, cmd.Stderr = stderr, stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}

// tally counts the run's operations: engine jobs and output checks.
type tally struct {
	attempted, failed int
	stderr            io.Writer
}

// check records one correctness check, reporting a failure on stderr.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(t.stderr, "check failed: "+format+"\n", args...)
	}
}

// round records one pass: its jobs, its books, and its digest, which
// must equal ref when a reference exists and otherwise the first
// round's (*first, set by the first call).
func (t *tally) round(r round, ref string, first *string) {
	t.attempted += r.jobs
	t.failed += r.failedJobs
	t.check(r.books == nil, "books: %v", r.books)
	switch {
	case ref != "":
		t.check(r.digest == ref, "digest %s, reference %s", r.digest, ref)
	case *first != "":
		t.check(r.digest == *first, "digest %s differs from the first round's %s", r.digest, *first)
	}
	if *first == "" {
		*first = r.digest
	}
}

// measureEndToEnd times rounds of identical work until the budget is
// spent (at least one), with a burst of the reference kernel before each
// round and after the last. Each time metric is the median over rounds
// of the round's time per event divided by the mean of the two bursts
// around it, scaled by refNominalNs: the round's cost at the reference
// speed, steady across the host's slow and fast phases (reference.go).
// alloc_mb is the median round's. A set-up probe runs before each round,
// outside its timing, so set-up time is sampled across the same window
// of host load as the rounds; setup_s is the median of at least
// setupProbes probes.
func measureEndToEnd(ctx context.Context, name string, seed uint64, div int, budget time.Duration, stderr io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	t, err := warmUp(ctx, name, seed, div)
	if err != nil {
		return result{}, err
	}
	tl := tally{stderr: stderr}
	var first string
	var refSum uint64
	var setups, refWall, refCPU, wallNs, cpuNs, allocMB []float64
	probe := func() error {
		s, err := setupProbe(exe, name, seed, stderr)
		setups = append(setups, s)
		return err
	}
	ref := newReference()
	calibrate := func() {
		runtime.GC()
		w, c, sum := ref.burst()
		if refSum == 0 {
			refSum = sum
		}
		tl.check(sum == refSum, "reference kernel checksum %x, first burst %x", sum, refSum)
		refWall, refCPU = append(refWall, w), append(refCPU, c)
	}
	pool := &engine.Pool{Workers: workers}
	start := time.Now()
	for {
		if err := probe(); err != nil {
			return result{}, err
		}
		calibrate()
		rt0, cpu0, t0 := readRuntime(), cpuTime(), time.Now()
		r, err := runRound(ctx, t, pool)
		wall, cpu, rt1 := time.Since(t0), cpuTime()-cpu0, readRuntime()
		if err != nil {
			return result{}, err
		}
		tl.round(r, t.ref, &first)
		ev := float64(r.events)
		wallNs = append(wallNs, ratio(float64(wall), ev))
		cpuNs = append(cpuNs, ratio(float64(cpu), ev))
		allocMB = append(allocMB, float64(rt1.allocs-rt0.allocs)/1e6)
		fmt.Fprintf(stderr, "round %d: %d events in %.3f s, digest %s, reference %.2f ns/event\n",
			len(wallNs), r.events, wall.Seconds(), r.digest, refWall[len(refWall)-1])
		if time.Since(start)+wall > budget {
			break
		}
	}
	calibrate()
	for len(setups) < setupProbes {
		if err := probe(); err != nil {
			return result{}, err
		}
	}
	fmt.Fprintf(stderr, "%d rounds: median %.3f ns/event wall, %.3f CPU; reference median %.3f ns/event\n",
		len(wallNs), median(wallNs), median(cpuNs), median(refWall))
	return result{
		Correct:   tl.failed == 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"ns_per_event":     {atReferenceSpeed(wallNs, refWall), "ns"},
			"cpu_ns_per_event": {atReferenceSpeed(cpuNs, refCPU), "ns"},
			"alloc_mb":         {median(allocMB), "MB"},
		},
	}, nil
}

// atReferenceSpeed is the median over rounds of ns[i] divided by the
// mean of the reference bursts before and after round i (refs has one
// more entry than ns), scaled to refNominalNs.
func atReferenceSpeed(ns, refs []float64) float64 {
	r := make([]float64, len(ns))
	for i, v := range ns {
		r[i] = ratio(v, (refs[i]+refs[i+1])/2)
	}
	return median(r) * refNominalNs
}

// measureLayers repeats traced rounds until the budget is spent (at least
// one) and reports each per-layer metric as the median over rounds;
// counts marked exact must repeat in every round.
func measureLayers(ctx context.Context, name string, seed uint64, div int, budget time.Duration, stderr io.Writer) (result, error) {
	t, err := warmUp(ctx, name, seed, div)
	if err != nil {
		return result{}, err
	}
	tl := tally{stderr: stderr}
	var first string
	samples := map[string][]float64{}
	start := time.Now()
	for n := 1; ; n++ {
		t0 := time.Now()
		vals, err := traceRound(ctx, t, seed, &tl, &first)
		if err != nil {
			return result{}, err
		}
		for _, d := range perLayer {
			v, ok := vals[d.name]
			if !ok {
				return result{}, fmt.Errorf("traced round computed no %s", d.name)
			}
			if d.exact && len(samples[d.name]) > 0 {
				tl.check(v == samples[d.name][0], "%s = %v in round %d, %v in round 1", d.name, v, n, samples[d.name][0])
			}
			samples[d.name] = append(samples[d.name], v)
		}
		took := time.Since(t0)
		fmt.Fprintf(stderr, "traced round %d: %.3f s\n", n, took.Seconds())
		if time.Since(start)+took > budget {
			break
		}
	}
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = metric{median(samples[d.name]), d.unit}
	}
	return result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: out}, nil
}

// repeatRuns runs the benchmark n times in fresh processes at seeds
// seed, seed+1, ... and prints, per metric, the median, the quartiles,
// and the spread (q3-q1)/median — the numbers a bound must cover.
func repeatRuns(n int, name string, seed uint64, seconds float64, trace int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed+uint64(i), 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "bench: run %d: %v\n", i+1, err)
			return 1
		}
		r, err := lastResult(out)
		if err != nil {
			fmt.Fprintf(stderr, "bench: run %d: %v\n", i+1, err)
			return 1
		}
		for k, m := range r.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	type spread struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"spread"`
		Unit   string  `json:"unit"`
	}
	summary := map[string]spread{}
	fmt.Fprintf(stdout, "%-32s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
	for _, k := range slices.Sorted(maps.Keys(values)) {
		q1, med, q3 := quartiles(values[k])
		s := spread{Median: med, Q1: q1, Q3: q3, Spread: ratio(q3-q1, math.Abs(med)), Unit: units[k]}
		summary[k] = s
		fmt.Fprintf(stdout, "%-32s %14.6g %14.6g %14.6g %8.4f %s\n", k, s.Median, s.Q1, s.Q3, s.Spread, s.Unit)
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// lastResult parses the result object on the last line of out.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var r result
	if err := json.Unmarshal(last, &r); err != nil {
		return r, fmt.Errorf("parsing result line %q: %w", last, err)
	}
	if !r.Correct || r.Failed > 0 {
		return r, errors.New("run reported incorrect output")
	}
	return r, nil
}

// median returns the middle value of xs (the mean of the middle two for
// an even count); xs is not modified.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median, and third quartile of xs
// by the exclusive method (Python's statistics.quantiles default), which
// the median matches for every count.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// cpuTime is the process's user plus system CPU time, all threads.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes is the process's resident-set high-water mark.
func peakRSSBytes() int64 { return rusage().Maxrss << 10 } // kilobytes on Linux

// runtimeStats are the Go runtime counters the benchmark reads.
type runtimeStats struct {
	allocs, cycles  uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{
		allocs:   s[0].Value.Uint64(),
		cycles:   s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}
