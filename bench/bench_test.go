package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestMain hands the set-up probes that measureEndToEnd re-executes to
// run: under go test the running binary is the test binary.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "--setup-only") {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

const testSeed = 7

// TestDigestsRepeatAcrossRunsAndWorkers runs every workload at test
// scale three times — on one worker, then twice on two — and requires
// balanced books and one digest.
func TestDigestsRepeatAcrossRunsAndWorkers(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			tk, err := newTask(name, testSeed, testScale)
			if err != nil {
				t.Fatal(err)
			}
			var digests []string
			for _, w := range []int{1, 2, 2} {
				r, err := runRound(context.Background(), tk, &engine.Pool{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if r.books != nil || r.failedJobs != 0 || r.events == 0 {
					t.Fatalf("%d workers: books %v, %d failed jobs, %d events", w, r.books, r.failedJobs, r.events)
				}
				digests = append(digests, r.digest)
			}
			if digests[0] != digests[1] || digests[1] != digests[2] {
				t.Fatalf("digests differ: 1 worker %s, 2 workers %s then %s", digests[0], digests[1], digests[2])
			}
		})
	}
}

// TestEveryDeclaredMetricIsPrinted runs both measurement modes of every
// workload at test scale and requires exactly the metrics BENCHMARK.json
// declares, with their units and finite values, all checks passing —
// including, in the traced mode, wrapper transparency, the ladder's
// fidelity to fleet.Run, and exact counts repeating across rounds.
func TestEveryDeclaredMetricIsPrinted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, driver %v", names, workloadNames)
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	modes := []struct {
		trace   bool
		units   map[string]string
		measure func(context.Context, string, uint64, int, time.Duration, io.Writer) (result, error)
	}{
		{false, units(decl.EndToEnd), measureEndToEnd},
		{true, units(decl.PerLayer), measureLayers},
	}
	for _, name := range workloadNames {
		for _, m := range modes {
			t.Run(fmt.Sprintf("%s/trace=%v", name, m.trace), func(t *testing.T) {
				// A zero budget still runs one round. The traced mode gets
				// room for several, so exact counts are compared across
				// rounds.
				budget := time.Duration(0)
				if m.trace {
					budget = 2 * time.Second
				}
				res, err := m.measure(context.Background(), name, testSeed, testScale, budget, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct %v, %d of %d failed", m.trace, res.Correct, res.Failed, res.Attempted)
				}
				got := map[string]string{}
				for k, v := range res.Metrics {
					got[k] = v.Unit
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("trace=%v: %s = %v", m.trace, k, v.Value)
					}
				}
				if len(got) != len(m.units) {
					t.Errorf("trace=%v: printed %d metrics, declared %d", m.trace, len(got), len(m.units))
				}
				for k, u := range m.units {
					if got[k] != u {
						t.Errorf("trace=%v: %s printed with unit %q, declared %q", m.trace, k, got[k], u)
					}
				}
			})
		}
	}
}

// TestAtReferenceSpeedBracketsEachRound pins the scaling: round i is
// divided by the mean of the reference bursts before and after it.
func TestAtReferenceSpeedBracketsEachRound(t *testing.T) {
	got := atReferenceSpeed([]float64{2, 6, 9}, []float64{1, 1, 2, 4})
	if want := 3.0 * refNominalNs; got != want { // ratios 2, 4, 3
		t.Errorf("atReferenceSpeed = %v, want %v", got, want)
	}
}

// TestQuartilesMatchPythonExclusive pins quartiles to the values Python's
// statistics.quantiles(data, n=4) gives.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, med, q3 := quartiles(c.in)
		if [3]float64{q1, med, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, med, q3, c.want)
		}
	}
}
