package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunDeterministicAcrossPools: the CLI's stdout is bit-identical
// between serial and pooled runs — the property CI diffs.
func TestRunDeterministicAcrossPools(t *testing.T) {
	base := []string{"-devices", "60", "-horizon", "40", "-seed", "5"}
	var serial, pooled bytes.Buffer
	if err := run(context.Background(), &serial, append(base, "-parallel", "1")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &pooled, append(base, "-parallel", "4")); err != nil {
		t.Fatal(err)
	}
	if serial.String() != pooled.String() {
		t.Fatalf("output differs between -parallel 1 and 4:\n%s\nvs\n%s", serial.String(), pooled.String())
	}
	if !strings.Contains(serial.String(), "Table Fleet") {
		t.Fatalf("missing table header:\n%s", serial.String())
	}
}

// TestRunJSONReport: the -json report parses and its totals are
// consistent with the flags.
func TestRunJSONReport(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-devices", "30", "-horizon", "30", "-replicas", "2", "-json"}
	if err := run(context.Background(), &out, args); err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if rep.Devices != 60 || rep.Replicas != 2 || rep.Mode != "ct" {
		t.Fatalf("report totals wrong: %+v", rep)
	}
	if len(rep.Classes) != 4 || len(rep.Policies) != 3 {
		t.Fatalf("report breakdowns wrong: %d classes, %d policies", len(rep.Classes), len(rep.Policies))
	}
	if rep.WaitP99Sec < rep.WaitP50Sec {
		t.Fatalf("wait percentiles disordered: %+v", rep)
	}
}

// TestRunCustomMix: -mix overrides the canonical classes.
func TestRunCustomMix(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-devices", "10", "-horizon", "20",
		"-mix", "hdd:exp:0.08:timeout=4,wlan:exp:1:greedy-off", "-json"}
	if err := run(context.Background(), &out, args); err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Classes) != 2 {
		t.Fatalf("custom mix produced %d classes, want 2", len(rep.Classes))
	}
	if rep.Classes[0].Policy != "timeout=4" || rep.Classes[1].Policy != "greedy-off" {
		t.Fatalf("custom mix policies wrong: %+v", rep.Classes)
	}
}

// TestRunRejectsBadFlags: malformed inputs error out instead of
// producing a half-configured fleet.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-mix", "hdd:exp"},
		{"-devices", "1", "-horizon", "1", "-mix", "synthetic3:erlang:1e308:always-on"},
		{"-mode", "quantum"},
		{"-devices", "0"},
		{"-replicas", "0"},
		{"-devices", "1", "-horizon", "1", "-replicas", "65537"},
		{"-horizon", "-1"},
		{"-qcap", "1000000000"},
		{"-devices", "4", "-horizon", "10", "-mix", "synthetic3:exp:0.1:timeout=8.5"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), &out, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunQuantileModes: sketch is the default and reports quantiles
// within the documented bound of an exact-mode run of the same fleet;
// exact mode labels its report; bad modes are rejected.
func TestRunQuantileModes(t *testing.T) {
	base := []string{"-devices", "400", "-horizon", "30", "-seed", "9", "-json"}
	var sk, ex bytes.Buffer
	if err := run(context.Background(), &sk, base); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &ex, append(base, "-quantiles", "exact")); err != nil {
		t.Fatal(err)
	}
	var rsk, rex jsonReport
	if err := json.Unmarshal(sk.Bytes(), &rsk); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ex.Bytes(), &rex); err != nil {
		t.Fatal(err)
	}
	if rsk.Quantiles != "sketch" || rex.Quantiles != "exact" {
		t.Fatalf("quantile labels wrong: %q / %q", rsk.Quantiles, rex.Quantiles)
	}
	// Same fleet, same seeds: everything but the percentile estimator is
	// identical, and the sketch must sit within its 1% bound.
	if rsk.EnergyJ != rex.EnergyJ || rsk.Arrived != rex.Arrived {
		t.Fatalf("quantile mode changed simulation results: %+v vs %+v", rsk, rex)
	}
	for _, pair := range [][2]float64{
		{rsk.WaitP50Sec, rex.WaitP50Sec},
		{rsk.WaitP90Sec, rex.WaitP90Sec},
		{rsk.WaitP99Sec, rex.WaitP99Sec},
	} {
		// The exact side interpolates between the order statistics the
		// sketch brackets, so allow the bound plus interpolation slack.
		if d := pair[0] - pair[1]; d > 0.05*pair[1]+1e-9 || d < -0.05*pair[1]-1e-9 {
			t.Fatalf("sketch percentile %v too far from exact %v", pair[0], pair[1])
		}
	}
	var out bytes.Buffer
	if err := run(context.Background(), &out, []string{"-devices", "10", "-quantiles", "bogus"}); err == nil {
		t.Fatal("bogus -quantiles accepted")
	}
}

// TestRunProgressFlag: -progress must not perturb stdout (the CI-diffed
// surface) and the run still succeeds.
// TestRunProfileFlags: -cpuprofile and -memprofile write non-empty
// pprof files on exit without touching stdout (the profiled run's
// report is bit-identical to an unprofiled one).
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb")
	mem := filepath.Join(dir, "mem.pb")
	base := []string{"-devices", "50", "-horizon", "20", "-seed", "3"}
	var plain, profiled bytes.Buffer
	if err := run(context.Background(), &plain, base); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &profiled,
		append(base, "-cpuprofile", cpu, "-memprofile", mem)); err != nil {
		t.Fatal(err)
	}
	if plain.String() != profiled.String() {
		t.Fatal("profiling changed stdout")
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	// An unwritable profile path is a startup error, reported before any
	// simulation work.
	if err := run(context.Background(), &plain,
		append(base, "-cpuprofile", filepath.Join(dir, "no/such/dir/cpu.pb"))); err == nil {
		t.Fatal("unwritable -cpuprofile path accepted")
	}
}

func TestRunProgressFlag(t *testing.T) {
	base := []string{"-devices", "50", "-horizon", "20", "-seed", "3"}
	var plain, progress bytes.Buffer
	if err := run(context.Background(), &plain, base); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &progress, append(base, "-progress")); err != nil {
		t.Fatal(err)
	}
	if plain.String() != progress.String() {
		t.Fatal("-progress changed stdout")
	}
}
