package main

import (
	"context"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/trace"
)

func TestBuildWorkloadAllKinds(t *testing.T) {
	for _, name := range []string{"bernoulli", "poisson", "onoff", "pareto"} {
		arr, err := buildWorkload(name, 0.2)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		s := rng.New(1)
		for i := 0; i < 100; i++ {
			if c := arr.Next(s); c < 0 {
				t.Errorf("%s emitted negative count", name)
			}
		}
	}
	if _, err := buildWorkload("nope", 0.2); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := buildWorkload("pareto", 0); err == nil {
		t.Error("pareto with rate 0 accepted")
	}
	// On/off clamps the burst rate at 1.
	if _, err := buildWorkload("onoff", 0.5); err != nil {
		t.Errorf("onoff at high rate: %v", err)
	}
}

func TestBuildCTSourceAllKinds(t *testing.T) {
	for _, name := range []string{"bernoulli", "poisson", "exp", "pareto", "weibull", "erlang", "hyperexp", "uniform"} {
		factory, desc, err := buildCTSource(name, "", 0.5)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if desc == "" {
			t.Errorf("%s: empty source description", name)
		}
		src, err := factory()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		s := rng.New(1)
		prev := 0.0
		for i := 0; i < 50; i++ {
			tt := src.Next(s)
			if tt < prev {
				t.Errorf("%s: arrival times not monotone (%v after %v)", name, tt, prev)
				break
			}
			prev = tt
		}
	}
	if _, _, err := buildCTSource("nope", "", 1); err == nil {
		t.Error("unknown ct workload accepted")
	}
	if _, _, err := buildCTSource("exp", "/nonexistent/trace", 1); err == nil {
		t.Error("missing trace file accepted")
	}
}

func TestBuildCTSourceTraceReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.txt")
	tr := &trace.Trace{Times: []float64{0.5, 1.5, 4}}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteText(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	factory, _, err := buildCTSource("exp", path, 1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(1)
	for _, want := range tr.Times {
		if got := src.Next(s); got != want {
			t.Fatalf("replayed %v, want %v", got, want)
		}
	}
	if got := src.Next(s); !math.IsInf(got, 1) {
		t.Fatalf("exhausted trace returned %v, want +Inf", got)
	}
}

// TestReplicasBelowOneRejected runs the command with -replicas 0, -3 and
// one above maxReplicas in both modes and expects a non-zero exit naming
// the bad count before any simulation runs. run reads the global flag set, so the test binary
// re-executes itself as the command: with QDPM_SIM_TEST_ARGS set, the
// test calls main on those arguments instead.
func TestReplicasBelowOneRejected(t *testing.T) {
	if args, ok := os.LookupEnv("QDPM_SIM_TEST_ARGS"); ok {
		os.Args = append([]string{"qdpm-sim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, mode := range []string{"slot", "ct"} {
		for _, tc := range []struct{ n, want string }{
			{"0", "replicas 0 must be >= 1"},
			{"-3", "replicas -3 must be >= 1"},
			{"65537", "replicas 65537 above 65536"},
		} {
			cmd := exec.Command(os.Args[0], "-test.run=^TestReplicasBelowOneRejected$")
			cmd.Env = append(os.Environ(), "QDPM_SIM_TEST_ARGS=-mode "+mode+" -replicas "+tc.n+" -slots 1")
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("-mode %s -replicas %s: want a non-zero exit, got %v\n%s", mode, tc.n, err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("-mode %s -replicas %s: output %q lacks %q", mode, tc.n, out, tc.want)
			}
		}
	}
}

// TestNonFiniteHorizonRejected runs -mode ct with an infinite horizon,
// alone and with -replicas, and expects exit 1 naming the horizon rather
// than a run that never ends. It re-executes the test binary as the
// command, like TestReplicasBelowOneRejected, under a timeout so a
// regression fails instead of hanging the suite.
func TestNonFiniteHorizonRejected(t *testing.T) {
	if args, ok := os.LookupEnv("QDPM_SIM_TEST_ARGS"); ok {
		os.Args = append([]string{"qdpm-sim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{"-mode ct -horizon inf", "-mode ct -horizon inf -replicas 2"} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestNonFiniteHorizonRejected$")
		cmd.Env = append(os.Environ(), "QDPM_SIM_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		if timedOut {
			t.Fatalf("%s: still running after 30 s", args)
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%s: want exit 1, got %v\n%s", args, err, out)
		}
		if want := "horizon +Inf, want positive and finite"; !strings.Contains(string(out), want) {
			t.Errorf("%s: output %q lacks %q", args, out, want)
		}
	}
}

// TestQueueCapBoundedPerPolicy runs the command with a -qcap above the
// chosen policy's bound, in both modes, and expects a non-zero exit
// naming the cap before anything is allocated by it; a cap at the bound
// still runs. It re-executes the test binary as the command, like
// TestReplicasBelowOneRejected.
func TestQueueCapBoundedPerPolicy(t *testing.T) {
	if args, ok := os.LookupEnv("QDPM_SIM_TEST_ARGS"); ok {
		os.Args = append([]string{"qdpm-sim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	exec1 := func(args string) ([]byte, error) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestQueueCapBoundedPerPolicy$")
		cmd.Env = append(os.Environ(), "QDPM_SIM_TEST_ARGS="+args)
		return cmd.CombinedOutput()
	}
	for _, mode := range []string{"slot", "ct"} {
		for _, c := range []struct{ policy, qcap, bound string }{
			{"always-on", "1000000000", "65536"},
			{"timeout", "65537", "65536"},
			{"q-dpm", "1000000000", "4096"},
			{"q-dpm-sarsa", "4097", "4096"},
			{"optimal", "257", "256"},
			{"adaptive-lp", "100000", "256"},
		} {
			args := "-mode " + mode + " -policy " + c.policy + " -qcap " + c.qcap + " -slots 100"
			out, err := exec1(args)
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("%s: want a non-zero exit, got %v\n%s", args, err, out)
			}
			want := "queue capacity " + c.qcap + " above " + c.bound + " for policy " + c.policy
			if !strings.Contains(string(out), want) {
				t.Errorf("%s: output %q lacks %q", args, out, want)
			}
		}
	}
	for _, args := range []string{
		"-policy always-on -qcap 65536 -slots 100",
		"-policy q-dpm -qcap 4096 -slots 100",
		"-policy optimal -qcap 256 -slots 100",
	} {
		if out, err := exec1(args); err != nil {
			t.Errorf("%s: cap at the bound rejected: %v\n%s", args, err, out)
		}
	}
}

// TestTimeoutAboveIdleCapRejected runs -policy timeout with a -timeout
// above the idle-slot cap (slotsim.IdleSaturation), in both modes, and
// expects exit 1 naming the cap: such a timeout never fires, so the run
// would silently never sleep deep. It re-executes the test binary as the
// command, like TestReplicasBelowOneRejected.
func TestTimeoutAboveIdleCapRejected(t *testing.T) {
	if args, ok := os.LookupEnv("QDPM_SIM_TEST_ARGS"); ok {
		os.Args = append([]string{"qdpm-sim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, mode := range []string{"slot", "ct"} {
		args := "-mode " + mode + " -policy timeout -timeout 2000 -slots 100"
		cmd := exec.Command(os.Args[0], "-test.run=^TestTimeoutAboveIdleCapRejected$")
		cmd.Env = append(os.Environ(), "QDPM_SIM_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%s: want exit 1, got %v\n%s", args, err, out)
		}
		if want := "timeout 2000 slots above the idle-slot cap 1024"; !strings.Contains(string(out), want) {
			t.Errorf("%s: output %q lacks %q", args, out, want)
		}
	}
}
