// Command qdpm-bench regenerates every figure and table of the Q-DPM
// reproduction (see DESIGN.md §4 for the experiment index):
//
//	qdpm-bench -exp fig1     # Fig. 1 — convergence on optimal policy
//	qdpm-bench -exp fig2     # Fig. 2 — rapid response
//	qdpm-bench -exp r1       # Table R1 — runtime/memory
//	qdpm-bench -exp r2       # Table R2 — stationary comparison
//	qdpm-bench -exp r3       # Table R3 — nonstationary tracking
//	qdpm-bench -exp r4       # Table R4 — small-variation tolerance
//	qdpm-bench -exp ablate   # design-choice ablations
//	qdpm-bench -exp ct       # Table CT — continuous-time renewal workloads
//	qdpm-bench -exp fleet    # Table Fleet — heterogeneous multi-device fleet
//	qdpm-bench -exp coupled  # Table Coupled Fleet — policies under contention
//	qdpm-bench -exp faulted  # Table Faulted Fleet — policies under fault severity
//	qdpm-bench -exp analytic # Table A — sim vs closed-form oracles (docs/ANALYTIC.md)
//	qdpm-bench -exp all      # everything
//
// -quick shrinks run lengths ~5x for a fast smoke pass. -parallel sets
// the replica worker-pool size (default: GOMAXPROCS; 1 forces the serial
// path). -seed replaces each experiment's canonical seed list with seeds
// derived from the given base, keeping the replica count. Results are
// bit-identical across -parallel values: the pool only changes wall-clock
// time, never output. Table R1 is a wall-clock microbenchmark and always
// runs serially. Output is plain text: an ASCII chart plus the numeric
// series for figures, aligned tables otherwise.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/fleet"
)

func main() {
	// Ctrl-C cancels the pool; replicas poll the context between slot
	// chunks, so the exit is prompt even mid-figure.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "qdpm-bench: %v\n", err)
		stop()
		os.Exit(1)
	}
}

// run parses args and renders the selected experiments to stdout. Only
// results go to stdout, so it is bit-identical across -parallel values;
// section timings and progress go to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("qdpm-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment: fig1|fig2|r1|r2|r3|r4|ablate|ct|fleet|coupled|faulted|analytic|all")
		quick    = fs.Bool("quick", false, "shrink run lengths ~5x")
		parallel = fs.Int("parallel", 0, "replica worker-pool size (0 = GOMAXPROCS, 1 = serial)")
		seed     = fs.Uint64("seed", 0, "derive replica seeds from this base (0 = canonical seeds)")
		progress = fs.Bool("progress", false, "print replica completion progress to stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	par := experiment.Parallel{Workers: *parallel}
	if *progress {
		par.Progress = func(done, total int) {
			fmt.Fprintf(stderr, "\r%d/%d replicas", done, total)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}

	// reseed replaces canonical seeds with ones derived from -seed; the
	// offset keeps experiments on distinct streams under one base.
	reseed := func(canonical []uint64, offset uint64) []uint64 {
		if *seed == 0 {
			return canonical
		}
		return engine.DeriveSeeds(*seed+offset, len(canonical))
	}

	experiments := []struct {
		name string
		run  func() error
	}{
		{"fig1", func() error {
			cfg := experiment.DefaultFig1()
			if *quick {
				cfg.Slots = 60000
				cfg.Seeds = cfg.Seeds[:2]
			}
			cfg.Seeds = reseed(cfg.Seeds, 1)
			fig, err := experiment.Fig1Ctx(ctx, cfg, par)
			if err != nil {
				return err
			}
			return fig.Render(stdout)
		}},
		{"fig2", func() error {
			cfg := experiment.DefaultFig2()
			if *quick {
				cfg.SegmentSlots = 12000
				cfg.Seeds = cfg.Seeds[:1]
			}
			cfg.Seeds = reseed(cfg.Seeds, 2)
			fig, err := experiment.Fig2Ctx(ctx, cfg, par)
			if err != nil {
				return err
			}
			return fig.Render(stdout)
		}},
		{"r1", func() error {
			caps := []int{3, 8, 20, 40}
			if *quick {
				caps = []int{3, 8}
			}
			tab, _, err := experiment.TableR1Ctx(ctx, caps)
			if err != nil {
				return err
			}
			return renderTable(stdout, tab)
		}},
		{"r2", func() error {
			slots := int64(200000)
			seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
			if *quick {
				slots = 40000
				seeds = seeds[:3]
			}
			seeds = reseed(seeds, 3)
			tab, err := experiment.TableR2Ctx(ctx, []float64{0.02, 0.08, 0.3}, slots, seeds, par)
			if err != nil {
				return err
			}
			return renderTable(stdout, tab)
		}},
		{"r3", func() error {
			cfg := experiment.DefaultFig2()
			if *quick {
				cfg.SegmentSlots = 12000
			}
			cfg.Seeds = reseed(cfg.Seeds, 4)
			tab, err := experiment.TableR3Ctx(ctx, cfg, par)
			if err != nil {
				return err
			}
			return renderTable(stdout, tab)
		}},
		{"r4", func() error {
			slots := int64(150000)
			seeds := []uint64{11, 12, 13, 14}
			if *quick {
				slots = 30000
				seeds = seeds[:2]
			}
			seeds = reseed(seeds, 5)
			tab, err := experiment.TableR4Ctx(ctx, 0.15, 0.2, 5000, slots, seeds, par)
			if err != nil {
				return err
			}
			return renderTable(stdout, tab)
		}},
		{"ablate", func() error {
			slots := int64(150000)
			seeds := []uint64{21, 22, 23}
			specs := experiment.DefaultAblations()
			if *quick {
				slots = 40000
				seeds = seeds[:1]
			}
			seeds = reseed(seeds, 6)
			tab, err := experiment.TableAblationsCtx(ctx, specs, 0.1, slots, seeds, par)
			if err != nil {
				return err
			}
			return renderTable(stdout, tab)
		}},
		{"ct", func() error {
			horizon := 100000.0 // seconds ≈ 200k governor ticks
			seeds := []uint64{31, 32, 33, 34}
			if *quick {
				horizon = 20000
				seeds = seeds[:2]
			}
			seeds = reseed(seeds, 7)
			tab, err := experiment.TableCTCtx(ctx, 0.2, horizon, seeds, par)
			if err != nil {
				return err
			}
			return renderTable(stdout, tab)
		}},
		{"fleet", func() error {
			devices, horizon := 2000, 400.0
			seeds := []uint64{41, 42}
			if *quick {
				devices, horizon = 400, 120
				seeds = seeds[:1]
			}
			seeds = reseed(seeds, 8)
			tab, err := experiment.TableFleetCtx(ctx, devices, horizon, seeds, par)
			if err != nil {
				return err
			}
			return renderTable(stdout, tab)
		}},
		{"coupled", func() error {
			devices, horizon := 512, 240.0
			sizes := []int{1, 8, 32}
			seeds := []uint64{41, 42}
			if *quick {
				devices, horizon = 128, 120
				sizes = []int{1, 8}
				seeds = seeds[:1]
			}
			seeds = reseed(seeds, 9)
			tab, err := experiment.TableCoupledFleetCtx(ctx, devices, horizon, fleet.CoupleChannel, sizes, seeds, par)
			if err != nil {
				return err
			}
			return renderTable(stdout, tab)
		}},
		{"faulted", func() error {
			devices, horizon := 600, 240.0
			seeds := []uint64{41, 42}
			if *quick {
				devices, horizon = 150, 120
				seeds = seeds[:1]
			}
			seeds = reseed(seeds, 10)
			tab, err := experiment.TableFaultedFleetCtx(ctx, devices, horizon, experiment.DefaultFaultLevels(), seeds, par)
			if err != nil {
				return err
			}
			return renderTable(stdout, tab)
		}},
		{"analytic", func() error {
			seeds := []uint64{101, 102, 103, 104, 105, 106, 107, 108}
			if *quick {
				seeds = seeds[:4]
			}
			seeds = reseed(seeds, 11)
			tab, err := experiment.TableAnalyticCtx(ctx, seeds, par)
			if err != nil {
				return err
			}
			return renderTable(stdout, tab)
		}},
	}

	matched := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		matched = true
		fmt.Fprintf(stderr, "\n##### %s (started %s)\n\n", e.name, time.Now().Format(time.TimeOnly))
		start := time.Now()
		if err := e.run(); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintf(stderr, "\n[%s done in %v]\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !matched {
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}

// renderTable writes an experiment table and its note line.
func renderTable(w io.Writer, tab *experiment.Table) error {
	experiment.RenderTable(w, tab.Title, tab.Headers, tab.Rows)
	_, err := fmt.Fprintf(w, "# %s\n", tab.Note)
	return err
}
