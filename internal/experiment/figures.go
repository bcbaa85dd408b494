package experiment

import (
	"context"
	"fmt"

	"repro/internal/stats"
	"repro/internal/workload"
)

// Figure is renderable figure data: named series over a shared x axis,
// optional vertical markers (switch points) and horizontal references
// (optimal gain).
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*stats.Series
	// VLines marks x positions (Fig. 2 switching points).
	VLines []float64
	// HLines maps a label to a y reference (Fig. 1 optimal line).
	HLines map[string]float64
	// Note carries provenance (parameters, seeds).
	Note string
}

// Fig1Config parameterizes the convergence experiment.
type Fig1Config struct {
	// ArrivalP is the stationary per-slot arrival probability.
	ArrivalP float64
	// Slots is the run length.
	Slots int64
	// Window and Stride control the series sampling.
	Window, Stride int
	// Seeds to average over.
	Seeds []uint64
}

// DefaultFig1 returns the canonical Fig. 1 parameters.
func DefaultFig1() Fig1Config {
	return Fig1Config{
		ArrivalP: 0.1,
		Slots:    200000,
		Window:   5000,
		Stride:   2000,
		Seeds:    []uint64{101, 102, 103, 104},
	}
}

// Fig1Ctx reproduces "Convergence on Optimal Policy": windowed average
// cost of Q-DPM against the analytically optimal policy (and a timeout
// and greedy baseline) under stationary input. The Q-DPM curve must
// approach the optimal horizontal line. The policy × seed replica grid
// fans out across the worker pool, and each policy's seed series are
// averaged in seed order so the figure is independent of worker count.
func Fig1Ctx(ctx context.Context, cfg Fig1Config, par Parallel) (*Figure, error) {
	dev, err := CanonDevice()
	if err != nil {
		return nil, err
	}
	sc := Scenario{
		Name:          "fig1",
		Device:        dev,
		QueueCap:      CanonQueueCap,
		LatencyWeight: CanonLatencyWeight,
		Slots:         cfg.Slots,
		Workload: func() workload.Arrivals {
			b, err := workload.NewBernoulli(cfg.ArrivalP)
			if err != nil {
				panic(err)
			}
			return b
		},
	}

	optFactory, gain, err := OptimalFactory(dev, cfg.ArrivalP)
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		Title:  "Fig. 1 — Convergence on Optimal Policy",
		XLabel: "slot",
		YLabel: "windowed avg cost (J/slot)",
		HLines: map[string]float64{"optimal gain": gain},
		Note: fmt.Sprintf("Bernoulli λ=%g/slot, synthetic3 device, %d slots, window %d, %d seeds",
			cfg.ArrivalP, cfg.Slots, cfg.Window, len(cfg.Seeds)),
	}

	fig.Series, err = meanSeriesGrid(ctx, par, []PolicyFactory{
		Factory("q-dpm", dev, 0),
		optFactory,
		Factory("timeout", dev, 20),
		Factory("greedy-off", dev, 0),
	}, cfg.Seeds, func(ctx context.Context, pf PolicyFactory, seed uint64) (*stats.Series, error) {
		series, _, err := windowedSeries(ctx, sc, pf, seed, cfg.Window, cfg.Stride, slotCost, meanAsIs)
		return series, err
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// Fig2Config parameterizes the rapid-response experiment.
type Fig2Config struct {
	// Rates and SegmentSlots define the piecewise-stationary schedule.
	Rates        []float64
	SegmentSlots int64
	// Window and Stride control the series sampling.
	Window, Stride int
	// Seeds to average over.
	Seeds []uint64
	// OptimizeLatencySlots models the model-based re-solve wall-clock.
	OptimizeLatencySlots int
}

// DefaultFig2 returns the canonical Fig. 2 parameters.
func DefaultFig2() Fig2Config {
	return Fig2Config{
		Rates:                []float64{0.02, 0.30, 0.08, 0.25},
		SegmentSlots:         50000,
		Window:               4000,
		Stride:               1000,
		Seeds:                []uint64{201, 202, 203},
		OptimizeLatencySlots: 2000,
	}
}

// Fig2Scenario builds the piecewise-stationary scenario and returns it
// with the switch points.
func Fig2Scenario(cfg Fig2Config) (Scenario, []int64, error) {
	dev, err := CanonDevice()
	if err != nil {
		return Scenario{}, nil, err
	}
	mkPiecewise := func() workload.Arrivals {
		segs := make([]workload.Segment, len(cfg.Rates))
		for i, r := range cfg.Rates {
			b, err := workload.NewBernoulli(r)
			if err != nil {
				panic(err)
			}
			segs[i] = workload.Segment{Slots: cfg.SegmentSlots, Proc: b}
		}
		pw, err := workload.NewPiecewise(segs)
		if err != nil {
			panic(err)
		}
		return pw
	}
	pw := mkPiecewise().(*workload.Piecewise)
	sc := Scenario{
		Name:          "fig2",
		Device:        dev,
		QueueCap:      CanonQueueCap,
		LatencyWeight: CanonLatencyWeight,
		Slots:         cfg.SegmentSlots * int64(len(cfg.Rates)),
		Workload:      mkPiecewise,
	}
	return sc, pw.SwitchPoints(), nil
}

// Fig2Ctx reproduces "Rapid Response": windowed energy reduction (vs
// always-on) under piecewise-stationary input with marked switching
// points, for Q-DPM versus the model-based adaptive pipeline and a fixed
// timeout, with cancellation and pool control. Q-DPM's post-switch dips
// must be shorter than adaptive-LP's.
func Fig2Ctx(ctx context.Context, cfg Fig2Config, par Parallel) (*Figure, error) {
	sc, switches, err := Fig2Scenario(cfg)
	if err != nil {
		return nil, err
	}
	dev := sc.Device

	fig := &Figure{
		Title:  "Fig. 2 — Rapid Response",
		XLabel: "slot",
		YLabel: "windowed energy reduction vs always-on",
		Note: fmt.Sprintf("piecewise Bernoulli λ=%v, %d slots/segment, window %d, %d seeds, re-solve latency %d slots",
			cfg.Rates, cfg.SegmentSlots, cfg.Window, len(cfg.Seeds), cfg.OptimizeLatencySlots),
	}
	for _, sp := range switches {
		fig.VLines = append(fig.VLines, float64(sp))
	}

	reduction := reductionVs(dev.MaxPowerEnergy())
	fig.Series, err = meanSeriesGrid(ctx, par, []PolicyFactory{
		QDPMTrackingFactory(dev),
		AdaptiveLPFactory(dev, cfg.Rates[0], cfg.OptimizeLatencySlots),
		Factory("timeout", dev, 8),
	}, cfg.Seeds, func(ctx context.Context, pf PolicyFactory, seed uint64) (*stats.Series, error) {
		series, _, err := windowedSeries(ctx, sc, pf, seed, cfg.Window, cfg.Stride, slotEnergy, reduction)
		return series, err
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}
