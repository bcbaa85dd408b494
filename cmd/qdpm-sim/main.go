// Command qdpm-sim runs one power-management simulation — or a pooled
// multi-replica comparison — and prints a metrics report:
//
//	qdpm-sim -device synthetic3 -policy q-dpm -rate 0.1 -slots 200000
//	qdpm-sim -device hdd -policy timeout -timeout 16 -workload onoff
//	qdpm-sim -device wlan -policy optimal -rate 0.3
//	qdpm-sim -policy q-dpm -replicas 16 -parallel 4   # pooled, 4 workers
//	qdpm-sim -mode ct -workload hyperexp -rate 0.1    # continuous time
//	qdpm-sim -mode ct -trace requests.txt             # trace playback
//
// With -replicas N > 1 the run fans N deterministic replicas (seeds
// derived from -seed) across the experiment engine's worker pool and
// reports pooled means with 95% confidence intervals; -parallel bounds
// the pool (0 = GOMAXPROCS). Results are bit-identical for every
// -parallel value.
//
// -mode ct switches to the event-driven continuous-time simulator
// (internal/ctsim): arrivals occur at real-valued times drawn from a
// renewal law (-workload exp|pareto|weibull|erlang|hyperexp|uniform; the
// per-slot -rate converts via -slot) or replayed from -trace, device
// transitions take their physical latencies, and the chosen policy runs
// under a -slot-period governor via the slotted-policy adapter. -horizon
// sets the run length in seconds (default -slots × -slot).
//
// Policies are the names of internal/registry, each one configuration:
// q-dpm (the converging learner of Fig. 1 and the fleet), q-dpm-sarsa,
// q-dpm-double, q-dpm-fuzzy, q-dpm-qos, optimal, adaptive-lp, always-on,
// greedy-off, timeout, adaptive-timeout, predictive. Slotted workloads:
// bernoulli (default), poisson, onoff, pareto.
//
// -qcap is bounded per policy, so a cap whose model or table could not
// be built fails up front: optimal and adaptive-lp at most 256, the
// q-dpm variants at most 4096, and every other policy at most 65536.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/slotsim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qdpm-sim:", err)
		os.Exit(1)
	}
}

// maxReplicas bounds -replicas: the replica seeds are derived before
// any run, one word per replica, so an unchecked count (say 1e12) runs
// out of memory instead of reporting an error.
const maxReplicas = 1 << 16

func run() error {
	var (
		devName  = flag.String("device", "synthetic3", "catalog device: synthetic3|hdd|wlan|sensor-radio|two-state")
		polName  = flag.String("policy", "q-dpm", "power-management policy: "+strings.Join(registry.Names(), "|"))
		wlName   = flag.String("workload", "bernoulli", "arrival process: bernoulli|poisson|onoff|pareto")
		rate     = flag.Float64("rate", 0.1, "mean arrivals per slot")
		slotDur  = flag.Float64("slot", 0.5, "slot duration in seconds")
		slots    = flag.Int64("slots", 200000, "slots to simulate")
		seed     = flag.Uint64("seed", 1, "rng seed (replica seeds derive from it when -replicas > 1)")
		queueCap = flag.Int("qcap", 8, "queue capacity")
		latW     = flag.Float64("latw", 0.3, "latency weight (J per request-slot)")
		timeout  = flag.Int64("timeout", registry.DefaultTimeoutSlots, "timeout slots (timeout policy; adaptive-timeout's initial one)")
		replicas = flag.Int("replicas", 1, "independent replicas to pool")
		parallel = flag.Int("parallel", 0, "worker-pool size for replicas (0 = GOMAXPROCS)")
		mode     = flag.String("mode", "slot", "simulator: slot (discrete-time) or ct (event-driven continuous time)")
		horizon  = flag.Float64("horizon", 0, "ct horizon in seconds (0 = slots×slot)")
		traceIn  = flag.String("trace", "", "ct mode: replay arrivals from this trace file instead of -workload")
	)
	flag.Parse()
	if *replicas < 1 {
		return fmt.Errorf("replicas %d must be >= 1", *replicas)
	}
	if *replicas > maxReplicas {
		return fmt.Errorf("replicas %d above %d", *replicas, maxReplicas)
	}
	entry, err := registry.Lookup(*polName)
	if err != nil {
		return err
	}
	if err := entry.CheckQueueCap(*queueCap); err != nil {
		return err
	}

	psm, err := device.Lookup(*devName)
	if err != nil {
		return err
	}
	dev, err := psm.Slot(*slotDur)
	if err != nil {
		return err
	}
	pf, err := policyFactory(entry, registry.Args{
		Device: dev, QueueCap: *queueCap, LatencyWeight: *latW, Rate: *rate, TimeoutSlots: *timeout,
	})
	if err != nil {
		return err
	}

	switch *mode {
	case "slot":
	case "ct":
		h := *horizon
		if h == 0 {
			h = float64(*slots) * *slotDur
		}
		return runCT(psm, pf, *wlName, *traceIn, *rate, *slotDur, h,
			*queueCap, *latW, *seed, *replicas, *parallel)
	default:
		return fmt.Errorf("unknown mode %q (want slot or ct)", *mode)
	}

	arr, err := buildWorkload(*wlName, *rate)
	if err != nil {
		return err
	}

	sc := experiment.Scenario{
		Name:          *devName,
		Device:        dev,
		QueueCap:      *queueCap,
		LatencyWeight: *latW,
		Slots:         *slots,
		Workload:      arr.Clone,
	}
	if *replicas > 1 {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		seeds := engine.DeriveSeeds(*seed, *replicas)
		sum, err := experiment.RunReplicatedCtx(ctx, sc, pf, seeds, experiment.Parallel{Workers: *parallel})
		if err != nil {
			return err
		}
		maxPower := dev.MaxPowerEnergy() / dev.SlotDuration
		fmt.Printf("device        %s (%d states, slot %.3gs)\n", psm.Name, psm.NumStates(), dev.SlotDuration)
		fmt.Printf("workload      %s\n", arr)
		fmt.Printf("policy        %s\n", pf.Name)
		fmt.Printf("replicas      %d × %d slots (base seed %d)\n", sum.Replicas, *slots, *seed)
		fmt.Printf("avg power     %.4f ± %.4f W (always-on %.4f W)\n",
			sum.AvgPowerW.Mean(), sum.AvgPowerW.CI95(), maxPower)
		fmt.Printf("energy red.   %.1f%% ± %.1f%%\n",
			100*sum.EnergyReduction.Mean(), 100*sum.EnergyReduction.CI95())
		fmt.Printf("avg cost      %.4f ± %.4f J/slot\n", sum.AvgCost.Mean(), sum.AvgCost.CI95())
		fmt.Printf("mean wait     %.3f ± %.3f slots\n", sum.MeanWaitSlots.Mean(), sum.MeanWaitSlots.CI95())
		fmt.Printf("loss rate     %.3f%% ± %.3f%%\n", 100*sum.LossRate.Mean(), 100*sum.LossRate.CI95())
		return nil
	}

	m, err := experiment.RunOneCtx(context.Background(), sc, pf, *seed, nil)
	if err != nil {
		return err
	}

	maxPower := dev.MaxPowerEnergy() / dev.SlotDuration
	fmt.Printf("device        %s (%d states, slot %.3gs)\n", psm.Name, psm.NumStates(), dev.SlotDuration)
	fmt.Printf("workload      %s\n", arr)
	fmt.Printf("policy        %s\n", pf.Name)
	fmt.Printf("slots         %d (%.1f s simulated)\n", m.Slots, float64(m.Slots)*dev.SlotDuration)
	fmt.Printf("energy        %.2f J\n", m.EnergyJ)
	fmt.Printf("avg power     %.4f W (always-on %.4f W)\n", m.AvgPowerW(dev.SlotDuration), maxPower)
	fmt.Printf("energy red.   %.1f%%\n", 100*(1-m.AvgPowerW(dev.SlotDuration)/maxPower))
	fmt.Printf("avg cost      %.4f J/slot (energy + %.3g×backlog)\n", m.AvgCost(), *latW)
	fmt.Printf("requests      %d arrived, %d served, %d lost (%.2f%%)\n",
		m.Arrived, m.Served, m.Lost, 100*m.LossRate())
	fmt.Printf("mean wait     %.3f slots (%.3g s)\n", m.MeanWaitSlots(), m.MeanWaitSlots()*dev.SlotDuration)
	fmt.Printf("mean backlog  %.3f requests\n", m.MeanBacklog())
	fmt.Printf("commands      %d issued, %d clamped\n", m.Commands, m.Clamped)
	for i, s := range m.StateSlots {
		fmt.Printf("state %-10s %8d slots (%.1f%%)\n", psm.States[i].Name, s, 100*float64(s)/float64(m.Slots))
	}
	fmt.Printf("switching     %8d slots (%.1f%%)\n", m.TransitionSlots, 100*float64(m.TransitionSlots)/float64(m.Slots))
	return nil
}

// policyFactory builds the registry entry for every replica from a and
// the replica's stream. A Shared entry (the optimal policy, whose MDP
// solve is identical for every replica) is built once and serves the
// whole pool.
func policyFactory(e registry.Entry, a registry.Args) (experiment.PolicyFactory, error) {
	pf := experiment.PolicyFactory{
		Name: e.Name,
		New: func(stream *rng.Stream) (slotsim.Policy, error) {
			a := a
			a.Stream = stream
			return e.Build(a)
		},
	}
	if e.Shared {
		pol, err := e.Build(a)
		if err != nil {
			return pf, err
		}
		pf.New = func(*rng.Stream) (slotsim.Policy, error) { return pol, nil }
	}
	return pf, nil
}

func buildWorkload(name string, rate float64) (workload.Arrivals, error) {
	switch name {
	case "bernoulli":
		return workload.NewBernoulli(rate)
	case "poisson":
		return workload.NewPoisson(rate)
	case "onoff":
		// Bursty with the requested long-run rate: on-phase rate 4x,
		// silent 3/4 of the time.
		p := 4 * rate
		if p > 1 {
			p = 1
		}
		return workload.NewOnOff(p, 200, 600)
	case "pareto":
		// Heavy-tailed interarrivals with mean 1/rate slots.
		alpha := 1.5
		if rate <= 0 {
			return nil, fmt.Errorf("pareto workload needs rate > 0")
		}
		xm := (alpha - 1) / alpha / rate
		d, err := dist.NewPareto(xm, alpha)
		if err != nil {
			return nil, err
		}
		return workload.NewRenewal(d)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

// buildCTSource maps a workload name (a dist.ByName law; bernoulli and
// poisson degrade gracefully to their continuous limit, the Poisson
// process) or a trace file to a continuous-time arrival source factory.
// ratePerSec is the arrival rate in requests per second.
func buildCTSource(name, traceFile string, ratePerSec float64) (func() (ctsim.Source, error), string, error) {
	if traceFile != "" {
		tr, err := trace.ReadFile(traceFile)
		if err != nil {
			return nil, "", err
		}
		desc := fmt.Sprintf("trace %s (%d requests over %.1f s)", traceFile, tr.Len(), tr.Duration())
		return func() (ctsim.Source, error) { return ctsim.NewTraceSource(tr) }, desc, nil
	}
	switch name {
	case "bernoulli", "poisson":
		name = "exp"
	}
	d, err := dist.ByName(name, ratePerSec)
	if err != nil {
		return nil, "", err
	}
	return func() (ctsim.Source, error) { return ctsim.NewRenewalSource(d) }, d.String(), nil
}

// runCT drives the event-driven continuous-time simulator with the chosen
// slotted policy adapted onto a slotDur-period governor.
func runCT(psm *device.PSM, pf experiment.PolicyFactory, wlName, traceFile string,
	ratePerSlot, slotDur, horizon float64, queueCap int, latW float64,
	seed uint64, replicas, parallel int) error {

	srcFactory, srcDesc, err := buildCTSource(wlName, traceFile, ratePerSlot/slotDur)
	if err != nil {
		return err
	}
	sc := experiment.CTScenario{
		Name:          psm.Name,
		Device:        psm,
		QueueCap:      queueCap,
		LatencyWeight: latW / slotDur, // J/request-slot → J/request-second
		Horizon:       horizon,
		Period:        slotDur,
		Source: func() ctsim.Source {
			src, err := srcFactory()
			if err != nil {
				panic(err) // factory inputs validated above
			}
			return src
		},
	}
	maxPower := psm.MaxPower()
	fmt.Printf("device        %s (%d states, continuous time, %.3gs governor)\n",
		psm.Name, psm.NumStates(), slotDur)
	fmt.Printf("arrivals      %s\n", srcDesc)
	fmt.Printf("policy        %s\n", pf.Name)

	if replicas > 1 {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		seeds := engine.DeriveSeeds(seed, replicas)
		sum, err := experiment.RunCTReplicatedCtx(ctx, sc, pf, seeds, experiment.Parallel{Workers: parallel})
		if err != nil {
			return err
		}
		fmt.Printf("replicas      %d × %.0f s (base seed %d)\n", sum.Instances, horizon, seed)
		fmt.Printf("avg power     %.4f ± %.4f W (always-on %.4f W)\n",
			sum.AvgPowerW.Mean(), sum.AvgPowerW.CI95(), maxPower)
		fmt.Printf("energy red.   %.1f%% ± %.1f%%\n",
			100*sum.EnergyReduction.Mean(), 100*sum.EnergyReduction.CI95())
		fmt.Printf("mean wait     %.3f ± %.3f s\n", sum.MeanWaitSec.Mean(), sum.MeanWaitSec.CI95())
		fmt.Printf("loss rate     %.3f%% ± %.3f%%\n", 100*sum.LossRate.Mean(), 100*sum.LossRate.CI95())
		return nil
	}

	m, err := experiment.RunCTOneCtx(context.Background(), sc, pf, seed)
	if err != nil {
		return err
	}
	fmt.Printf("horizon       %.1f s\n", m.Horizon)
	fmt.Printf("energy        %.2f J\n", m.EnergyJ)
	fmt.Printf("avg power     %.4f W (always-on %.4f W)\n", m.AvgPowerW(), maxPower)
	fmt.Printf("energy red.   %.1f%%\n", 100*(1-m.AvgPowerW()/maxPower))
	fmt.Printf("requests      %d arrived, %d served, %d lost (%.2f%%)\n",
		m.Arrived, m.Served, m.Lost, 100*m.LossRate())
	fmt.Printf("mean wait     %.3f s\n", m.MeanWaitSeconds())
	fmt.Printf("mean backlog  %.3f requests\n", m.MeanBacklog())
	fmt.Printf("decisions     %d (%d commands, %d clamped)\n", m.Decisions, m.Commands, m.Clamped)
	for i, st := range m.StateTime {
		fmt.Printf("state %-10s %10.1f s (%.1f%%)\n", psm.States[i].Name, st, 100*st/m.Horizon)
	}
	fmt.Printf("switching     %10.1f s (%.1f%%)\n", m.TransitionTime, 100*m.TransitionTime/m.Horizon)
	return nil
}
