// Fleet scale: simulate thousands of heterogeneous power-managed devices
// — laptop disks, WLAN NICs, sensor radios, and the paper's synthetic
// device, each population under its own workload and policy — sharded
// across the worker pool, and compare a hand-tuned mix against the
// canonical one.
//
//	go run ./examples/fleet
//	go run ./examples/fleet -devices 10000 -horizon 600
//
// The walkthrough builds the same fleet three ways to show the layering:
//  1. fleet.Run — the raw subsystem: spec in, merged summary out.
//  2. experiment.RunFleetReplicatedCtx — seed-replicated fleets with
//     pooled confidence intervals.
//  3. A custom mix via fleet.ParseMix, the string format qdpm-fleet's
//     -mix flag accepts.
//
// Every run is deterministic: the summary is bit-identical for every
// -parallel value, because shards are a pure function of the spec and
// merge in shard-index order.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/fleet"
)

func main() {
	var (
		devices  = flag.Int("devices", 2000, "fleet size in device instances")
		horizon  = flag.Float64("horizon", 300, "per-instance horizon in seconds")
		seed     = flag.Uint64("seed", 7, "base seed")
		parallel = flag.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
	)
	flag.Parse()
	ctx := context.Background()

	// 1. The raw fleet subsystem: the canonical heterogeneous mix on the
	//    continuous-time kernel. Instances are assigned to classes by
	//    weighted round-robin and sharded across the pool; each worker
	//    reuses one simulator, so steady state allocates nothing per event.
	spec := fleet.Spec{
		Devices: *devices,
		Classes: fleet.DefaultMix(),
		Horizon: *horizon,
		Seed:    *seed,
	}
	start := time.Now()
	sum, err := fleet.Run(ctx, spec, &engine.Pool{Workers: *parallel})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("== fleet.Run: %s\n", sum)
	p50, _ := sum.WaitQuantile(0.50)
	p99, _ := sum.WaitQuantile(0.99)
	fmt.Printf("   %d shards, %d events, wait p50/p99 = %.3f/%.3f s, %.0f devices/s wall-clock\n\n",
		sum.Shards, sum.Events, p50, p99, float64(sum.Devices)/elapsed.Seconds())

	// 2. Seed-replicated fleets through the experiment layer: the same
	//    spec re-run under derived seeds, pooled with 95% confidence
	//    intervals over the replica-level fleet means.
	sc := experiment.FleetScenario{Name: "canonical-fleet", Spec: spec}
	rep, err := experiment.RunFleetReplicatedCtx(ctx, sc, engine.DeriveSeeds(*seed, 3),
		experiment.Parallel{Workers: *parallel})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== 3 replicas: power %.4f ± %.4f W, energy reduction %.1f%%, loss %.2f%%\n\n",
		rep.AvgPowerW.Mean(), rep.AvgPowerW.CI95(),
		100*rep.EnergyReduction.Mean(), 100*rep.LossRate.Mean())

	// 3. A custom mix in qdpm-fleet's -mix syntax: an all-disk fleet
	//    split between the fixed timeout and the Q-DPM learner — the
	//    head-to-head the paper runs, at fleet scale.
	classes, err := fleet.ParseMix("hdd:exp:0.08:timeout=8,hdd:exp:0.08:q-dpm")
	if err != nil {
		log.Fatal(err)
	}
	duel := spec
	duel.Classes = classes
	dsum, err := fleet.Run(ctx, duel, &engine.Pool{Workers: *parallel})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== timeout vs q-dpm on an all-hdd fleet:")
	for _, g := range dsum.PerPolicy() {
		fmt.Printf("   %-10s %5d instances  %.4f W  (energy reduction %.1f%%)\n",
			g.Policy, g.Instances, g.AvgPowerW.Mean(), 100*g.EnergyReduction.Mean())
	}
}
