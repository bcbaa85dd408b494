// Quickstart: manage a synthetic 3-state device with Q-DPM and compare the
// learned behaviour against never powering down.
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart -replicas 8 -parallel 4 -seed 42
//
// This is the smallest end-to-end use of the library: build a device,
// pick a workload, describe the scenario, and let the experiment engine
// run pooled replicas of each policy. With -replicas 1 (the default) it
// is a single deterministic run; more replicas add 95% confidence
// intervals, fanned across -parallel workers.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/workload"
)

func main() {
	var (
		slots    = flag.Int64("slots", 200000, "slots per replica (~28 simulated hours)")
		replicas = flag.Int("replicas", 1, "independent replicas to pool")
		parallel = flag.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
		seed     = flag.Uint64("seed", 42, "base seed (replica seeds derive from it)")
	)
	flag.Parse()

	// 1. A power-managed device: active/idle/sleep with a 3-slot, 2.5 J
	//    wakeup penalty, discretized to 0.5 s slots.
	dev, err := experiment.CanonDevice()
	if err != nil {
		log.Fatal(err)
	}

	// 2. A scenario: the device under one request with probability 0.1
	//    per slot, at the canonical queue cap (8) and backlog weight
	//    (0.3 J per request-slot) the registered policies are built for.
	sc := experiment.Scenario{
		Name:          "quickstart",
		Device:        dev,
		QueueCap:      experiment.CanonQueueCap,
		LatencyWeight: experiment.CanonLatencyWeight,
		Slots:         *slots,
		Workload: func() workload.Arrivals {
			b, err := workload.NewBernoulli(0.1)
			if err != nil {
				panic(err)
			}
			return b
		},
	}

	// 3. Two registered policies: the Q-DPM power manager (Watkins
	//    Q-learning, decaying ε-greedy exploration, polynomial learning
	//    rate) and the always-on baseline.
	qdpm := experiment.Factory("q-dpm", dev, 0)
	alwaysOn := experiment.Factory("always-on", dev, 0)

	// 4. Replicated runs on the worker pool. Seeds derive from the base
	//    seed, so the output is reproducible for any -parallel value.
	seeds := engine.DeriveSeeds(*seed, *replicas)
	par := experiment.Parallel{Workers: *parallel}
	var sums []*experiment.Summary
	for _, pf := range []experiment.PolicyFactory{qdpm, alwaysOn} {
		sum, err := experiment.RunReplicatedCtx(context.Background(), sc, pf, seeds, par)
		if err != nil {
			log.Fatal(err)
		}
		sums = append(sums, sum)
	}

	// 5. Read the pooled metrics.
	for _, sum := range sums {
		fmt.Printf("%-10s %.4f ± %.4f W average, %.3f-slot mean wait\n",
			sum.Policy+":", sum.AvgPowerW.Mean(), sum.AvgPowerW.CI95(), sum.MeanWaitSlots.Mean())
	}
	fmt.Printf("energy reduction: %.1f%%\n",
		100*(1-sums[0].AvgPowerW.Mean()/sums[1].AvgPowerW.Mean()))
}
