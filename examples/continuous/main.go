// Continuous time: generate a bursty request trace, persist it through the
// trace codec, and replay it through the event-driven simulator
// (internal/ctsim) under two power managers — the fixed timeout every OS
// ships and the Q-DPM learner.
//
//	go run ./examples/continuous
//	go run ./examples/continuous -rate 0.5 -n 40000 -replicas 4
//
// This is the workflow the slot grid cannot express: arrivals land at
// real-valued instants (a high-variance hyperexponential renewal process
// standing in for a measured log), the device's wakeup latency is its
// physical 1.5 s, and every policy replays the exact same trace, so the
// comparison is paired. Replace the generated trace with a measured one
// (qdpm-trace convert) without touching any simulator code.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/rng"
	"repro/internal/trace"
)

func main() {
	var (
		n        = flag.Int("n", 20000, "requests in the generated trace")
		rate     = flag.Float64("rate", 0.2, "arrival rate in requests per second")
		seed     = flag.Uint64("seed", 42, "base seed (trace and replica seeds derive from it)")
		replicas = flag.Int("replicas", 2, "independent replicas to pool (policy streams differ; the trace is shared)")
		parallel = flag.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
	)
	flag.Parse()

	// 1. Generate a high-variance arrival trace: hyperexponential
	//    interarrivals (CV ≈ 1.24) calibrated to exactly -rate requests/s.
	d, err := dist.ByName("hyperexp", *rate)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := trace.Generate(d, *n, rng.New(*seed))
	if err != nil {
		log.Fatal(err)
	}

	// 2. Round-trip it through the on-disk codec — the artifact another
	//    experiment (or another tool) would replay.
	path := filepath.Join(os.TempDir(), fmt.Sprintf("qdpm-continuous-%d.txt", *seed))
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.WriteText(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	defer os.Remove(path)
	f, err = os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	replay, err := trace.ReadText(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	st := replay.Summary()
	fmt.Printf("trace         %d requests over %.0f s (rate %.3f/s, CV %.2f) via %s\n",
		st.Count, st.Duration, 1/st.MeanInterarrival, st.CV, path)

	// 3. A continuous-time scenario: the synthetic 3-state device with its
	//    physical latencies, the canonical governor period for the
	//    adapted slotted policies, and the replayed trace as the source.
	psm := device.Synthetic3()
	dev, err := experiment.CanonDevice()
	if err != nil {
		log.Fatal(err)
	}
	sc := experiment.CTScenario{
		Name:          "continuous",
		Device:        psm,
		QueueCap:      experiment.CanonQueueCap,
		LatencyWeight: experiment.CanonLatencyWeight / experiment.CanonSlotSeconds,
		Horizon:       st.Duration + 10,
		Period:        experiment.CanonSlotSeconds,
		Source: func() ctsim.Source {
			src, err := ctsim.NewTraceSource(replay)
			if err != nil {
				panic(err)
			}
			return src
		},
	}

	// 4. Pooled paired replicas of each policy over the same trace.
	seeds := engine.DeriveSeeds(*seed, *replicas)
	par := experiment.Parallel{Workers: *parallel}
	maxPower := psm.MaxPower()
	for _, pf := range []experiment.PolicyFactory{
		experiment.Factory("timeout", dev, 8),
		experiment.Factory("q-dpm", dev, 0),
	} {
		sum, err := experiment.RunCTReplicatedCtx(context.Background(), sc, pf, seeds, par)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %.4f ± %.4f W (%.1f%% saved vs always-on), %.2f s mean wait, %.2f%% lost\n",
			sum.Policy+":", sum.AvgPowerW.Mean(), sum.AvgPowerW.CI95(),
			100*sum.EnergyReduction.Mean(), sum.MeanWaitSec.Mean(), 100*sum.LossRate.Mean())
	}
	fmt.Printf("always-on     %.4f W reference\n", maxPower)
}
