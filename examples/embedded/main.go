// Embedded sensor node — the deployment the paper motivates: a sensor
// radio managed by Q-DPM on a node with kilobytes of RAM. This example
// reports exactly what would have to fit on the microcontroller: the Q
// table, the per-decision work, and what that buys in battery life.
//
//	go run ./examples/embedded
//	go run ./examples/embedded -slots 200000 -seed 5
//
// The per-slot timing is a wall-clock measurement, so the runs execute
// serially — concurrent simulation would corrupt the reported
// nanoseconds per slot (the same rule Table R1 follows).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/qlearn"
	"repro/internal/rng"
	"repro/internal/slotsim"
	"repro/internal/workload"
)

const (
	slotSeconds = 0.05 // 50 ms slots
	queueCap    = 4
	latencyW    = 0.002 // joule-scale of the radio is mW·s
)

func main() {
	var (
		slots = flag.Int64("slots", 500000, "slots per run")
		seed  = flag.Uint64("seed", 5, "rng seed")
	)
	flag.Parse()

	dev, err := device.SensorRadio().Slot(slotSeconds)
	if err != nil {
		log.Fatal(err)
	}

	// Sensor traffic: rare bursts (events) over a quiet background.
	sc := experiment.Scenario{
		Name:          "embedded",
		Device:        dev,
		QueueCap:      queueCap,
		LatencyWeight: latencyW,
		Slots:         *slots,
		Workload: func() workload.Arrivals {
			arr, err := workload.NewOnOff(0.6, 40, 2000)
			if err != nil {
				panic(err)
			}
			return arr
		},
	}

	var mgr *core.Manager
	// Not the registry's "q-dpm": three queue buckets and constant
	// exploration and learning rates, so the label says so.
	qdpm := experiment.PolicyFactory{
		Name: "q-dpm-coarse-const",
		New: func(stream *rng.Stream) (slotsim.Policy, error) {
			m, err := core.New(core.Config{
				Device:        dev,
				QueueCap:      queueCap,
				QueueBuckets:  3, // coarse buckets: smaller table, same policy
				LatencyWeight: latencyW,
				Alpha:         qlearn.Polynomial{Scale: 0.1},
				Explore:       qlearn.EpsGreedy{Eps: 0.04},
				Stream:        stream,
			})
			mgr = m
			return m, err
		},
	}

	// The per-slot timing is a wall-clock measurement, so the Q-DPM run
	// gets the machine to itself; the baseline runs afterwards (same
	// rule as Table R1 — concurrent simulation work would corrupt the
	// nanoseconds-per-slot figure).
	start := time.Now()
	m, err := experiment.RunOneCtx(context.Background(), sc, qdpm, *seed, nil)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	mAO, err := experiment.RunOneCtx(context.Background(), sc, experiment.Factory("always-on", dev, 0), *seed, nil)
	if err != nil {
		log.Fatal(err)
	}

	const batteryJ = 2 * 3600 * 3.0 * 0.25 // 2×AA alkaline, 25% to the radio

	fmt.Println("sensor-node radio under Q-DPM:")
	fmt.Printf("  table size        %d bytes (%d states × %d actions)\n",
		mgr.TableBytes(), mgr.NumStates(), dev.PSM.NumStates())
	fmt.Printf("  per-slot work     %.0f ns on this host (argmax + one update)\n",
		float64(elapsed.Nanoseconds())/float64(*slots))
	fmt.Printf("  avg radio power   %.3f mW (always-on %.3f mW)\n",
		1000*m.AvgPowerW(slotSeconds), 1000*mAO.AvgPowerW(slotSeconds))
	fmt.Printf("  energy reduction  %.1f%%\n", 100*(1-m.EnergyJ/mAO.EnergyJ))
	fmt.Printf("  event latency     %.1f ms mean\n", 1000*m.MeanWaitSlots()*slotSeconds)
	fmt.Printf("  radio budget life %.0f days vs %.0f days always-on\n",
		batteryJ/m.EnergyJ*float64(*slots)*slotSeconds/86400,
		batteryJ/mAO.EnergyJ*float64(*slots)*slotSeconds/86400)
}
