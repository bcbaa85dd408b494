// WLAN power-save with a latency budget: QoS-guaranteed Q-DPM (the
// paper's "future work" extension) on an 802.11 NIC under Markov-modulated
// traffic, versus plain Q-DPM and the constrained occupancy-LP optimum.
//
//	go run ./examples/wlan
//	go run ./examples/wlan -parallel 3 -seed 17
//
// The QoS variant adapts a Lagrangian backlog multiplier online so mean
// backlog tracks a target without hand-tuning the reward weight — compare
// the backlog columns. The three policies run concurrently on the
// experiment engine's worker pool.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/mdp"
	"repro/internal/rng"
	"repro/internal/slotsim"
	"repro/internal/stochpm"
	"repro/internal/workload"
)

const (
	slotSeconds = 0.1
	queueCap    = 8
	latencyW    = 0.02 // deliberately soft: QoS must do the work
	target      = 0.2  // mean-backlog budget (requests)
)

func traffic() workload.Arrivals {
	// Two-phase MMPP: busy browsing vs idle reading.
	busy, err := workload.NewBernoulli(0.5)
	if err != nil {
		log.Fatal(err)
	}
	quiet, err := workload.NewBernoulli(0.02)
	if err != nil {
		log.Fatal(err)
	}
	m, err := workload.NewMMPP(
		[]workload.Arrivals{busy, quiet},
		[][]float64{{0.995, 0.005}, {0.002, 0.998}},
		1,
	)
	if err != nil {
		log.Fatal(err)
	}
	return m
}

func main() {
	var (
		slots    = flag.Int64("slots", 400000, "slots per run")
		parallel = flag.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
		seed     = flag.Uint64("seed", 17, "rng seed")
	)
	flag.Parse()

	dev, err := device.WLAN().Slot(slotSeconds)
	if err != nil {
		log.Fatal(err)
	}

	// The simulator forbids LatencyWeight == 0 without an explicit
	// override; 0.02 is soft enough that plain Q-DPM under-serves, which
	// is exactly the gap the QoS multiplier closes.
	sc := experiment.Scenario{
		Name:          "wlan",
		Device:        dev,
		QueueCap:      queueCap,
		LatencyWeight: latencyW,
		Slots:         *slots,
		Workload:      traffic,
	}

	plain := experiment.PolicyFactory{
		Name: "q-dpm (plain)",
		New: func(stream *rng.Stream) (slotsim.Policy, error) {
			return core.New(core.Config{
				Device: dev, QueueCap: queueCap, LatencyWeight: latencyW,
				Stream: stream,
			})
		},
	}
	qos := experiment.PolicyFactory{
		Name: "q-dpm (QoS)",
		New: func(stream *rng.Stream) (slotsim.Policy, error) {
			return core.New(core.Config{
				Device: dev, QueueCap: queueCap, LatencyWeight: latencyW,
				QoS:    &core.QoSConfig{TargetBacklog: target, Eta: 0.05},
				Stream: stream,
			})
		},
	}

	// The constrained model-based reference at the long-run mean rate.
	meanRate := traffic().MeanRate()
	d, err := mdp.BuildDPM(mdp.DPMConfig{
		Device: dev, ArrivalP: meanRate, QueueCap: queueCap, LatencyWeight: latencyW,
	})
	if err != nil {
		log.Fatal(err)
	}
	lpSol, err := stochpm.SolveLP(d, &stochpm.Constraint{MaxMeanBacklog: target})
	if err != nil {
		log.Fatal(err)
	}
	lp := experiment.PolicyFactory{
		Name: "constrained-lp",
		New: func(stream *rng.Stream) (slotsim.Policy, error) {
			return stochpm.NewLPPolicy(d, lpSol, stream)
		},
	}

	// One pool job per policy; qosLambda is read back from the QoS
	// replica after its run completes.
	pfs := []experiment.PolicyFactory{plain, qos, lp}
	var qosLambda float64
	type row struct {
		name                     string
		power, backlog, lossRate float64
	}
	rows, err := engine.Map(context.Background(), &engine.Pool{Workers: *parallel}, len(pfs),
		func(ctx context.Context, i int) (row, error) {
			pf := pfs[i]
			var captured *core.Manager
			wrapped := experiment.PolicyFactory{
				Name: pf.Name,
				New: func(stream *rng.Stream) (slotsim.Policy, error) {
					p, err := pf.New(stream)
					if err == nil && pf.Name == qos.Name {
						captured = p.(*core.Manager)
					}
					return p, err
				},
			}
			m, err := experiment.RunOneCtx(ctx, sc, wrapped, *seed, nil)
			if err != nil {
				return row{}, err
			}
			if captured != nil {
				qosLambda = captured.QosLambda() // job-local write; read after Map returns
			}
			return row{
				name:     pf.Name,
				power:    m.AvgPowerW(slotSeconds),
				backlog:  m.MeanBacklog(),
				lossRate: m.LossRate(),
			}, nil
		})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("WLAN NIC, MMPP traffic (mean rate %.3f/slot), backlog budget %.1f:\n\n", meanRate, target)
	fmt.Printf("%-16s %10s %14s %12s\n", "policy", "power (W)", "mean backlog", "loss rate")
	for _, r := range rows {
		fmt.Printf("%-16s %10.4f %14.3f %11.2f%%\n", r.name, r.power, r.backlog, 100*r.lossRate)
	}
	fmt.Printf("\nQoS multiplier settled at λ=%.3f (plain Q-DPM has none);\n", qosLambda)
	fmt.Println("the LP reference assumes the mean rate and full model knowledge.")
}
