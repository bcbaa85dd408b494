package ctsim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/qlearn"
	"repro/internal/rng"
	"repro/internal/slotsim"
	"repro/internal/trace"
)

// The CT replica benchmarks drive one simulated second per op and report
// the kernel-level figures of merit next to the usual per-op numbers:
// ns/event (total benchmark time over fired kernel events) and events/op.
// With -benchmem, allocs/op is the steady-state allocation regression
// guard — the hot path must hold it at zero for every regime.

// benchTimeout is a minimal slotted fixed-timeout policy for the governor
// benchmarks (kept local, like slotsim's bench policy, so the benchmark
// exercises the adapter + kernel rather than policy construction).
type benchTimeout struct {
	deep  device.StateID
	slots int64
}

func (benchTimeout) Name() string { return "bench-timeout" }

func (p benchTimeout) Decide(o slotsim.Observation) device.StateID {
	if o.Queue > 0 || o.IdleSlots < p.slots {
		return 0
	}
	return p.deep
}

// adaptedQDPM builds the fleet's canonical Q-DPM learner (the "q-dpm"
// class policy: decaying ε-greedy, polynomial step size) on psm's slotted
// view and adapts it to the periodic governor at that slot.
func adaptedQDPM(tb testing.TB, psm *device.PSM, slot float64, queueCap int, latencyWeight float64, stream *rng.Stream) ctsim.Policy {
	tb.Helper()
	return ctsim.Adapt(qdpmManager(tb, psm, slot, queueCap, latencyWeight, stream), slot)
}

// qdpmManager builds adaptedQDPM's learner without the adapter.
func qdpmManager(tb testing.TB, psm *device.PSM, slot float64, queueCap int, latencyWeight float64, stream *rng.Stream) *core.Manager {
	tb.Helper()
	dev, err := psm.Slot(slot)
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := core.New(core.Config{
		Device:        dev,
		QueueCap:      queueCap,
		LatencyWeight: latencyWeight,
		Explore:       qlearn.EpsGreedy{Eps: 0.3, MinEps: 0.002, DecayTau: 30000},
		Alpha:         qlearn.Polynomial{Scale: 0.5, Omega: 0.65},
		Stream:        stream,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return mgr
}

// benchRegime selects a benchmark replica's decision regime and policy.
type benchRegime int

const (
	// governorTimeout: a slotted fixed timeout behind the adapter at a
	// 0.5 s period (the Table CT path).
	governorTimeout benchRegime = iota
	// eventDriven: the native continuous-time timeout with its wake
	// timers, which exercises Schedule + Cancel on every decision.
	eventDriven
)

// benchSim assembles a replica in the requested regime.
func benchSim(b *testing.B, src ctsim.Source, regime benchRegime) *ctsim.Sim {
	b.Helper()
	psm := device.Synthetic3()
	cfg := ctsim.Config{
		Device:        psm,
		QueueCap:      8,
		LatencyWeight: 0.6,
		Source:        src,
		Stream:        rng.New(2),
	}
	switch regime {
	case governorTimeout:
		cfg.DecisionPeriod = 0.5
		cfg.Policy = ctsim.Adapt(benchTimeout{deep: device.StateID(psm.NumStates() - 1), slots: 8}, 0.5)
	default:
		pol, err := ctsim.NewTimeout(psm, 4)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Policy = pol
	}
	sim, err := ctsim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

func benchExpSource(b *testing.B, rate float64) ctsim.Source {
	b.Helper()
	src, err := ctsim.NewRenewalSource(mustExp(b, rate))
	if err != nil {
		b.Fatal(err)
	}
	return src
}

func mustExp(b *testing.B, rate float64) dist.Continuous {
	b.Helper()
	d, err := dist.NewExponential(rate)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// benchTraceSource replays a deterministic arrival every gap seconds,
// sized to outlast the benchmark horizon.
func benchTraceSource(b *testing.B, gap, horizon float64) ctsim.Source {
	b.Helper()
	n := int(horizon/gap) + 2
	times := make([]float64, n)
	for i := range times {
		times[i] = gap * float64(i+1)
	}
	src, err := ctsim.NewTraceSource(&trace.Trace{Times: times})
	if err != nil {
		b.Fatal(err)
	}
	return src
}

// benchRun warms the replica (arena grown, ring sized), then advances it
// one simulated second per benchmark op.
func benchRun(b *testing.B, sim *ctsim.Sim) {
	const warm = 256.0
	if err := sim.Run(warm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	before := sim.FiredEvents()
	if err := sim.Run(warm + float64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if ev := sim.FiredEvents() - before; ev > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ev), "ns/event")
		b.ReportMetric(float64(ev)/float64(b.N), "events/op")
	}
}

// BenchmarkCTReplicaRenewalGovernor: Poisson arrivals under the periodic
// governor with an adapted slotted policy — the Table CT configuration.
func BenchmarkCTReplicaRenewalGovernor(b *testing.B) {
	benchRun(b, benchSim(b, benchExpSource(b, 2), governorTimeout))
}

// learnerReplicaSeconds is the learner rung's replica length, a fleet
// instance's default horizon. A learner's ε and α schedules are memoized
// for its first 4096 decisions and visits; one unbounded replica runs
// past them and then times math.Exp and math.Pow, not the learner path.
const learnerReplicaSeconds = 400

// BenchmarkCTReplicaLearnerGovernor: the governor rung with the fleet's
// adapted Q-DPM learner in place of the timeout, so every tick also
// closes a feedback interval. An op is still one simulated second, but
// the seconds run as back-to-back fixed 400 s replicas of a fleet
// instance: at each replica's end the simulator, learner, arrival source
// and streams are reset in place (timed, as in the fleet's instance
// loop) and the next replica repeats the first bit for bit.
func BenchmarkCTReplicaLearnerGovernor(b *testing.B) {
	psm := device.Synthetic3()
	src, err := ctsim.NewRenewalSource(mustExp(b, 2))
	if err != nil {
		b.Fatal(err)
	}
	src.SetLimit(learnerReplicaSeconds)
	polStream, simStream := rng.New(3), rng.New(2)
	mgr := qdpmManager(b, psm, 0.5, 8, 0.6, polStream)
	cfg := ctsim.Config{
		Device: psm, QueueCap: 8, LatencyWeight: 0.6,
		Policy: ctsim.Adapt(mgr, 0.5), Source: src, Stream: simStream,
		DecisionPeriod: 0.5,
	}
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	sim, err := ctsim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sim.SetHorizonHint(learnerReplicaSeconds)
	reset := func() {
		polStream.Reseed(3)
		simStream.Reseed(2)
		mgr.Reset(polStream)
		src.Reset()
		if err := sim.ResetValidated(cfg); err != nil {
			b.Fatal(err)
		}
	}
	// One full replica grows the kernel arena and the queue ring.
	if err := sim.Run(learnerReplicaSeconds); err != nil {
		b.Fatal(err)
	}
	reset()
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for left := b.N; left > 0; {
		now := sim.Now()
		n := min(left, learnerReplicaSeconds-int(now))
		if err := sim.Run(now + float64(n)); err != nil {
			b.Fatal(err)
		}
		if left -= n; sim.Now() == learnerReplicaSeconds {
			events += sim.FiredEvents()
			reset()
		}
	}
	events += sim.FiredEvents()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkCTReplicaRenewalEventDriven: Poisson arrivals with native
// event-driven decisions and wake timers (Schedule + Cancel per decision).
func BenchmarkCTReplicaRenewalEventDriven(b *testing.B) {
	benchRun(b, benchSim(b, benchExpSource(b, 2), eventDriven))
}

// BenchmarkCTReplicaTraceGovernor: trace playback under the governor.
func BenchmarkCTReplicaTraceGovernor(b *testing.B) {
	const warm = 256.0
	benchRun(b, benchSim(b, benchTraceSource(b, 0.8, warm+float64(b.N)+1), governorTimeout))
}

// BenchmarkCTReplicaTraceEventDriven: trace playback, event-driven.
func BenchmarkCTReplicaTraceEventDriven(b *testing.B) {
	const warm = 256.0
	benchRun(b, benchSim(b, benchTraceSource(b, 0.8, warm+float64(b.N)+1), eventDriven))
}
