package experiment

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/rng"
)

func ctTestScenario(t *testing.T, horizon float64) CTScenario {
	t.Helper()
	return CTScenario{
		Name:          "ct-test",
		Device:        device.Synthetic3(),
		QueueCap:      CanonQueueCap,
		LatencyWeight: CanonLatencyWeight / CanonSlotSeconds,
		Horizon:       horizon,
		Period:        CanonSlotSeconds,
		Source: func() ctsim.Source {
			d, err := dist.ByName("hyperexp", 0.2)
			if err != nil {
				t.Fatal(err)
			}
			src, err := ctsim.NewRenewalSource(d)
			if err != nil {
				t.Fatal(err)
			}
			return src
		},
	}
}

// The ct experiment honours the same determinism contract as the slotted
// one: a pooled replication is bit-identical to a serial one for every
// worker count.
func TestCTReplicatedBitIdenticalAcrossWorkers(t *testing.T) {
	sc := ctTestScenario(t, 4000)
	dev, err := CanonDevice()
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{1, 2, 3, 4, 5}
	for _, pf := range []PolicyFactory{Factory("timeout", dev, 8), Factory("q-dpm", dev, 0)} {
		serial, err := RunCTReplicatedCtx(context.Background(), sc, pf, seeds, Parallel{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := RunCTReplicatedCtx(context.Background(), sc, pf, seeds, Parallel{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, pooled) {
			t.Errorf("%s: pooled ct summary differs from serial:\n%+v\n%+v", pf.Name, serial, pooled)
		}
		if serial.Instances != int64(len(seeds)) {
			t.Errorf("%s: %d replicas pooled, want %d", pf.Name, serial.Instances, len(seeds))
		}
	}
}

// The full ct table grid is likewise pool-invariant.
func TestTableCTDeterministicAcrossWorkers(t *testing.T) {
	seeds := []uint64{31, 32}
	a, err := TableCTCtx(context.Background(), 0.2, 2000, seeds, Parallel{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TableCTCtx(context.Background(), 0.2, 2000, seeds, Parallel{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("ct table rows differ across worker counts:\n%v\n%v", a.Rows, b.Rows)
	}
	if len(a.Rows) != 16 { // 4 workloads × 4 policies
		t.Fatalf("ct table has %d rows, want 16", len(a.Rows))
	}
}

// A cancelled context aborts a ct replica promptly with the context error.
func TestRunCTOneCancellation(t *testing.T) {
	sc := ctTestScenario(t, 1e9) // absurd horizon: must not complete
	dev, err := CanonDevice()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCTOneCtx(ctx, sc, Factory("timeout", dev, 8), 1); err != context.Canceled {
		t.Fatalf("cancelled ct run returned %v, want context.Canceled", err)
	}
}

// Sanity of the ct scenario validation.
func TestCTScenarioValidate(t *testing.T) {
	sc := ctTestScenario(t, 100)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*CTScenario){
		func(s *CTScenario) { s.Device = nil },
		func(s *CTScenario) { s.Source = nil },
		func(s *CTScenario) { s.Horizon = 0 },
		func(s *CTScenario) { s.Horizon = math.Inf(1) },
		func(s *CTScenario) { s.Horizon = math.NaN() },
		func(s *CTScenario) { s.Period = 0 },
		func(s *CTScenario) { s.Period = math.Inf(1) },
		func(s *CTScenario) { s.Period = math.NaN() },
	}
	for i, mut := range bad {
		s := ctTestScenario(t, 100)
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("bad ct scenario %d accepted", i)
		}
	}
}

// A ct replica splits its seed's root stream in the order policy, sim,
// service, fault. A run through the experiment layer equals, bit for bit
// in every Metrics field, a hand-built ctsim.Config that makes those
// splits — for an adapted policy on the governor (Q-DPM, which draws from
// its policy stream) and for a native event-driven one.
func TestCTReplicaStreamLayout(t *testing.T) {
	const seed = 7
	exp2, err := dist.NewExponential(2)
	if err != nil {
		t.Fatal(err)
	}
	faults := ctsim.Faults{CrashMTBF: 300, RepairMean: 5, FailProb: 0.05, RetryMax: 2, Backoff: 0.2}
	sc := ctTestScenario(t, 4000)
	sc.ServiceDist = exp2
	sc.Faults = &faults
	hand := func(period float64, pol func(*rng.Stream) (ctsim.Policy, error)) ctsim.Metrics {
		t.Helper()
		root := rng.New(seed)
		polStream, simStream := root.Split(), root.Split()
		svcStream, faultStream := root.Split(), root.Split()
		p, err := pol(polStream)
		if err != nil {
			t.Fatal(err)
		}
		f := faults
		f.Stream = faultStream
		sim, err := ctsim.New(ctsim.Config{
			Device: sc.Device, QueueCap: sc.QueueCap, LatencyWeight: sc.LatencyWeight,
			Policy: p, Source: sc.Source(), Stream: simStream, DecisionPeriod: period,
			ServiceDist: exp2, ServiceStream: svcStream, Faults: &f,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(sc.Horizon); err != nil {
			t.Fatal(err)
		}
		m := sim.Metrics()
		if m.Crashes == 0 || m.Retries == 0 {
			t.Fatalf("faults injected nothing: %+v", m)
		}
		return m
	}

	dev, err := CanonDevice()
	if err != nil {
		t.Fatal(err)
	}
	pf := Factory("q-dpm", dev, 0)
	got, err := RunCTOneCtx(context.Background(), sc, pf, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := hand(sc.Period, func(s *rng.Stream) (ctsim.Policy, error) {
		pol, err := pf.New(s)
		if err != nil {
			return nil, err
		}
		return ctsim.Adapt(pol, sc.Period), nil
	})
	if d := metricsDiff(got, want); d != "" {
		t.Errorf("adapted q-dpm: %s", d)
	}

	native := ctCell{sc: sc, name: "greedy-off", policy: func(*rng.Stream) (ctsim.Policy, error) {
		return ctsim.NewGreedyOff(sc.Device)
	}}
	native.sc.Period = 0
	var ws ctScratch
	if err := runCTReplica(context.Background(), &native, seed, &ws); err != nil {
		t.Fatal(err)
	}
	if d := metricsDiff(ws.sim.Metrics(), hand(0, native.policy)); d != "" {
		t.Errorf("native greedy-off: %s", d)
	}
}

// metricsDiff compares every field of two ctsim.Metrics bit for bit and
// describes the first difference ("" when identical).
func metricsDiff(got, want ctsim.Metrics) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		name := g.Type().Field(i).Name
		gf, wf := g.Field(i), w.Field(i)
		switch gf.Kind() {
		case reflect.Float64:
			if math.Float64bits(gf.Float()) != math.Float64bits(wf.Float()) {
				return fmt.Sprintf("%s = %v, want %v", name, gf.Float(), wf.Float())
			}
		case reflect.Int64:
			if gf.Int() != wf.Int() {
				return fmt.Sprintf("%s = %d, want %d", name, gf.Int(), wf.Int())
			}
		case reflect.Slice:
			if gf.Len() != wf.Len() {
				return fmt.Sprintf("len(%s) = %d, want %d", name, gf.Len(), wf.Len())
			}
			for j := 0; j < gf.Len(); j++ {
				if a, b := gf.Index(j).Float(), wf.Index(j).Float(); math.Float64bits(a) != math.Float64bits(b) {
					return fmt.Sprintf("%s[%d] = %v, want %v", name, j, a, b)
				}
			}
		default:
			return fmt.Sprintf("field %s has unhandled kind %s", name, gf.Kind())
		}
	}
	return ""
}
