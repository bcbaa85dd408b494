package ctsim_test

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/rng"
)

// resetSpec is one fuzzed simulator configuration. build turns it into a
// ctsim.Config with its own policy, source and streams, so two builds of
// one spec run independently.
type resetSpec struct {
	device         string
	law            string
	rate           float64
	queueCap       int
	policy         int // 0 always-on, 1 greedy-off, 2 timeout, 3 adapted Q-DPM
	period         float64
	slotCompatible bool
	faults         bool
	seed           uint64
}

// resetSpecBytes is the number of input bytes one resetSpec consumes.
const resetSpecBytes = 7

// decodeResetSpec reads a resetSpec from the first resetSpecBytes bytes
// of data; missing bytes read as zero. The flags byte holds the
// decision mode (bit 0), slot-compatible service (bit 1), faults (bit 2)
// and the policy: the learner when bit 7 is set, else bits 3–6 mod 3.
func decodeResetSpec(data []byte) resetSpec {
	var b [resetSpecBytes]byte
	copy(b[:], data)
	devices := make([]string, 0, len(device.Catalog()))
	for name := range device.Catalog() {
		devices = append(devices, name)
	}
	sort.Strings(devices)
	laws := dist.Names()
	periods := []float64{0.01, 0.1, 0.5, 1}
	flags := b[4]
	s := resetSpec{
		device:         devices[int(b[0])%len(devices)],
		law:            laws[int(b[1])%len(laws)],
		rate:           0.05 * float64(1+int(b[2])%40),
		queueCap:       int(b[3]) % 9, // 0 = unbounded
		policy:         int(flags>>3&0x0f) % 3,
		slotCompatible: flags&2 != 0,
		faults:         flags&4 != 0,
		seed:           uint64(b[6]),
	}
	period := periods[int(b[5])%len(periods)]
	switch {
	case flags&0x80 != 0:
		// The learner runs on the governor at its reference slot, which
		// must hold at least one service time.
		s.policy = 3
		s.period = max(period, device.Catalog()[s.device].ServiceTime)
	case flags&1 != 0:
		s.period = period
	}
	return s
}

func (s resetSpec) build(t *testing.T) ctsim.Config {
	t.Helper()
	psm, err := device.Lookup(s.device)
	if err != nil {
		t.Fatal(err)
	}
	law, err := dist.ByName(s.law, s.rate)
	if err != nil {
		t.Fatal(err)
	}
	src, err := ctsim.NewRenewalSource(law)
	if err != nil {
		t.Fatal(err)
	}
	var pol ctsim.Policy
	switch s.policy {
	case 0:
		pol, err = ctsim.NewAlwaysOn(psm)
	case 1:
		pol, err = ctsim.NewGreedyOff(psm)
	case 2:
		pol, err = ctsim.NewTimeout(psm, 2)
	default:
		// A fresh learner per build, so the reset run and the fresh run
		// start from the same empty Q-table.
		pol = adaptedQDPM(t, psm, s.period, max(s.queueCap, 1), 0.5, rng.New(s.seed+2000))
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg := ctsim.Config{
		Device: psm, QueueCap: s.queueCap, LatencyWeight: 0.5, Policy: pol,
		Source: src, Stream: rng.New(s.seed),
		DecisionPeriod: s.period, SlotCompatible: s.slotCompatible,
	}
	if s.faults {
		cfg.Faults = &ctsim.Faults{
			CrashMTBF: 40, RepairMean: 3,
			FailProb: 0.1, RetryMax: 2, Backoff: 0.2,
			Stream: rng.New(s.seed + 1000),
		}
	}
	return cfg
}

// diffMetrics compares every field of two Metrics bit for bit and
// describes the first difference ("" when identical).
func diffMetrics(got, want ctsim.Metrics) string {
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
				a, b := gf.Index(j).Float(), wf.Index(j).Float()
				if math.Float64bits(a) != math.Float64bits(b) {
					return fmt.Sprintf("%s[%d] = %v, want %v", name, j, a, b)
				}
			}
		default:
			return fmt.Sprintf("field %s has unhandled kind %s", name, gf.Kind())
		}
	}
	return ""
}

// FuzzSimReset decodes two configurations a and b from the input and
// checks that New(a) → Run → Reset(b) → Run ends bit-identical to a
// fresh New(b) → Run. The configurations differ in device, arrival law
// and rate, queue cap, policy, decision mode, slot-compatible service
// and faults, so Reset must clear every piece of state a run under a
// leaves behind. A b that New rejects must make Reset fail with the
// same error.
func FuzzSimReset(f *testing.F) {
	const horizonA, horizonB = 60, 120
	f.Fuzz(func(t *testing.T, data []byte) {
		a := decodeResetSpec(data)
		b := decodeResetSpec(data[min(len(data), resetSpecBytes):])

		fresh, freshErr := ctsim.New(b.build(t))
		sim, err := ctsim.New(a.build(t))
		if err != nil {
			return // a rejected a leaves no simulator to reset
		}
		if err := sim.Run(horizonA); err != nil {
			t.Fatalf("run a = %+v: %v", a, err)
		}
		resetErr := sim.Reset(b.build(t))
		if freshErr != nil || resetErr != nil {
			if freshErr == nil || resetErr == nil || freshErr.Error() != resetErr.Error() {
				t.Fatalf("b = %+v: New error %v, Reset error %v", b, freshErr, resetErr)
			}
			return
		}
		if err := sim.Run(horizonB); err != nil {
			t.Fatalf("run reset b = %+v: %v", b, err)
		}
		if err := fresh.Run(horizonB); err != nil {
			t.Fatalf("run fresh b = %+v: %v", b, err)
		}
		if d := diffMetrics(sim.Metrics(), fresh.Metrics()); d != "" {
			t.Fatalf("a = %+v, b = %+v: reset run differs from fresh: %s", a, b, d)
		}
	})
}
