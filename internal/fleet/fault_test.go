package fleet

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// faultedSpec returns a small heterogeneous faulted fleet. couple
// CoupleNone exercises the uncoupled crash/retry path; a couple mode
// adds scheduled outage windows on the shared resource.
func faultedSpec(couple CoupleMode) Spec {
	sp := Spec{
		Devices: 37,
		Classes: DefaultMix(),
		Horizon: 120,
		Seed:    42,
		Faults: &FaultSpec{
			CrashMTBF:  40,
			RepairMean: 6,
			FailProb:   0.08,
			RetryMax:   2,
			Backoff:    0.5,
		},
	}
	if couple != CoupleNone {
		sp.ShardSize = 10
		sp.Couple = couple
		sp.CoupleSize = 5
		sp.Faults.OutagePeriod = 30
		sp.Faults.OutageDuration = 5
	}
	return sp
}

// TestFleetFaultedBitIdenticalAcrossPoolSizes is the PR's determinism
// property test: with crash/retry faults enabled — uncoupled and under
// each of the three shared resources with scheduled outage windows on
// top — the merged summary (resilience accumulators included) is
// identical for every worker count.
func TestFleetFaultedBitIdenticalAcrossPoolSizes(t *testing.T) {
	for _, couple := range []CoupleMode{CoupleNone, CoupleChannel, CoupleGateway, CouplePower} {
		name := string(couple)
		if couple == CoupleNone {
			name = "uncoupled"
		}
		t.Run(name, func(t *testing.T) {
			spec := faultedSpec(couple)
			serial, err := Run(context.Background(), spec, &engine.Pool{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4} {
				pooled, err := Run(context.Background(), spec, &engine.Pool{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial, pooled) {
					t.Fatalf("summary differs between 1 and %d workers:\n%+v\nvs\n%+v", workers, serial, pooled)
				}
			}
			if !serial.Faulted {
				t.Fatalf("summary not marked faulted: %+v", serial)
			}
			if serial.Crashes == 0 || serial.Retries == 0 {
				t.Fatalf("faulted fleet injected nothing: crashes=%d retries=%d", serial.Crashes, serial.Retries)
			}
			if !(serial.DowntimeSec.Mean() > 0) || !(serial.Availability() < 1) {
				t.Fatalf("no downtime accrued: %+v", serial)
			}
		})
	}
}

// TestFleetFaultedOutageSignatures checks each resource's outage
// signature: a jammed channel parks requesters (contention wait), a
// down gateway sheds as LostToOutage, and a browned-out power budget
// denies more transitions than an un-faulted budget run.
func TestFleetFaultedOutageSignatures(t *testing.T) {
	run := func(spec Spec) *Summary {
		t.Helper()
		sum, err := Run(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	outageOnly := func(couple CoupleMode) Spec {
		sp := faultedSpec(couple)
		// Outage windows only: no crashes or transient failures, so
		// every effect below is attributable to the windows.
		sp.Faults = &FaultSpec{OutagePeriod: 30, OutageDuration: 6}
		return sp
	}
	if s := run(outageOnly(CoupleChannel)); !(s.ResourceWaitSec.Mean() > 0) {
		t.Fatalf("channel jams produced no contention wait: %+v", s)
	}
	if s := run(outageOnly(CoupleGateway)); s.LostToOutage == 0 {
		t.Fatalf("gateway downtime shed nothing: %+v", s)
	} else if s.Crashes != 0 || s.Retries != 0 || !(s.DowntimeSec.Mean() == 0) {
		t.Fatalf("outage-only run accrued crash/retry metrics: %+v", s)
	}
	base := run(coupledSpec(CouplePower))
	browned := outageOnly(CouplePower)
	browned.Horizon = 60 // match coupledSpec
	browned.Faults.BrownoutFrac = 0.3
	if s := run(browned); s.BudgetDenied <= base.BudgetDenied {
		t.Fatalf("brownout denied %d transitions, un-faulted budget denied %d — want more under the browned-out cap",
			s.BudgetDenied, base.BudgetDenied)
	}
}

// TestFleetFaultMonotonicity pins the resilience metrics' direction: as
// the fault severity rises, availability falls and losses rise.
func TestFleetFaultMonotonicity(t *testing.T) {
	run := func(f *FaultSpec) *Summary {
		t.Helper()
		sp := Spec{
			Devices: 32,
			Classes: DefaultMix(),
			Horizon: 120,
			Seed:    7,
			Faults:  f,
		}
		sum, err := Run(context.Background(), sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	mild := run(&FaultSpec{CrashMTBF: 200, RepairMean: 5, FailProb: 0.02})
	severe := run(&FaultSpec{CrashMTBF: 30, RepairMean: 15, FailProb: 0.2})
	if !(severe.Availability() < mild.Availability()) {
		t.Fatalf("availability %.4f (severe) not below %.4f (mild)", severe.Availability(), mild.Availability())
	}
	if !(severe.LossOverall() > mild.LossOverall()) {
		t.Fatalf("loss %.4f (severe) not above %.4f (mild)", severe.LossOverall(), mild.LossOverall())
	}
	if severe.Crashes <= mild.Crashes || severe.Retries <= mild.Retries {
		t.Fatalf("severe fault counters not above mild: severe=%+v mild=%+v", severe, mild)
	}
}

// TestFleetUnfaultedIdenticalToNilFaults pins the byte-identity
// contract's summary half: a spec with Faults nil produces a summary
// equal (field for field, Faulted echo aside) to the same spec run
// before the fault layer existed — guarded here by checking every
// resilience aggregate is exactly zero and availability is exactly 1.
func TestFleetUnfaultedIdenticalToNilFaults(t *testing.T) {
	spec := coupledSpec(CoupleChannel)
	sum, err := Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Faulted {
		t.Fatalf("unfaulted run marked faulted")
	}
	if sum.Crashes != 0 || sum.Retries != 0 || sum.RetryExhausted != 0 || sum.LostToOutage != 0 ||
		sum.DowntimeSec.Mean() != 0 || sum.EnergyOutageJ != 0 {
		t.Fatalf("unfaulted run accrued resilience metrics: %+v", sum)
	}
	if sum.Availability() != 1 {
		t.Fatalf("unfaulted availability = %v, want exactly 1", sum.Availability())
	}
}

// TestFleetPartialFailureDegradesGracefully drives a deliberately
// poisoned runner (one class's arrival law nulled after validation)
// through the shard loop and checks graceful degradation: the other
// shards finish, the survivors' merged summary comes back alongside a
// *PartialError naming exactly the poisoned shards with their instance
// ranges, and the partial summary is still bit-identical across pool
// sizes.
func TestFleetPartialFailureDegradesGracefully(t *testing.T) {
	spec := Spec{Devices: 8, Classes: DefaultMix(), Horizon: 30, ShardSize: 1, Seed: 9}
	poisoned := func(workers int) (*Summary, error) {
		r, err := newRunner(spec)
		if err != nil {
			t.Fatal(err)
		}
		r.classes[0].arrDist = nil
		return runWith(context.Background(), r, &engine.Pool{Workers: workers})
	}
	sum, err := poisoned(1)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PartialError, got %v", err)
	}
	// ShardSize 1: shard i holds exactly instance i, so the failed set
	// is the poisoned class's instance set.
	r, _ := newRunner(spec)
	var want []int
	for i := 0; i < spec.Devices; i++ {
		if r.classOf(i) == 0 {
			want = append(want, i)
		}
	}
	if pe.Shards != spec.Devices || len(pe.Failed) != len(want) {
		t.Fatalf("partial = %v, want %d failed of %d", pe, len(want), spec.Devices)
	}
	for j, se := range pe.Failed {
		if se.Shard != want[j] || se.Lo != want[j] || se.Hi != want[j]+1 {
			t.Fatalf("failed[%d] = %+v, want shard %d instances [%d,%d)", j, se, want[j], want[j], want[j]+1)
		}
	}
	if !strings.Contains(pe.Error(), "shards failed") {
		t.Fatalf("error text: %q", pe.Error())
	}
	if sum == nil || sum.Devices != int64(spec.Devices-len(want)) {
		t.Fatalf("survivor summary wrong: %+v (want %d devices)", sum, spec.Devices-len(want))
	}
	if sum.Classes[0].Instances != 0 || sum.Served == 0 {
		t.Fatalf("survivor summary inconsistent: %+v", sum)
	}
	for _, workers := range []int{2, 4} {
		pooled, err := poisoned(workers)
		if !errors.As(err, &pe) || len(pe.Failed) != len(want) {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(sum, pooled) {
			t.Fatalf("workers=%d: partial summary diverged:\n%+v\nvs\n%+v", workers, sum, pooled)
		}
	}
}

// TestParseFaults covers the -faults grammar.
func TestParseFaults(t *testing.T) {
	f, err := ParseFaults("mtbf=150,repair=10,fail=0.05,retries=3,backoff=0.5,outage=60/5,brownout=0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultSpec{CrashMTBF: 150, RepairMean: 10, FailProb: 0.05, RetryMax: 3,
		Backoff: 0.5, OutagePeriod: 60, OutageDuration: 5, BrownoutFrac: 0.5}
	if *f != want {
		t.Fatalf("ParseFaults = %+v, want %+v", *f, want)
	}
	if got, err2 := ParseFaults(f.String()); err2 != nil || *got != want {
		t.Fatalf("round trip %q = %+v (%v), want %+v", f.String(), got, err2, want)
	}
	if f, err = ParseFaults("outage=60"); err != nil || f.OutagePeriod != 60 || f.OutageDuration != 0 {
		t.Fatalf("bare outage period: %+v, %v", f, err)
	}
	for _, bad := range []string{"", "mtbf", "mtbf=x", "bogus=1", "retries=1.5", "outage=a/b"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Fatalf("ParseFaults(%q) accepted", bad)
		}
	}
}

// TestSpecValidateFaults covers the fault-spec validation matrix.
func TestSpecValidateFaults(t *testing.T) {
	base := func() Spec {
		return Spec{Devices: 4, Classes: DefaultMix(), Horizon: 10}
	}
	ok := base()
	ok.Faults = &FaultSpec{CrashMTBF: 100}
	if err := ok.Validate(); err != nil {
		t.Fatalf("minimal crash spec rejected: %v", err)
	}
	if ok.Faults.RepairMean != defaultRepairMean {
		t.Fatalf("repair mean default = %v, want %v", ok.Faults.RepairMean, defaultRepairMean)
	}
	ok = base()
	ok.Faults = &FaultSpec{FailProb: 0.1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("minimal retry spec rejected: %v", err)
	}
	if ok.Faults.RetryMax != defaultRetryMax || ok.Faults.Backoff != ok.Period {
		t.Fatalf("retry defaults = %+v (period %v)", ok.Faults, ok.Period)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"empty spec", func(sp *Spec) { sp.Faults = &FaultSpec{} }, "enables nothing"},
		{"negative mtbf", func(sp *Spec) { sp.Faults = &FaultSpec{CrashMTBF: -1} }, "MTBF"},
		{"bad prob", func(sp *Spec) { sp.Faults = &FaultSpec{FailProb: 1} }, "probability"},
		{"outage uncoupled", func(sp *Spec) { sp.Faults = &FaultSpec{OutagePeriod: 10} }, "couple"},
		{"outage too long", func(sp *Spec) {
			sp.Couple = CoupleChannel
			sp.Faults = &FaultSpec{OutagePeriod: 10, OutageDuration: 10}
		}, "duration"},
		{"bad brownout", func(sp *Spec) {
			sp.Couple = CouplePower
			sp.Faults = &FaultSpec{OutagePeriod: 10, BrownoutFrac: 2}
		}, "brownout"},
	}
	for _, tc := range cases {
		sp := base()
		tc.mut(&sp)
		err := sp.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}
