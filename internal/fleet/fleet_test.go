package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/slotsim"
	"repro/internal/stats"
)

// testSpec returns a small but heterogeneous fleet spec that runs in
// well under a second.
func testSpec() fleet.Spec {
	return fleet.Spec{
		Devices:   37,
		Classes:   fleet.DefaultMix(),
		Horizon:   60,
		ShardSize: 5,
		Seed:      42,
	}
}

// TestRunBitIdenticalAcrossPoolSizes pins the fleet determinism
// contract: the merged summary — accumulator bits, per-class stats,
// sketch bin counts, wait order — is identical for every worker count,
// in both quantile modes.
func TestRunBitIdenticalAcrossPoolSizes(t *testing.T) {
	for _, quant := range []fleet.QuantileMode{fleet.QuantilesSketch, fleet.QuantilesExact} {
		spec := testSpec()
		spec.Quantiles = quant
		serial, err := fleet.Run(context.Background(), spec, &engine.Pool{Workers: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", quant, err)
		}
		for _, workers := range []int{2, 4, 16} {
			pooled, err := fleet.Run(context.Background(), spec, &engine.Pool{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", quant, workers, err)
			}
			if !reflect.DeepEqual(serial, pooled) {
				t.Fatalf("%s: summary differs between 1 and %d workers:\n%+v\nvs\n%+v",
					quant, workers, serial, pooled)
			}
		}
		if serial.Devices != int64(spec.Devices) {
			t.Fatalf("%s: %d devices simulated, want %d", quant, serial.Devices, spec.Devices)
		}
		if serial.Shards != (spec.Devices+spec.ShardSize-1)/spec.ShardSize {
			t.Fatalf("%s: %d shards, want %d", quant, serial.Shards, spec.Shards())
		}
		if serial.WaitSketch.N() != int64(spec.Devices) {
			t.Fatalf("%s: sketch pooled %d instances, want %d", quant, serial.WaitSketch.N(), spec.Devices)
		}
		if quant == fleet.QuantilesExact {
			if len(serial.Waits) != spec.Devices {
				t.Fatalf("%s: %d waits recorded, want %d", quant, len(serial.Waits), spec.Devices)
			}
		} else if serial.Waits != nil {
			t.Fatalf("%s: sketch mode retained a per-instance wait vector (%d entries)", quant, len(serial.Waits))
		}
		if serial.Events == 0 || serial.Arrived == 0 {
			t.Fatalf("%s: fleet simulated nothing: %+v", quant, serial)
		}
	}
}

// TestRunIndependentOfShardSize: the shard decomposition shapes the
// merge tree, so accumulator bits may differ legally across shard
// sizes — but exact totals (counts, per-instance wait values in
// instance order) must not, and pooled moments must agree to float
// tolerance.
func TestRunIndependentOfShardSize(t *testing.T) {
	a := testSpec()
	a.Quantiles = fleet.QuantilesExact
	b := testSpec()
	b.Quantiles = fleet.QuantilesExact
	b.ShardSize = 37 // single shard: the purely sequential reduction
	sa, err := fleet.Run(context.Background(), a, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := fleet.Run(context.Background(), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Arrived != sb.Arrived || sa.Served != sb.Served || sa.Lost != sb.Lost || sa.Events != sb.Events {
		t.Fatalf("totals differ across shard sizes: %+v vs %+v", sa, sb)
	}
	if !reflect.DeepEqual(sa.Waits, sb.Waits) {
		t.Fatal("per-instance wait order differs across shard sizes")
	}
	if d := math.Abs(sa.AvgPowerW.Mean() - sb.AvgPowerW.Mean()); d > 1e-12 {
		t.Fatalf("pooled power mean differs across shard sizes by %g", d)
	}
	// The sketch's integer bin counts are exactly associative, so sketch
	// quantiles are bit-identical even across shard sizes (a stronger
	// property than the float accumulators give).
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		qa, err := sa.WaitSketch.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		qb, err := sb.WaitSketch.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if qa != qb {
			t.Fatalf("sketch quantile(%v) differs across shard sizes: %v vs %v", q, qa, qb)
		}
	}
}

// TestSketchQuantilesWithinBoundOfExact audits the sketch against exact
// order statistics on a mixed fleet: an exact-mode run carries both, and
// every sketch percentile must sit within the documented
// WaitSketchAccuracy relative bound of the order statistics bracketing
// the same rank.
func TestSketchQuantilesWithinBoundOfExact(t *testing.T) {
	spec := testSpec()
	spec.Devices = 600
	spec.Horizon = 30
	spec.Quantiles = fleet.QuantilesExact
	sum, err := fleet.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), sum.Waits...)
	sort.Float64s(sorted)
	n := len(sorted)
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.95, 0.99, 1} {
		est, err := sum.WaitSketch.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		pos := q * float64(n-1)
		lo := sorted[int(math.Floor(pos))]
		hi := sorted[int(math.Ceil(pos))]
		a := fleet.WaitSketchAccuracy
		if est < lo*(1-a)-1e-12 || est > hi*(1+a)+1e-12 {
			t.Errorf("sketch quantile(%v) = %v outside [%v, %v] ± %.0f%%", q, est, lo, hi, 100*a)
		}
	}
	// The exact path must agree with a direct order-statistic
	// computation (it is the same data).
	p50, err := sum.WaitQuantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stats.Quantile(sum.Waits, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p50 != want {
		t.Fatalf("exact-mode WaitQuantile %v != stats.Quantile %v", p50, want)
	}
}

// TestInstanceMatchesExperimentCTReplica pins the cross-layer contract:
// a single-class CT fleet instance with seed s is bit-identical to an
// experiment-layer CT replica built from the same ingredients — the
// fleet layer adds sharding, not semantics. The faulted case pins the
// fault stream, the third split of the instance seed, which both layers
// write.
func TestInstanceMatchesExperimentCTReplica(t *testing.T) {
	dev, err := experiment.CanonDevice()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		policy string
		pf     experiment.PolicyFactory
		faults *fleet.FaultSpec
		ct     *ctsim.Faults
	}{
		{name: "timeout", policy: "timeout=8", pf: experiment.Factory("timeout", dev, 8)},
		{
			name:   "q-dpm-faulted",
			policy: "q-dpm",
			pf:     experiment.Factory("q-dpm", dev, 0),
			faults: &fleet.FaultSpec{CrashMTBF: 300, RepairMean: 5, FailProb: 0.05},
			ct:     &ctsim.Faults{CrashMTBF: 300, RepairMean: 5, FailProb: 0.05, RetryMax: 3, Backoff: 0.5},
		},
	} {
		var crashes, retries int64
		for _, base := range []uint64{7, 8, 9} {
			psm := device.Synthetic3()
			cls := fleet.Class{Device: psm, Dist: "exp", RatePerSec: 0.2, Policy: tc.policy}
			spec := fleet.Spec{
				Devices: 1,
				Classes: []fleet.Class{cls},
				Horizon: 500,
				Seed:    base,
				Faults:  tc.faults,
			}
			sum, err := fleet.Run(context.Background(), spec, nil)
			if err != nil {
				t.Fatal(err)
			}

			sc := experiment.CTScenario{
				Name:          "one",
				Device:        psm,
				QueueCap:      experiment.CanonQueueCap,
				LatencyWeight: experiment.CanonLatencyWeight / experiment.CanonSlotSeconds,
				Horizon:       500,
				Period:        experiment.CanonSlotSeconds,
				Source: func() ctsim.Source {
					d, err := dist.ByName("exp", 0.2)
					if err != nil {
						t.Fatal(err)
					}
					src, err := ctsim.NewRenewalSource(d)
					if err != nil {
						t.Fatal(err)
					}
					return src
				},
				Faults: tc.ct,
			}
			m, err := experiment.RunCTOneCtx(context.Background(), sc, tc.pf, engine.SeedFor(base, 0))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sum.AvgPowerW.Mean(), m.AvgPowerW(); got != want {
				t.Fatalf("%s seed %d: fleet instance power %v != experiment replica power %v", tc.name, base, got, want)
			}
			if got, want := sum.MeanWaitSec.Mean(), m.MeanWaitSeconds(); got != want {
				t.Fatalf("%s seed %d: fleet instance wait %v != experiment replica wait %v", tc.name, base, got, want)
			}
			if sum.Arrived != m.Arrived || sum.Served != m.Served || sum.Lost != m.Lost ||
				sum.Crashes != m.Crashes || sum.Retries != m.Retries {
				t.Fatalf("%s seed %d: fleet instance counts %+v != experiment replica counts %+v", tc.name, base, sum, m)
			}
			crashes += m.Crashes
			retries += m.Retries
		}
		if tc.faults != nil && (crashes == 0 || retries == 0) {
			t.Fatalf("%s: faulted replicas saw %d crashes and %d retries, want some of each", tc.name, crashes, retries)
		}
	}
}

// TestWeightedClassAssignment: instances spread across classes by
// weighted round-robin, exactly.
func TestWeightedClassAssignment(t *testing.T) {
	spec := testSpec()
	spec.Devices = 16 // 2 full weight cycles (total weight 8)
	spec.Horizon = 20
	sum, err := fleet.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantPerCycle := []int64{2, 2, 1, 3} // DefaultMix weights
	for ci, c := range sum.Classes {
		if c.Instances != 2*wantPerCycle[ci] {
			t.Fatalf("class %d (%s) got %d instances, want %d", ci, c.Name, c.Instances, 2*wantPerCycle[ci])
		}
	}
}

// TestSummaryDerivedMetrics: quantiles, per-policy rollups, and the
// fleet-total power are well-formed and internally consistent, and the
// embedded fleet-wide ClassStats agrees with the per-class breakdown —
// uncoupled, and coupled with faults (gateway drops, budget denials,
// crashes, retries, outage losses).
func TestSummaryDerivedMetrics(t *testing.T) {
	faults := func() *fleet.FaultSpec {
		return &fleet.FaultSpec{CrashMTBF: 30, RepairMean: 4, FailProb: 0.1, OutagePeriod: 20, OutageDuration: 3}
	}
	specs := map[string]fleet.Spec{"uncoupled": testSpec()}
	for _, couple := range []fleet.CoupleMode{fleet.CoupleGateway, fleet.CouplePower} {
		spec := testSpec()
		spec.Couple, spec.ShardSize, spec.CoupleSize, spec.Faults = couple, 20, 20, faults()
		specs[string(couple)+"+faults"] = spec
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			sum, err := fleet.Run(context.Background(), spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			p50, err := sum.WaitQuantile(0.5)
			if err != nil {
				t.Fatal(err)
			}
			p99, err := sum.WaitQuantile(0.99)
			if err != nil {
				t.Fatal(err)
			}
			if p50 < 0 || p99 < p50 {
				t.Fatalf("wait quantiles disordered: p50=%v p99=%v", p50, p99)
			}
			perPol := sum.PerPolicy()
			var n int64
			for _, g := range perPol {
				n += g.Instances
			}
			if n != sum.Devices {
				t.Fatalf("per-policy rollup covers %d instances, want %d", n, sum.Devices)
			}
			// DefaultMix uses 3 distinct policies.
			if len(perPol) != 3 {
				t.Fatalf("per-policy rollup has %d groups, want 3", len(perPol))
			}
			if got, want := sum.AvgFleetPowerW(), sum.EnergyJ/(float64(sum.Devices)*sum.HorizonSec); got != want {
				t.Fatalf("AvgFleetPowerW %v inconsistent with totals %v", got, want)
			}
			if sum.Devices != sum.Instances || sum.Devices != int64(spec.Devices) {
				t.Fatalf("Devices %d, Instances %d, spec %d", sum.Devices, sum.Instances, spec.Devices)
			}
			counters := func(c *fleet.ClassStats) [6]int64 {
				return [6]int64{c.ResourceDrops, c.BudgetDenied, c.Crashes, c.Retries, c.RetryExhausted, c.LostToOutage}
			}
			var perClass [6]int64
			for i := range sum.Classes {
				for k, v := range counters(&sum.Classes[i]) {
					perClass[k] += v
				}
			}
			if fleetWide := counters(&sum.ClassStats); fleetWide != perClass {
				t.Fatalf("fleet-wide counters %v, per-class sums %v", fleetWide, perClass)
			}
			for _, r := range []*stats.Running{&sum.AvgPowerW, &sum.EnergyReduction, &sum.MeanWaitSec,
				&sum.LossRate, &sum.ResourceWaitSec, &sum.DowntimeSec} {
				if r.N() != sum.Devices {
					t.Fatalf("a fleet-wide accumulator pools %d samples, want %d", r.N(), sum.Devices)
				}
			}
			if spec.Faults != nil && (sum.Crashes == 0 || sum.Retries == 0 || sum.LostToOutage == 0 ||
				sum.ResourceDrops+sum.BudgetDenied == 0) {
				t.Fatalf("coupled faulted spec exercised too little: counters %v", counters(&sum.ClassStats))
			}
		})
	}
}

// TestRunCancellation: a cancelled context aborts the fleet promptly
// with the context error, uncoupled and coupled alike (one group loop
// serves both).
func TestRunCancellation(t *testing.T) {
	for _, couple := range []fleet.CoupleMode{fleet.CoupleNone, fleet.CoupleChannel} {
		spec := testSpec()
		spec.Devices = 64
		spec.Horizon = 1e7 // far too long to finish
		if couple != fleet.CoupleNone {
			spec.Couple, spec.CoupleSize = couple, spec.ShardSize
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := fleet.Run(ctx, spec, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("couple %q: cancelled fleet run returned %v, want context.Canceled", couple, err)
		}
	}
}

// TestRunCancellationWhileRunning cancels the context from the progress
// callback once the first shard has folded, while the next shards are
// still running. Run must return context.Canceled and a nil summary —
// never a *PartialError listing the canceled shards as failures.
func TestRunCancellationWhileRunning(t *testing.T) {
	for _, couple := range []fleet.CoupleMode{fleet.CoupleNone, fleet.CoupleChannel} {
		for _, workers := range []int{1, 2, 4} {
			spec := testSpec()
			spec.Devices, spec.ShardSize = 400, 8
			if couple != fleet.CoupleNone {
				spec.Couple, spec.CoupleSize = couple, 4
			}
			ctx, cancel := context.WithCancel(context.Background())
			folded := 0
			pool := &engine.Pool{Workers: workers, Progress: func(done, _ int) {
				folded = done
				cancel()
			}}
			sum, err := fleet.Run(ctx, spec, pool)
			cancel()
			var pe *fleet.PartialError
			if !errors.Is(err, context.Canceled) || errors.As(err, &pe) || sum != nil {
				t.Fatalf("couple %q workers=%d: got (%v, %v), want (nil, context.Canceled)", couple, workers, sum, err)
			}
			if folded == 0 || folded >= spec.Shards() {
				t.Fatalf("couple %q workers=%d: %d of %d shards folded, want a run canceled midway", couple, workers, folded, spec.Shards())
			}
		}
	}
}

// TestSpecSizesNearMaxInt: shard and couple sizes near MaxInt neither
// wrap the shard count nor size anything by them — a five-device fleet
// runs as one shard, and a coupled one allocates five lanes, not
// CoupleSize.
func TestSpecSizesNearMaxInt(t *testing.T) {
	for _, tc := range []struct {
		couple       fleet.CoupleMode
		shard, group int
	}{
		{fleet.CoupleNone, math.MaxInt, 0},
		{fleet.CoupleChannel, math.MaxInt, math.MaxInt},
		{fleet.CoupleChannel, 0, math.MaxInt}, // defaulted shard rounds up to the group
	} {
		spec := testSpec()
		spec.Devices, spec.Horizon = 5, 10
		spec.Couple, spec.ShardSize, spec.CoupleSize = tc.couple, tc.shard, tc.group
		sum, err := fleet.Run(context.Background(), spec, nil)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if sum.Shards != 1 || sum.Devices != 5 {
			t.Fatalf("%+v: %d shards, %d devices; want 1 shard of 5", tc, sum.Shards, sum.Devices)
		}
	}
}

// TestSpecValidateTotalWeight: the summed class weight is bounded, and
// the check cannot be dodged by overflowing the sum.
func TestSpecValidateTotalWeight(t *testing.T) {
	for _, weights := range [][]int{{1 << 17}, {1 << 15, 1<<15 + 1}, {1, math.MaxInt}} {
		spec := testSpec()
		spec.Classes = spec.Classes[:len(weights)]
		for i, w := range weights {
			spec.Classes[i].Weight = w
		}
		if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "weight") {
			t.Fatalf("weights %v: err = %v, want a total-weight error", weights, err)
		}
	}
}

// TestParseMix covers the mix grammar.
func TestParseMix(t *testing.T) {
	classes, err := fleet.ParseMix("hdd:exp:0.08:timeout=8:2, wlan:hyperexp:2:q-dpm")
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 {
		t.Fatalf("parsed %d classes, want 2", len(classes))
	}
	if classes[0].Device.Name != "hdd" || classes[0].Weight != 2 || classes[0].Policy != "timeout=8" {
		t.Fatalf("class 0 misparsed: %+v", classes[0])
	}
	if classes[1].Weight != 1 {
		t.Fatalf("default weight not applied: %+v", classes[1])
	}
	for _, bad := range []string{
		"",
		"hdd:exp:0.08",                                      // too few fields
		"nosuch:exp:0.1:timeout",                            // unknown device
		"hdd:nosuch:0.1:timeout",                            // unknown dist
		"hdd:exp:zero:timeout",                              // bad rate
		"hdd:exp:0.1:nosuch",                                // unknown policy
		"hdd:exp:0.1:timeout=-3",                            // bad parameter
		"hdd:exp:0.1:timeout:0",                             // bad weight
		"hdd:exp:0.1:timeout:1:extra-field",                 // too many fields
		"hdd:exp:0.08:timeout=Inf",                          // parameter not finite
		"hdd:exp:0.08:timeout=1e300",                        // parameter overflows int64
		"hdd:exp:0.08:adaptive-timeout=200",                 // outside the adaptive bounds
		"hdd:exp:0.08:timeout:10000000000",                  // total weight too large
		"hdd:exp:0.08:timeout:40000,wlan:exp:1:q-dpm:40000", // total weight too large
		"synthetic3:erlang:1e308:always-on",                 // phase rate 3·rate overflows
		"hdd:exp:1e-310:timeout",                            // mean 1/rate overflows
	} {
		if _, err := fleet.ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted invalid mix", bad)
		}
	}
	// A fractional slot count is rejected, naming its token, rather than
	// truncated under a label that still shows the fraction.
	for _, tok := range []string{"timeout=8.5", "adaptive-timeout=4.5"} {
		if _, err := fleet.ParseMix("synthetic3:exp:0.1:" + tok); err == nil || !strings.Contains(err.Error(), tok) {
			t.Errorf("ParseMix with %s: err = %v, want one naming the token", tok, err)
		}
	}
}

// TestTimeoutAboveIdleCapRejected: a fixed timeout longer than the
// idle-slot cap (slotsim.IdleSaturation) never fires, so a mix asking for
// one is rejected naming the cap — by ParseMix and, for a class built in
// code, by Run — while a timeout at the cap runs.
func TestTimeoutAboveIdleCapRejected(t *testing.T) {
	const mix = "synthetic3:exp:0.0004:timeout=2000"
	want := fmt.Sprintf("at most %d slots", slotsim.IdleSaturation)
	if _, err := fleet.ParseMix(mix); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("ParseMix(%q): err = %v, want one containing %q", mix, err, want)
	}
	atCap, err := fleet.ParseMix(fmt.Sprintf("synthetic3:exp:0.0004:timeout=%d", slotsim.IdleSaturation))
	if err != nil {
		t.Fatalf("timeout at the cap rejected: %v", err)
	}
	spec := fleet.Spec{Devices: 4, Classes: atCap, Horizon: 10}
	if _, err := fleet.Run(context.Background(), spec, nil); err != nil {
		t.Fatalf("timeout at the cap: %v", err)
	}
	spec.Classes[0].Policy = "timeout=2000"
	if _, err := fleet.Run(context.Background(), spec, nil); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Run with timeout=2000: err = %v, want one containing %q", err, want)
	}
}

// TestSpecValidate covers default filling and rejection.
func TestSpecValidate(t *testing.T) {
	sp := fleet.Spec{Devices: 10, Classes: fleet.DefaultMix(), Horizon: 100}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Period != 0.5 || sp.QueueCap != 8 || sp.ShardSize == 0 {
		t.Fatalf("defaults not filled: %+v", sp)
	}
	if sp.Quantiles != fleet.QuantilesSketch {
		t.Fatalf("quantile default %q, want %q", sp.Quantiles, fleet.QuantilesSketch)
	}
	bad := []fleet.Spec{
		{Devices: 10, Classes: fleet.DefaultMix(), Horizon: 100, Quantiles: "approximate"},
		{Devices: 0, Classes: fleet.DefaultMix(), Horizon: 100},
		{Devices: 10, Horizon: 100},
		{Devices: 10, Classes: fleet.DefaultMix(), Horizon: 0},
		{Devices: 10, Classes: fleet.DefaultMix(), Horizon: 100, Period: -1},
		{Devices: 10, Classes: fleet.DefaultMix(), Horizon: 100, QueueCap: -1},
		{Devices: 10, Classes: fleet.DefaultMix(), Horizon: 100, QueueCap: 1e9},
		{Devices: 10, Classes: fleet.DefaultMix(), Horizon: 100, ShardSize: -1},
		{Devices: 10, Classes: []fleet.Class{{Device: device.HDD(), Dist: "exp", RatePerSec: -1, Policy: "timeout"}}, Horizon: 100},
		{Devices: 1, Classes: []fleet.Class{{Device: device.Synthetic3(), Dist: "erlang", RatePerSec: 1e308, Policy: "always-on"}}, Horizon: 1},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Fatalf("spec %d accepted: %+v", i, bad[i])
		}
	}
}
