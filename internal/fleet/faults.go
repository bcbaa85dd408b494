package fleet

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// FaultSpec configures deterministic fault injection for a fleet run
// (Spec.Faults; nil disables the layer — a fault-free run's output is
// byte-identical to a build without the fault code). Crash and retry
// faults apply per instance from a dedicated per-instance fault rng
// lane; outage windows apply to each coupled group's shared resource.
type FaultSpec struct {
	// CrashMTBF is each instance's mean operating time between crashes
	// in seconds (exponential; 0 disables crashes).
	CrashMTBF float64
	// RepairMean is the mean repair (downtime) duration in seconds
	// (default 10 when CrashMTBF > 0).
	RepairMean float64
	// FailProb is the probability a completed service attempt fails
	// transiently, in [0, 1) (0 disables transient failures).
	FailProb float64
	// RetryMax is the per-request retry budget (default 3 when
	// FailProb > 0); failure RetryMax+1 drops the request as lost.
	RetryMax int
	// Backoff is the delay before the first retry in seconds, doubling
	// per consecutive failure (default: the governor period).
	Backoff float64
	// OutagePeriod schedules an outage window on each coupled group's
	// shared resource every OutagePeriod seconds (0 disables; > 0
	// requires Spec.Couple). The first window opens at t=OutagePeriod.
	OutagePeriod float64
	// OutageDuration is each window's length in seconds (default
	// OutagePeriod/10; must be < OutagePeriod).
	OutageDuration float64
	// BrownoutFrac scales the CouplePower cap during an outage window,
	// in (0, 1] (default 0.5). Ignored for channel/gateway coupling.
	BrownoutFrac float64
}

const (
	defaultRepairMean   = 10
	defaultRetryMax     = 3
	defaultBrownoutFrac = 0.5
)

// validate checks the fault spec against its enclosing fleet spec and
// fills defaults (mutating the receiver). period and couple are the
// enclosing spec's already-defaulted values.
func (f *FaultSpec) validate(period float64, couple CoupleMode) error {
	if f.CrashMTBF < 0 || math.IsNaN(f.CrashMTBF) || math.IsInf(f.CrashMTBF, 0) {
		return fmt.Errorf("fleet: crash MTBF %v must be >= 0 and finite", f.CrashMTBF)
	}
	if f.CrashMTBF > 0 {
		if f.RepairMean == 0 {
			f.RepairMean = defaultRepairMean
		}
		if !(f.RepairMean > 0) || math.IsInf(f.RepairMean, 0) {
			return fmt.Errorf("fleet: repair mean %v must be positive and finite", f.RepairMean)
		}
	}
	if !(f.FailProb >= 0 && f.FailProb < 1) {
		return fmt.Errorf("fleet: failure probability %v must be in [0, 1)", f.FailProb)
	}
	if f.FailProb > 0 {
		if f.RetryMax == 0 {
			f.RetryMax = defaultRetryMax
		}
		if f.RetryMax < 0 || f.RetryMax > 62 {
			return fmt.Errorf("fleet: retry budget %d must be in [1, 62] (0 takes the default)", f.RetryMax)
		}
		if f.Backoff == 0 {
			f.Backoff = period
		}
		if !(f.Backoff > 0) || math.IsInf(f.Backoff, 0) {
			return fmt.Errorf("fleet: retry backoff %v must be positive and finite", f.Backoff)
		}
	}
	if f.OutagePeriod < 0 || math.IsNaN(f.OutagePeriod) || math.IsInf(f.OutagePeriod, 0) {
		return fmt.Errorf("fleet: outage period %v must be >= 0 and finite", f.OutagePeriod)
	}
	if f.OutagePeriod > 0 {
		if couple == CoupleNone {
			return fmt.Errorf("fleet: outage windows act on the shared resource — they require a couple mode")
		}
		if f.OutageDuration == 0 {
			f.OutageDuration = f.OutagePeriod / 10
		}
		if !(f.OutageDuration > 0) || f.OutageDuration >= f.OutagePeriod {
			return fmt.Errorf("fleet: outage duration %v must be in (0, period %v)", f.OutageDuration, f.OutagePeriod)
		}
		if f.BrownoutFrac == 0 {
			f.BrownoutFrac = defaultBrownoutFrac
		}
		if !(f.BrownoutFrac > 0 && f.BrownoutFrac <= 1) {
			return fmt.Errorf("fleet: brownout fraction %v must be in (0, 1]", f.BrownoutFrac)
		}
	} else if f.OutageDuration != 0 {
		return fmt.Errorf("fleet: outage duration %v set without an outage period", f.OutageDuration)
	}
	if f.CrashMTBF == 0 && f.FailProb == 0 && f.OutagePeriod == 0 {
		return fmt.Errorf("fleet: fault spec enables nothing (set mtbf, fail, or outage)")
	}
	return nil
}

// crashOrRetry reports whether the spec enables any per-instance fault
// (as opposed to outage windows only, which live on the shared
// resource and need no per-instance fault state).
func (f *FaultSpec) crashOrRetry() bool {
	return f != nil && (f.CrashMTBF > 0 || f.FailProb > 0)
}

// ParseFaults parses the qdpm-fleet -faults value: comma-separated
// key=value pairs, e.g.
//
//	mtbf=150,repair=10,fail=0.05,retries=3,backoff=0.5,outage=60/5,brownout=0.5
//
// Keys: mtbf (crash MTBF s), repair (mean repair s), fail (transient
// failure probability), retries (retry budget), backoff (first-retry
// delay s), outage (window period s, optionally period/duration),
// brownout (power-cap fraction during windows). Unset keys take the
// FaultSpec defaults (filled in by Spec.Validate, so the result
// round-trips through String). Values are checked here against a
// coupled spec, so an accepted string fails Spec.Validate only for a
// reason that is the enclosing spec's: outage windows without a couple
// mode.
func ParseFaults(s string) (*FaultSpec, error) {
	f := &FaultSpec{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fleet: -faults term %q is not key=value", part)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "retries":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("fleet: -faults retries %q: %w", val, err)
			}
			f.RetryMax = n
		case "outage":
			per, dur, found := strings.Cut(val, "/")
			v, err := strconv.ParseFloat(per, 64)
			if err != nil {
				return nil, fmt.Errorf("fleet: -faults outage period %q: %w", per, err)
			}
			f.OutagePeriod = v
			if found {
				if v, err = strconv.ParseFloat(dur, 64); err != nil {
					return nil, fmt.Errorf("fleet: -faults outage duration %q: %w", dur, err)
				}
				f.OutageDuration = v
			}
		case "mtbf", "repair", "fail", "backoff", "brownout":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("fleet: -faults %s %q: %w", key, val, err)
			}
			switch key {
			case "mtbf":
				f.CrashMTBF = v
			case "repair":
				f.RepairMean = v
			case "fail":
				f.FailProb = v
			case "backoff":
				f.Backoff = v
			case "brownout":
				f.BrownoutFrac = v
			}
		default:
			return nil, fmt.Errorf("fleet: -faults key %q unknown (want mtbf, repair, fail, retries, backoff, outage, brownout)", key)
		}
	}
	probe := *f
	if err := probe.validate(defaultPeriod, CoupleChannel); err != nil {
		return nil, err
	}
	return f, nil
}

// String renders the spec in ParseFaults form (round-trippable).
func (f *FaultSpec) String() string {
	var b strings.Builder
	add := func(k string, v float64) {
		if v != 0 {
			if b.Len() > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%g", k, v)
		}
	}
	add("mtbf", f.CrashMTBF)
	add("repair", f.RepairMean)
	add("fail", f.FailProb)
	if f.RetryMax != 0 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "retries=%d", f.RetryMax)
	}
	add("backoff", f.Backoff)
	if f.OutagePeriod != 0 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if f.OutageDuration != 0 {
			fmt.Fprintf(&b, "outage=%g/%g", f.OutagePeriod, f.OutageDuration)
		} else {
			fmt.Fprintf(&b, "outage=%g", f.OutagePeriod)
		}
	}
	add("brownout", f.BrownoutFrac)
	return b.String()
}
