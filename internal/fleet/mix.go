package fleet

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/slotsim"
)

// policies lists the policy names a Class may use. "timeout" and
// "adaptive-timeout" accept a numeric parameter after '=' (slots):
// timeout=8 parks after 8 idle slots.
var policies = []string{"always-on", "greedy-off", "timeout", "adaptive-timeout", "predictive", "q-dpm"}

// parsePolicy splits a policy token into name and optional '=' parameter
// and validates both. The parameter is timeout's idle timeout or
// adaptive-timeout's initial one in slots (registry.DefaultTimeoutSlots
// when absent): it must be a whole number that fits in an int64 (and lie
// within the adaptive bounds for adaptive-timeout and at most
// slotsim.IdleSaturation for timeout), so every accepted token builds
// the policy its label names.
func parsePolicy(tok string) (name string, timeoutSlots int64, err error) {
	name, slots := tok, float64(registry.DefaultTimeoutSlots)
	if i := strings.IndexByte(tok, '='); i >= 0 {
		name = tok[:i]
		slots, err = strconv.ParseFloat(tok[i+1:], 64)
		if err != nil || !(slots >= 0 && slots < 1<<63) || slots != math.Trunc(slots) {
			return "", 0, fmt.Errorf("fleet: bad policy parameter in %q (want a whole slot count in [0, 2^63))", tok)
		}
		if name == "adaptive-timeout" && (slots < registry.AdaptiveMinSlots || slots > registry.AdaptiveMaxSlots) {
			return "", 0, fmt.Errorf("fleet: bad policy parameter in %q (want an initial timeout in [%d, %d] slots)",
				tok, registry.AdaptiveMinSlots, registry.AdaptiveMaxSlots)
		}
		if name == "timeout" && slots > slotsim.IdleSaturation {
			return "", 0, fmt.Errorf("fleet: bad policy parameter in %q (want a timeout of at most %d slots, the idle-slot cap: a longer one never fires)",
				tok, slotsim.IdleSaturation)
		}
	}
	if !slices.Contains(policies, name) {
		return "", 0, fmt.Errorf("fleet: unknown policy %q (want %s)", tok, strings.Join(policies, ", "))
	}
	return name, int64(slots), nil
}

// policyReset derives the per-instance reset for a pooled policy: the
// Q-DPM learner rebinds its exploration stream; the classical policies
// restore their (possibly empty) adaptive state and ignore the stream.
// Reset-then-run is bit-identical to constructing fresh, which is what
// keeps instance turnover allocation-free.
func policyReset(pol slotsim.Policy) (func(*rng.Stream), error) {
	switch p := pol.(type) {
	case *core.Manager:
		return p.Reset, nil
	case interface{ Reset() }:
		return func(*rng.Stream) { p.Reset() }, nil
	default:
		return nil, fmt.Errorf("fleet: policy %s is not resettable", pol.Name())
	}
}

// ParseMix parses a fleet mix string: comma-separated classes of the
// form
//
//	device:dist:rate:policy[:weight]
//
// where device is a catalog name (device.Lookup), dist a dist.ByName
// key, rate the arrival rate in requests/second, policy one of
// always-on, greedy-off, timeout, adaptive-timeout, predictive and q-dpm
// (optionally parameterized, e.g. timeout=8), and weight the class's
// integer share of instances (default 1). Example:
//
//	hdd:exp:0.08:timeout=8:2,wlan:hyperexp:2:q-dpm:1
func ParseMix(s string) ([]Class, error) {
	var out []Class
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f := strings.Split(part, ":")
		if len(f) != 4 && len(f) != 5 {
			return nil, fmt.Errorf("fleet: mix entry %q: want device:dist:rate:policy[:weight]", part)
		}
		dev, err := device.Lookup(f[0])
		if err != nil {
			return nil, fmt.Errorf("fleet: mix entry %q: %w", part, err)
		}
		rate, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("fleet: mix entry %q: bad rate %q", part, f[2])
		}
		c := Class{Device: dev, Dist: f[1], RatePerSec: rate, Policy: f[3], Weight: 1}
		if len(f) == 5 {
			w, err := strconv.Atoi(f[4])
			if err != nil || w < 1 {
				return nil, fmt.Errorf("fleet: mix entry %q: bad weight %q", part, f[4])
			}
			c.Weight = w
		}
		if err := c.validate(len(out)); err != nil {
			return nil, fmt.Errorf("fleet: mix entry %q: %w", part, err)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fleet: empty mix")
	}
	if err := checkTotalWeight(out); err != nil {
		return nil, err
	}
	return out, nil
}

// DefaultMix returns the canonical heterogeneous fleet: laptop disks
// under sparse Poisson traffic with a fixed timeout, WLAN NICs under
// bursty hyperexponential traffic and sensor radios under heavy-tailed
// Pareto traffic (both learning), and the paper's synthetic3 device
// under its canonical load split between the learner and the greedy
// baseline.
func DefaultMix() []Class {
	mk := func(name, dist string, rate float64, pol string, weight int) Class {
		dev, err := device.Lookup(name)
		if err != nil {
			panic("fleet: default mix device: " + err.Error())
		}
		return Class{Device: dev, Dist: dist, RatePerSec: rate, Policy: pol, Weight: weight}
	}
	return []Class{
		mk("hdd", "exp", 0.08, "timeout=8", 2),
		mk("wlan", "hyperexp", 2, "q-dpm", 2),
		mk("sensor-radio", "pareto", 5, "greedy-off", 1),
		mk("synthetic3", "exp", 0.2, "q-dpm", 3),
	}
}
