// Package registry maps each policy name to the one configuration it
// stands for: a constructor over Args and the largest queue capacity
// that constructor accepts. The experiments, the fleet and qdpm-sim all
// build named policies here, so "q-dpm" (or "timeout") is the same
// learner (or rule) in every figure, table, mix and run.
//
// Constructors return the concrete policy (*core.Manager,
// *stochpm.Adaptive or one of package policy's types), never a wrapper:
// callers type-switch on it to reset pooled policies and to read
// per-layer counters.
package registry

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mdp"
	"repro/internal/policy"
	"repro/internal/qlearn"
	"repro/internal/rng"
	"repro/internal/slotsim"
	"repro/internal/stochpm"
)

// Args carries every parameter a constructor may read; each constructor
// ignores the fields it has no use for.
type Args struct {
	Device        *device.Slotted
	QueueCap      int
	LatencyWeight float64 // J per request-slot
	Rate          float64 // arrival probability per slot: optimal's model, adaptive-lp's start
	TimeoutSlots  int64   // timeout's idle timeout, adaptive-timeout's initial one
	Stream        *rng.Stream
}

// DefaultTimeoutSlots is the idle timeout a timeout policy gets when
// none is given.
const DefaultTimeoutSlots = 8

// The adaptive timeout's bounds in slots; its initial value must lie
// within them.
const (
	AdaptiveMinSlots = 1
	AdaptiveMaxSlots = 128
)

// Queue-capacity bounds. The slotted simulator allocates its queue ring
// at the full cap (512 KiB at ringCap), a q-dpm Q-table has a row per
// (power state, queue level, idle level) — qTableCap is qdpm-fleet's
// bound on every policy — and optimal and adaptive-lp build a model over
// the queue states, so an unchecked cap (say 1e9) runs out of memory
// before the first slot.
const (
	ringCap   = 1 << 16
	qTableCap = 4096
	lpCap     = 256
)

// Entry is one registered policy.
type Entry struct {
	// Name is the policy's name in flags, mixes and reports.
	Name string
	// Shared marks a policy that keeps no per-run state and whose build
	// solves a model: one built value may serve every replica.
	Shared      bool
	maxQueueCap int // the largest Args.QueueCap Build accepts
	build       func(Args) (slotsim.Policy, error)
}

// CheckQueueCap rejects a queue capacity above the entry's bound.
func (e Entry) CheckQueueCap(qcap int) error {
	if qcap > e.maxQueueCap {
		return fmt.Errorf("queue capacity %d above %d for policy %s", qcap, e.maxQueueCap, e.Name)
	}
	return nil
}

// Build constructs the policy from a after checking its queue capacity.
func (e Entry) Build(a Args) (slotsim.Policy, error) {
	if err := e.CheckQueueCap(a.QueueCap); err != nil {
		return nil, err
	}
	return e.build(a)
}

// QDPM returns the constructor of the converging Q-DPM configuration
// that "q-dpm" names — ε-greedy exploration decaying from 0.3 to 0.002
// over 30k decisions and the polynomial learning rate 0.5/n^0.65, which
// let the learner settle onto the optimal policy (Fig. 1) — with mut
// (if non-nil) applied to it: the q-dpm variants, the ablations and
// Fig. 2's tracking override.
func QDPM(mut func(*core.Config)) func(Args) (slotsim.Policy, error) {
	return func(a Args) (slotsim.Policy, error) {
		cfg := core.Config{
			Device:        a.Device,
			QueueCap:      a.QueueCap,
			LatencyWeight: a.LatencyWeight,
			Explore:       qlearn.EpsGreedy{Eps: 0.3, MinEps: 0.002, DecayTau: 30000},
			Alpha:         qlearn.Polynomial{Scale: 0.5, Omega: 0.65},
			Stream:        a.Stream,
		}
		if mut != nil {
			mut(&cfg)
		}
		return core.New(cfg)
	}
}

// AdaptiveLP returns the constructor of the model-based adaptive
// baseline that "adaptive-lp" names — a 512-slot sliding-window
// estimator, the CUSUM mode-switch controller and an LP re-solve on
// every detected change, starting from Args.Rate — with
// optimizeLatencySlots of policy freeze per re-solve ("adaptive-lp" has
// none).
func AdaptiveLP(optimizeLatencySlots int) func(Args) (slotsim.Policy, error) {
	return func(a Args) (slotsim.Policy, error) {
		return stochpm.NewAdaptive(stochpm.AdaptiveConfig{
			Device:               a.Device,
			QueueCap:             a.QueueCap,
			LatencyWeight:        a.LatencyWeight,
			InitialRate:          a.Rate,
			OptimizeLatencySlots: optimizeLatencySlots,
			Stream:               a.Stream,
		})
	}
}

// Optimal solves the exact model at arrival rate a.Rate by relative
// value iteration and returns the policy that "optimal" names together
// with its average cost per slot (the gain).
func Optimal(a Args) (*policy.Optimal, float64, error) {
	d, err := mdp.BuildDPM(mdp.DPMConfig{
		Device: a.Device, ArrivalP: a.Rate, QueueCap: a.QueueCap, LatencyWeight: a.LatencyWeight,
	})
	if err != nil {
		return nil, 0, err
	}
	res, err := d.AverageCostRVI(1e-8, 500000)
	if err != nil {
		return nil, 0, err
	}
	opt, err := policy.NewOptimal(d, res.Policy)
	return opt, res.Gain, err
}

// entries is the registry, in the order Names reports.
var entries = []Entry{
	{Name: "q-dpm", maxQueueCap: qTableCap, build: QDPM(nil)},
	{Name: "q-dpm-sarsa", maxQueueCap: qTableCap,
		build: QDPM(func(c *core.Config) { c.Rule = qlearn.SARSA })},
	{Name: "q-dpm-double", maxQueueCap: qTableCap,
		build: QDPM(func(c *core.Config) { c.Rule = qlearn.DoubleQ })},
	{Name: "q-dpm-fuzzy", maxQueueCap: qTableCap,
		build: QDPM(func(c *core.Config) { c.Fuzzy = true })},
	{Name: "q-dpm-qos", maxQueueCap: qTableCap,
		build: QDPM(func(c *core.Config) { c.QoS = &core.QoSConfig{TargetBacklog: 0.5, Eta: 0.05} })},
	{Name: "optimal", maxQueueCap: lpCap, Shared: true,
		build: func(a Args) (slotsim.Policy, error) {
			opt, _, err := Optimal(a)
			return opt, err
		}},
	{Name: "adaptive-lp", maxQueueCap: lpCap, build: AdaptiveLP(0)},
	{Name: "always-on", maxQueueCap: ringCap,
		build: func(a Args) (slotsim.Policy, error) { return policy.NewAlwaysOn(a.Device) }},
	{Name: "greedy-off", maxQueueCap: ringCap,
		build: func(a Args) (slotsim.Policy, error) { return policy.NewGreedyOff(a.Device) }},
	{Name: "timeout", maxQueueCap: ringCap,
		build: func(a Args) (slotsim.Policy, error) { return policy.NewFixedTimeout(a.Device, a.TimeoutSlots) }},
	{Name: "adaptive-timeout", maxQueueCap: ringCap,
		build: func(a Args) (slotsim.Policy, error) {
			return policy.NewAdaptiveTimeout(a.Device, a.TimeoutSlots, AdaptiveMinSlots, AdaptiveMaxSlots)
		}},
	{Name: "predictive", maxQueueCap: ringCap,
		build: func(a Args) (slotsim.Policy, error) { return policy.NewPredictive(a.Device) }},
}

// Names returns every registered policy name.
func Names() []string {
	names := make([]string, len(entries))
	for i := range entries {
		names[i] = entries[i].Name
	}
	return names
}

// Lookup returns the entry registered under name.
func Lookup(name string) (Entry, error) {
	for _, e := range entries {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("unknown policy %q (want %s)", name, strings.Join(Names(), ", "))
}

// New builds the policy registered under name from a.
func New(name string, a Args) (slotsim.Policy, error) {
	e, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return e.Build(a)
}
