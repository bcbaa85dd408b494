package main

// The fleet ladder: a fleet's instances rebuilt from the layers' public
// constructors the way fleet.Run composes them, so the traced pass can
// wrap every boundary between layers. The ladder must reproduce its own
// untraced twin's metrics bit for bit and fleet.Run's totals exactly, or
// the traced round fails.

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/eventq"
	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/qlearn"
	"repro/internal/rng"
	"repro/internal/shared"
	"repro/internal/slotsim"
)

// ladderClass is one lane's pooled objects for one class, built once and
// reset per instance, as fleet.Run pools them.
type ladderClass struct {
	reset  func(*rng.Stream)
	core   *core.Manager // the Q-DPM learner, when the class runs one
	src    *ctsim.RenewalSource
	faults ctsim.Faults
	cfg    ctsim.Config
}

// ladderLane is one slot of a coupled group (the only slot when
// uncoupled): a simulator, the per-instance streams, and one pooled
// object set per class.
type ladderLane struct {
	sim                                     *ctsim.Sim
	root, polStream, simStream, faultStream rng.Stream
	classes                                 []ladderClass
}

// ladderTotals is what a ladder run must agree on: with its untraced twin
// (every field) and with fleet.Run on the same prefix (the counts).
type ladderTotals struct {
	digest                                  string
	events                                  uint64
	arrived, served, lost, crashes, retries int64
}

// slotPolicy builds class c's slotted policy the way the fleet mix names
// it.
func slotPolicy(c *fleet.Class, dev *device.Slotted, sp *fleet.Spec, stream *rng.Stream) (slotsim.Policy, error) {
	name, arg, hasArg := strings.Cut(c.Policy, "=")
	switch name {
	case "greedy-off":
		return policy.NewGreedyOff(dev)
	case "timeout":
		slots := int64(8)
		if hasArg {
			v, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return nil, fmt.Errorf("ladder: policy %q: %w", c.Policy, err)
			}
			slots = int64(v)
		}
		return policy.NewFixedTimeout(dev, slots)
	case "q-dpm":
		// The fleet's converging learner: decaying exploration, polynomial
		// learning rate.
		return core.New(core.Config{
			Device:        dev,
			QueueCap:      sp.QueueCap,
			LatencyWeight: sp.LatencyWeight,
			Explore:       qlearn.EpsGreedy{Eps: 0.3, MinEps: 0.002, DecayTau: 30000},
			Alpha:         qlearn.Polynomial{Scale: 0.5, Omega: 0.65},
			Stream:        stream,
		})
	}
	return nil, fmt.Errorf("ladder: policy %q is not rebuilt", c.Policy)
}

// outages replays fleet.Run's outage windows on a group kernel: down at
// k·period, up at k·period+dur for k ≥ 1, each toggle scheduling the next
// from its own handler so kernel sequence numbers match fleet.Run's.
type outages struct {
	k                    *eventq.Kernel
	res                  shared.Outageable
	period, dur, horizon float64
	down                 bool
	h                    eventq.Handler
}

func (o *outages) start(k *eventq.Kernel) {
	o.k, o.down = k, false
	if o.h == nil {
		o.h = o.toggle
	}
	if o.period <= o.horizon {
		o.schedule(o.period)
	}
}

func (o *outages) toggle(now float64) {
	var next float64
	if !o.down {
		o.down = true
		o.res.SetDown(true, now)
		next = now + o.dur
	} else {
		o.down = false
		o.res.SetDown(false, now)
		next = now + o.period - o.dur
	}
	if next <= o.horizon {
		o.schedule(next)
	}
}

func (o *outages) schedule(t float64) {
	if _, err := o.k.Schedule(t, o.h); err != nil {
		panic(err) // t is finite and never before now
	}
}

// ladder rebuilds instances [0, n) of the validated spec sp from the
// layers' public constructors — engine.SeedFor, rng splits, dist.ByName,
// ctsim.NewRenewalSource, the slotted policy under ctsim.Adapt,
// ctsim.NewShared, shared.NewChannel, ctsim.Faults — and runs them on one
// kernel in groups of sp.CoupleSize (one when uncoupled), as fleet.Run
// would. With l non-nil every boundary is wrapped and every group's reset
// and run is timed into l.
func ladder(sp *fleet.Spec, n int, l *layers) (ladderTotals, error) {
	var out ladderTotals
	size := max(sp.CoupleSize, 1)
	var pattern []int
	slotted := make([]*device.Slotted, len(sp.Classes))
	arr := make([]dist.Continuous, len(sp.Classes))
	for ci := range sp.Classes {
		c := &sp.Classes[ci]
		var err error
		if slotted[ci], err = c.Device.Slot(sp.Period); err != nil {
			return out, err
		}
		if arr[ci], err = dist.ByName(c.Dist, c.RatePerSec); err != nil {
			return out, err
		}
		for w := 0; w < c.Weight; w++ {
			pattern = append(pattern, ci)
		}
	}
	k := eventq.New()
	var channel *shared.Channel
	var res ctsim.Resource
	switch sp.Couple {
	case fleet.CoupleNone:
	case fleet.CoupleChannel:
		channel = shared.NewChannel()
		res = channel
		if l != nil {
			res = &tracedResource{channel, l}
		}
	default:
		return out, fmt.Errorf("ladder: couple mode %q is not rebuilt", sp.Couple)
	}
	f := sp.Faults
	crashOrRetry := f != nil && (f.CrashMTBF > 0 || f.FailProb > 0)
	var windows *outages
	if f != nil && f.OutagePeriod > 0 {
		windows = &outages{res: channel, period: f.OutagePeriod, dur: f.OutageDuration, horizon: sp.Horizon}
	}
	if l != nil {
		l.kernel = k
	}

	lanes := make([]ladderLane, size)
	for j := range lanes {
		ln := &lanes[j]
		ln.classes = make([]ladderClass, len(sp.Classes))
		for ci := range ln.classes {
			lc := &ln.classes[ci]
			pol, err := slotPolicy(&sp.Classes[ci], slotted[ci], sp, &ln.polStream)
			if err != nil {
				return out, err
			}
			switch p := pol.(type) {
			case *core.Manager:
				lc.core, lc.reset = p, p.Reset
			case interface{ Reset() }:
				lc.reset = func(*rng.Stream) { p.Reset() }
			default:
				return out, fmt.Errorf("ladder: policy %s has no Reset", pol.Name())
			}
			if lc.src, err = ctsim.NewRenewalSource(arr[ci]); err != nil {
				return out, err
			}
			lc.src.SetLimit(sp.Horizon)
			var src ctsim.Source = lc.src
			if l != nil {
				pol = l.traceSlot(pol)
				src = &tracedSource{lc.src, &l.source}
			}
			cp := ctsim.Adapt(pol, sp.Period)
			if l != nil {
				cp = l.traceCT(cp)
			}
			lc.cfg = ctsim.Config{
				Device:         sp.Classes[ci].Device,
				QueueCap:       sp.QueueCap,
				LatencyWeight:  sp.LatencyWeight / sp.Period,
				Policy:         cp,
				Source:         src,
				Stream:         &ln.simStream,
				DecisionPeriod: sp.Period,
				Resource:       res,
			}
			if crashOrRetry {
				lc.faults = ctsim.Faults{CrashMTBF: f.CrashMTBF, RepairMean: f.RepairMean, FailProb: f.FailProb,
					RetryMax: f.RetryMax, Backoff: f.Backoff, Stream: &ln.faultStream}
				lc.cfg.Faults = &lc.faults
			}
			if err := lc.cfg.Validate(); err != nil {
				return out, err
			}
		}
	}

	d := newDigester()
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		var t0 time.Duration
		if l != nil {
			t0 = clock()
		}
		k.Reset()
		if channel != nil {
			channel.Reset()
		}
		for i := lo; i < hi; i++ {
			ln := &lanes[i-lo]
			lc := &ln.classes[pattern[i%len(pattern)]]
			ln.root.Reseed(engine.SeedFor(sp.Seed, uint64(i)))
			ln.root.SplitInto(&ln.polStream)
			ln.root.SplitInto(&ln.simStream)
			if crashOrRetry {
				ln.root.SplitInto(&ln.faultStream)
			}
			lc.reset(&ln.polStream)
			lc.src.Reset()
			var err error
			if ln.sim == nil {
				if ln.sim, err = ctsim.NewShared(k, lc.cfg); err == nil {
					ln.sim.SetHorizonHint(sp.Horizon)
				}
			} else {
				err = ln.sim.ResetValidated(lc.cfg)
			}
			if err != nil {
				return out, fmt.Errorf("ladder: instance %d: %w", i, err)
			}
		}
		if windows != nil {
			windows.start(k)
		}
		var t1 time.Duration
		if l != nil {
			t1 = clock()
		}
		if err := k.Run(sp.Horizon); err != nil {
			return out, err
		}
		if l != nil {
			t2 := clock()
			l.resetNs += t1 - t0 - clockBias
			l.runNs += t2 - t1 - clockBias
			l.events += k.Fired()
		}
		out.events += k.Fired()
		for i := lo; i < hi; i++ {
			ln := &lanes[i-lo]
			m := ln.sim.MetricsView()
			digestMetrics(d, m)
			out.arrived += m.Arrived
			out.served += m.Served
			out.lost += m.Lost
			out.crashes += m.Crashes
			out.retries += m.Retries
			if l != nil {
				l.instances++
				l.crashes += m.Crashes
				l.retries += m.Retries
				l.downtimeSec += m.DowntimeSec
				l.instanceSec += m.Horizon
				l.resWaitSec += m.ResourceWaitSec
				if lc := &ln.classes[pattern[i%len(pattern)]]; lc.core != nil {
					l.qUpdates += lc.core.Agent().Updates()
				}
			}
		}
	}
	out.digest = d.sum()
	return out, nil
}

// digestMetrics folds every field of one instance's metrics.
func digestMetrics(d digester, m *ctsim.Metrics) {
	for _, v := range []float64{m.Horizon, m.EnergyJ, m.CostTotal, m.WaitSeconds, m.BacklogSeconds,
		m.TransitionTime, m.ResourceWaitSec, m.DowntimeSec, m.EnergyOutageJ} {
		d.f64(v)
	}
	for _, v := range m.StateTime {
		d.f64(v)
	}
	for _, v := range []int64{m.Arrived, m.Served, m.Lost, m.Commands, m.Clamped, m.Decisions,
		m.ResourceDrops, m.BudgetDenied, m.Crashes, m.Retries, m.RetryExhausted, m.LostToOutage} {
		d.i64(v)
	}
}

// traceFleet runs the ladder over the first prefix instances of sp
// untraced and traced, then fleet.Run on the same prefix, and checks that
// all three agree.
func traceFleet(ctx context.Context, sp *fleet.Spec, prefix int, tl *tally) (*layers, error) {
	l := newLayers()
	c0 := cpuTime()
	plain, err := ladder(sp, prefix, nil)
	if err != nil {
		return nil, err
	}
	c1 := cpuTime()
	traced, err := ladder(sp, prefix, l)
	if err != nil {
		return nil, err
	}
	c2 := cpuTime()
	l.untracedCPU, l.tracedCPU = c1-c0, c2-c1
	tl.check(traced == plain, "traced ladder %+v differs from untraced %+v", traced, plain)

	ps := *sp
	ps.Devices = prefix
	c3 := cpuTime()
	sum, err := fleet.Run(ctx, ps, &engine.Pool{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("fleet.Run on the ladder prefix: %w", err)
	}
	l.fleetCPU, l.fleetEvents = cpuTime()-c3, sum.Events
	got := ladderTotals{digest: traced.digest, events: sum.Events, arrived: sum.Arrived, served: sum.Served,
		lost: sum.Lost, crashes: sum.Crashes, retries: sum.Retries}
	tl.check(got == traced, "fleet.Run on %d devices %+v, ladder %+v", prefix, got, traced)
	return l, nil
}
