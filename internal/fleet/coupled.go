// Groups: every CT shard runs as a sequence of groups of
// max(Spec.CoupleSize, 1) consecutive instances, each group advancing on
// the worker's ONE event kernel, their event streams interleaved by the
// kernel's (time, seq) order. An uncoupled instance is a group of one
// with no shared resource; a coupled group adds a shared resource
// (internal/shared) arbitrating service starts and power commands.
// Groups live strictly within a shard — Validate guarantees ShardSize
// is a multiple of CoupleSize — so shards stay independent and the
// bit-identical -parallel contract is untouched: a shard's result is a
// pure function of the spec and the shard index, whatever worker runs
// it.
//
// Determinism inside a group: lanes are started in ascending instance
// order, so their initial events claim kernel sequence numbers in that
// order and every same-time tie (the time-0 ticks, synchronized period
// boundaries) breaks FIFO by instance index, every run. Resource wait
// queues grant FIFO and run synchronously on the event loop, so the
// interleaving — and therefore every metric — is reproducible bit for
// bit.
//
// Reuse contract: the kernel, the lanes (simulator + per-class
// policy/source/config + streams), and the shared resource all persist
// across every group the worker runs, reset in place per group; after
// warm-up a full group lifecycle performs zero heap allocations
// (TestFleetCoupledShardAllocationFree).
package fleet

import (
	"context"

	"repro/internal/ctsim"
	"repro/internal/eventq"
	"repro/internal/shared"
)

// outageDriver schedules a shared resource's outage windows on the
// group kernel: one chained toggle event flips the resource down at
// each window start ([k·period, k·period + duration) for k ≥ 1, first
// window at t=period) and up at its end. Toggles are ordinary kernel
// events, so they interleave with the lanes' events in deterministic
// (time, seq) order and recycle one pooled event slot — the outage
// path allocates nothing in steady state.
type outageDriver struct {
	k       *eventq.Kernel
	res     shared.Outageable
	period  float64
	dur     float64
	horizon float64
	down    bool
	hToggle eventq.Handler // bound once; reused across groups
}

// start arms the driver for a new group run on kernel k. Call after
// the group's lanes have scheduled their initial events (toggle seq
// numbers follow them; interleaving stays deterministic either way).
func (o *outageDriver) start(k *eventq.Kernel, res shared.Outageable, period, dur, horizon float64) {
	o.k, o.res = k, res
	o.period, o.dur, o.horizon = period, dur, horizon
	o.down = false
	if o.hToggle == nil {
		o.hToggle = o.toggle
	}
	if period <= horizon {
		o.k.Schedule(period, o.hToggle)
	}
}

// toggle flips the resource state and chains the next flip.
func (o *outageDriver) toggle(now float64) {
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
		o.k.Schedule(next, o.hToggle)
	}
}

// resource returns the worker's shared resource for the group of
// instances [lo, hi), building it on first use and resetting it
// otherwise; nil for an uncoupled run. The power budget's cap is
// BudgetFrac times the group's summed always-on power.
func (ws *workerScratch) resource(r *runner, lo, hi int) ctsim.Resource {
	switch r.spec.Couple {
	case CoupleChannel:
		if ws.channel == nil {
			ws.channel = shared.NewChannel()
		} else {
			ws.channel.Reset()
		}
		return ws.channel
	case CoupleGateway:
		if ws.gateway == nil {
			ws.gateway = shared.NewGateway(r.spec.GatewayWait)
		} else {
			ws.gateway.Reset()
		}
		return ws.gateway
	case CouplePower:
		var capW float64
		for i := lo; i < hi; i++ {
			capW += r.classes[r.classOf(i)].maxPower
		}
		capW *= r.spec.BudgetFrac
		if ws.budget == nil {
			ws.budget = shared.NewPowerBudget(capW)
		} else {
			ws.budget.Reset(capW)
		}
		if f := r.spec.Faults; f != nil && f.OutagePeriod > 0 {
			ws.budget.SetBrownoutFrac(f.BrownoutFrac)
		}
		return ws.budget
	}
	return nil
}

// runGroupCT runs one group — instances [lo, hi) on the worker's kernel
// and shared resource, if any — and folds each lane's metrics into sum
// in lane order, which is instance order. The fold reads each lane's
// MetricsView before the lane is reset for the next group, as the view's
// aliasing contract requires. Per-lane event counts do not exist on a
// shared kernel, so the group's kernel event total is added to
// sum.Events once.
func (r *runner) runGroupCT(ctx context.Context, lo, hi int, ws *workerScratch, sum *Summary) error {
	if ws.kernel == nil {
		ws.kernel = eventq.New()
	} else {
		ws.kernel.Reset()
	}
	res := ws.resource(r, lo, hi)
	lanes := ws.lanesFor(hi - lo)
	// Start lanes in ascending instance order: each lane's initial events
	// claim kernel seq numbers in that order, which fixes the FIFO
	// tie-break for all same-time events across the group.
	for j := range lanes {
		i := lo + j
		ln := &lanes[j]
		cs, err := ln.start(r, i, res)
		if err != nil {
			return r.instanceErr(i, err)
		}
		if ln.sim == nil {
			if ln.sim, err = ctsim.NewShared(ws.kernel, cs.cfg); err != nil {
				return r.instanceErr(i, err)
			}
			// Instances never run past the horizon, so events landing
			// beyond it can skip the kernel; the hint survives
			// ResetValidated.
			ln.sim.SetHorizonHint(r.spec.Horizon)
		} else if err = ln.sim.ResetValidated(cs.cfg); err != nil {
			return r.instanceErr(i, err)
		}
		if ws.budget != nil {
			ws.budget.Register(cs.cfg.Device.States[cs.cfg.InitialState].Power)
		}
	}
	// Arm the outage windows after the lanes' initial events so lane
	// seq order (the FIFO tie-break) is unchanged by enabling them.
	if f := r.spec.Faults; f != nil && f.OutagePeriod > 0 {
		ws.outage.start(ws.kernel, res.(shared.Outageable), f.OutagePeriod, f.OutageDuration, r.spec.Horizon)
	}
	// Drive the kernel directly (the per-sim Run wrappers assume a
	// private kernel), polling the context between cancellation chunks.
	chunk := r.spec.Period * cancelChunkTicks
	for until := chunk; ; until += chunk {
		if until > r.spec.Horizon {
			until = r.spec.Horizon
		}
		if err := ws.kernel.Run(until); err != nil {
			return err
		}
		if until >= r.spec.Horizon {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	for j := range lanes {
		ci := r.classOf(lo + j)
		sum.Add(ci, lanes[j].sim.MetricsView(), r.classes[ci].maxPower)
	}
	sum.Events += ws.kernel.Fired()
	return nil
}
