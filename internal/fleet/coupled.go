// Coupled mode: groups of Spec.CoupleSize consecutive instances advance
// on ONE shared event kernel, their event streams interleaved by the
// kernel's (time, seq) order, with a shared resource (internal/shared)
// arbitrating service starts and power commands. Coupling lives
// strictly within a shard — Validate guarantees ShardSize is a multiple
// of CoupleSize — so shards stay independent and the bit-identical
// -parallel contract is untouched: a shard's result is a pure function
// of the spec and the shard index, whatever worker runs it.
//
// Determinism inside a group: lanes are built/reset in ascending
// instance order, so their initial events claim kernel sequence numbers
// in that order and every same-time tie (the time-0 ticks, synchronized
// period boundaries) breaks FIFO by instance index, every run. Resource
// wait queues grant FIFO and run synchronously on the event loop, so
// the interleaving — and therefore every metric — is reproducible bit
// for bit.
//
// Reuse contract: the group kernel, the lanes (simulator + per-class
// policy/source/config + streams), and the shared resource all persist
// across every group the worker runs, reset in place per group; after
// warm-up a full group lifecycle performs zero heap allocations
// (TestFleetCoupledShardAllocationFree).
package fleet

import (
	"context"
	"fmt"

	"repro/internal/ctsim"
	"repro/internal/engine"
	"repro/internal/eventq"
	"repro/internal/rng"
	"repro/internal/shared"
)

// laneScratch is one lane of a coupled group: the pooled simulator and
// per-class object set for whatever instance currently occupies the
// lane, with the lane's own rng streams (lanes are live concurrently in
// event time, so unlike the uncoupled worker they cannot share one
// stream set).
type laneScratch struct {
	sim     *ctsim.Sim
	classes []classScratch

	root        rng.Stream
	polStream   rng.Stream
	simStream   rng.Stream
	faultStream rng.Stream
}

// classState returns the lane's pooled objects for class ci, building
// them on first use with the lane's streams and the group resource.
func (ls *laneScratch) classState(r *runner, ci int, res ctsim.Resource) (*classScratch, error) {
	if ls.classes == nil {
		ls.classes = make([]classScratch, len(r.classes))
	}
	cs := &ls.classes[ci]
	if cs.pol != nil {
		return cs, nil
	}
	if err := cs.build(r, ci, &ls.polStream, &ls.simStream, &ls.faultStream, res); err != nil {
		// Discard the half-built set (see workerScratch.classState): the
		// memo keys on cs.pol, and a partial scratch must not be handed
		// out as complete to the lane's next instance of this class.
		*cs = classScratch{}
		return nil, err
	}
	return cs, nil
}

// coupledScratch is one worker's reusable coupled-group state.
type coupledScratch struct {
	kernel *eventq.Kernel
	lanes  []laneScratch
	// Exactly one of the three is non-nil, per Spec.Couple.
	channel *shared.Channel
	gateway *shared.Gateway
	budget  *shared.PowerBudget
	// outage drives the group resource's scheduled outage windows
	// (Spec.Faults.OutagePeriod > 0); reused across groups.
	outage outageDriver
}

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

// resource returns the worker's shared resource, building it on first
// use and resetting it for a new group otherwise. capW is the group's
// power cap (CouplePower only).
func (cs *coupledScratch) resource(r *runner, capW float64) ctsim.Resource {
	switch r.spec.Couple {
	case CoupleChannel:
		if cs.channel == nil {
			cs.channel = shared.NewChannel()
		} else {
			cs.channel.Reset()
		}
		return cs.channel
	case CoupleGateway:
		if cs.gateway == nil {
			cs.gateway = shared.NewGateway(1, r.spec.GatewayWait)
		} else {
			cs.gateway.Reset()
		}
		return cs.gateway
	case CouplePower:
		if cs.budget == nil {
			cs.budget = shared.NewPowerBudget(capW)
		} else {
			cs.budget.Reset(capW)
		}
		return cs.budget
	}
	panic("fleet: coupled shard loop without a couple mode")
}

// runShardCoupled executes one shard as a sequence of coupled groups.
// Groups are aligned to absolute instance index (Validate guarantees
// ShardSize is a multiple of CoupleSize, so group boundaries are a pure
// function of the spec); only the fleet's trailing group can be
// partial. Results land in the worker's row store and fold into the
// summary in ascending instance order, exactly like the uncoupled
// shard loop.
func (r *runner) runShardCoupled(ctx context.Context, shard int, ws *workerScratch) (*Summary, error) {
	lo := shard * r.spec.ShardSize
	hi := lo + r.spec.ShardSize
	if hi > r.spec.Devices {
		hi = r.spec.Devices
	}
	n := hi - lo
	if cap(ws.results) < n {
		ws.results = make([]instanceResult, n)
	}
	res := ws.results[:n]
	for glo := lo; glo < hi; glo += r.spec.CoupleSize {
		ghi := glo + r.spec.CoupleSize
		if ghi > hi {
			ghi = hi
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := r.runGroupCT(ctx, glo, ghi, ws, res[glo-lo:ghi-lo]); err != nil {
			return nil, fmt.Errorf("fleet: coupled group [%d,%d): %w", glo, ghi, err)
		}
	}
	sum := r.takeSummary(n)
	for i := lo; i < hi; i++ {
		sum.addInstance(r.classOf(i), res[i-lo])
	}
	return sum, nil
}

// runGroupCT runs one coupled group — instances [lo, hi) on one shared
// kernel and resource — and writes one result row per instance. The
// group's kernel event total is attributed to the first lane's row
// (per-lane event counts do not exist on a shared kernel), so fleet
// and class Events totals stay exact while per-instance attribution is
// only group-resolution.
func (r *runner) runGroupCT(ctx context.Context, lo, hi int, ws *workerScratch, out []instanceResult) error {
	n := hi - lo
	cs := &ws.coupled
	if cs.kernel == nil {
		cs.kernel = eventq.New()
	} else {
		cs.kernel.Reset()
	}
	var capW float64
	if r.spec.Couple == CouplePower {
		for i := lo; i < hi; i++ {
			capW += r.classes[r.classOf(i)].maxPower
		}
		capW *= r.spec.BudgetFrac
	}
	resource := cs.resource(r, capW)
	outages := r.spec.Faults != nil && r.spec.Faults.OutagePeriod > 0
	if outages && cs.budget != nil {
		cs.budget.SetBrownoutFrac(r.spec.Faults.BrownoutFrac)
	}
	if len(cs.lanes) < n {
		cs.lanes = append(cs.lanes, make([]laneScratch, n-len(cs.lanes))...)
	}
	// Build/reset lanes in ascending instance order: each lane's initial
	// events claim kernel seq numbers in that order, which fixes the FIFO
	// tie-break for all same-time events across the group.
	for j := 0; j < n; j++ {
		i := lo + j
		ln := &cs.lanes[j]
		lcs, err := ln.classState(r, r.classOf(i), resource)
		if err != nil {
			return err
		}
		ln.root.Reseed(engine.SeedFor(r.spec.Seed, uint64(i)))
		ln.root.SplitInto(&ln.polStream)
		ln.root.SplitInto(&ln.simStream)
		if r.spec.Faults.crashOrRetry() {
			ln.root.SplitInto(&ln.faultStream)
		}
		lcs.resetPol(&ln.polStream)
		lcs.src.Reset()
		if ln.sim == nil {
			if ln.sim, err = ctsim.NewShared(cs.kernel, lcs.cfg); err != nil {
				return err
			}
			ln.sim.SetHorizonHint(r.spec.Horizon)
		} else if err = ln.sim.ResetValidated(lcs.cfg); err != nil {
			return err
		}
		if cs.budget != nil {
			cs.budget.Register(lcs.cfg.Device.States[lcs.cfg.InitialState].Power)
		}
	}
	// Arm the outage windows after the lanes' initial events so lane
	// seq order (the FIFO tie-break) is unchanged by enabling them.
	if outages {
		cs.outage.start(cs.kernel, resource.(shared.Outageable),
			r.spec.Faults.OutagePeriod, r.spec.Faults.OutageDuration, r.spec.Horizon)
	}
	// Drive the shared kernel directly (the per-sim Run wrappers assume a
	// private kernel), in the same cancellation chunks as the uncoupled
	// loop.
	chunk := r.spec.Period * cancelChunkTicks
	for until := chunk; ; until += chunk {
		if until > r.spec.Horizon {
			until = r.spec.Horizon
		}
		if err := cs.kernel.Run(until); err != nil {
			return err
		}
		if until >= r.spec.Horizon {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	for j := 0; j < n; j++ {
		cc := &r.classes[r.classOf(lo+j)]
		m := cs.lanes[j].sim.MetricsView()
		o := &out[j]
		avgPower := m.AvgPowerW()
		o.avgPowerW = avgPower
		o.energyRed = 1 - avgPower/cc.maxPower
		o.meanWaitSec = m.MeanWaitSeconds()
		o.lossRate = m.LossRate()
		o.energyJ = m.EnergyJ
		o.arrived = m.Arrived
		o.served = m.Served
		o.lost = m.Lost
		o.resourceWaitSec = m.ResourceWaitSec
		o.resourceDrops = m.ResourceDrops
		o.budgetDenied = m.BudgetDenied
		o.downtimeSec = m.DowntimeSec
		o.energyOutageJ = m.EnergyOutageJ
		o.crashes = m.Crashes
		o.retries = m.Retries
		o.retryExhausted = m.RetryExhausted
		o.lostToOutage = m.LostToOutage
		o.events = 0
		if j == 0 {
			o.events = cs.kernel.Fired()
		}
	}
	return nil
}
