package main

// The traced pass times each layer from outside, through its public
// functions only. Transparent wrappers sit on every boundary a layer
// crosses — ctsim.Source, ctsim.Policy, slotsim.Policy (and Learner),
// ctsim.Resource, workload.Arrivals — count every call exactly, and time
// one call in sampleEvery, chosen by call index. On a fleet they wrap the
// ladder (ladder.go); on the paper workload, the replicas of
// experiment.RunReplicatedCtx.

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/eventq"
	"repro/internal/experiment"
	"repro/internal/mdp"
	"repro/internal/rng"
	"repro/internal/slotsim"
	"repro/internal/stochpm"
	"repro/internal/workload"
)

// perLayer are the --trace 1 metrics. README.md maps each layer to the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{name: "engine.jobs", unit: "count", exact: true},
	{name: "fleet.instances", unit: "count", exact: true},
	{name: "fleet.events_per_instance", unit: "count", exact: true},
	{name: "fleet.reset_ns_per_instance", unit: "ns"},
	{name: "fleet.overhead_ns_per_event", unit: "ns"},
	{name: "eventq.events", unit: "count", exact: true},
	{name: "eventq.fel_depth_mean", unit: "count", exact: true},
	{name: "eventq.ns_per_event", unit: "ns"},
	{name: "ctsim.self_ns_per_event", unit: "ns"},
	{name: "ctsim.crashes", unit: "count", exact: true},
	{name: "ctsim.retries", unit: "count", exact: true},
	{name: "ctsim.downtime_frac", unit: "frac", exact: true},
	{name: "source.draws", unit: "count", exact: true},
	{name: "source.ns_per_draw", unit: "ns"},
	{name: "policy.decisions", unit: "count", exact: true},
	{name: "policy.ns_per_decision", unit: "ns"},
	{name: "policy.adapter_ns_per_decision", unit: "ns"},
	{name: "core.decisions", unit: "count", exact: true},
	{name: "core.ns_per_decide", unit: "ns"},
	{name: "core.ns_per_observe", unit: "ns"},
	{name: "qlearn.updates", unit: "count", exact: true},
	{name: "shared.requests", unit: "count", exact: true},
	{name: "shared.grants", unit: "count", exact: true},
	{name: "shared.waits", unit: "count", exact: true},
	{name: "shared.drops", unit: "count", exact: true},
	{name: "shared.ns_per_call", unit: "ns"},
	{name: "shared.wait_s_mean", unit: "sim_s", exact: true},
	{name: "slotsim.slots", unit: "count", exact: true},
	{name: "slotsim.self_ns_per_slot", unit: "ns"},
	{name: "stochpm.resolves", unit: "count", exact: true},
	{name: "stochpm.alarms", unit: "count", exact: true},
	{name: "stochpm.lp_fallbacks", unit: "count", exact: true},
	{name: "stochpm.solve_ms_per_resolve", unit: "ms"},
	{name: "stochpm.observe_ns_per_slot", unit: "ns"},
	{name: "lp.solve_us", unit: "us"},
	{name: "lp.alloc_kb_per_solve", unit: "KB"},
	{name: "mdp.build_us", unit: "us"},
	{name: "gc.cpu_frac", unit: "frac"},
	{name: "gc.cycles", unit: "count"},
	{name: "runtime.peak_rss_mb", unit: "MB"},
	{name: "trace.overhead_frac", unit: "frac"},
}

// sampleEvery is the timing stride of every span: one call in this many
// is timed, the rest only counted.
const sampleEvery = 16

var epoch = time.Now()

// clock is monotonic time since process start.
func clock() time.Duration { return time.Since(epoch) }

// clockBias is what reading the clock adds to one timed interval — the
// median of back-to-back reads, tens of ns on a virtual machine, as much
// as the cheapest wrapped calls take. Every timed interval is corrected
// by it.
var clockBias = func() time.Duration {
	d := make([]float64, 1<<12)
	for i := range d {
		t0 := clock()
		d[i] = float64(clock() - t0)
	}
	return time.Duration(median(d))
}()

// span accumulates the calls through one wrapped boundary. A call is
// timed when its index plus phase is a multiple of sampleEvery; nested
// spans take different phases so an outer timed call never carries an
// inner span's timer reads.
type span struct {
	phase        uint64
	calls, timed uint64
	ns           time.Duration
}

// begin counts a call and returns its start time, or -1 when the call is
// not sampled.
func (s *span) begin() time.Duration {
	n := s.calls
	s.calls++
	if (n+s.phase)%sampleEvery != 0 {
		return -1
	}
	return clock()
}

// end closes a call begin opened.
func (s *span) end(t0 time.Duration) {
	if t0 >= 0 {
		s.add(clock() - t0)
	}
}

func (s *span) add(d time.Duration) {
	s.timed++
	s.ns += d - clockBias
}

// total estimates the time of every call from the sampled ones, in ns.
func (s *span) total() float64 {
	return ratio(float64(s.ns)*float64(s.calls), float64(s.timed))
}

// perCall is the estimated mean ns per call.
func (s *span) perCall() float64 { return ratio(s.total(), float64(s.calls)) }

// layers collects one traced sample: a fleet ladder or a paper sample.
// Counts are exact; times are sampled (spans) or taken around every
// instance group (resetNs, runNs) or the whole sample (the CPU fields).
type layers struct {
	kernel *eventq.Kernel // the ladder's kernel, sampled at each decision

	// Fleet ladder (zero on the paper path).
	instances, events                    uint64
	depthSum, depthN                     uint64
	resetNs, runNs                       time.Duration
	crashes, retries                     int64
	downtimeSec, instanceSec, resWaitSec float64
	requests, grants, waits, drops       uint64

	// Wrapped boundaries. ctDecide/ctObserve are the ctsim.Policy around
	// the slot adapter (fleets only); the slotted policy under it (or, on
	// the paper path, driven by slotsim directly) lands in the core, lp,
	// or other spans by type. lpObserve excludes the LP solve time, which
	// solveTime holds exactly.
	source                    span
	ctDecide, ctObserve       span
	coreDecide, coreObserve   span
	lpDecide, lpObserve       span
	otherDecide, otherObserve span
	resource                  span
	qUpdates                  int64

	// Paper path (zero on fleets).
	slots                       uint64
	resolves, alarms, fallbacks int64
	solveTime                   time.Duration

	// CPU of the traced sample and of its untraced twin; the traced
	// sample's GC share; and, on fleets, fleet.Run's CPU and events on
	// the same prefix.
	tracedCPU, untracedCPU, gcCPU time.Duration
	fleetCPU                      time.Duration
	fleetEvents                   uint64
}

func newLayers() *layers {
	l := &layers{}
	for _, s := range l.slotSpans() {
		s.phase = sampleEvery / 2
	}
	return l
}

// slotSpans are the spans of the slotted policies.
func (l *layers) slotSpans() []*span {
	return []*span{&l.coreDecide, &l.coreObserve, &l.lpDecide, &l.lpObserve, &l.otherDecide, &l.otherObserve}
}

// decisions counts policy consultations at the outermost wrapped policy.
func (l *layers) decisions() uint64 {
	if l.ctDecide.calls > 0 {
		return l.ctDecide.calls
	}
	return l.coreDecide.calls + l.lpDecide.calls + l.otherDecide.calls
}

// slotPolicyNs is the estimated time inside the slotted policies, LP
// solves included.
func (l *layers) slotPolicyNs() float64 {
	t := float64(l.solveTime)
	for _, s := range l.slotSpans() {
		t += s.total()
	}
	return t
}

// policyNs is the estimated time inside the outermost wrapped policy.
func (l *layers) policyNs() float64 {
	if l.ctDecide.calls > 0 {
		return l.ctDecide.total() + l.ctObserve.total()
	}
	return l.slotPolicyNs()
}

// ---------------------------------------------------------------------------
// Wrappers

type tracedSource struct {
	inner ctsim.Source
	s     *span
}

func (t *tracedSource) Next(st *rng.Stream) float64 {
	t0 := t.s.begin()
	v := t.inner.Next(st)
	t.s.end(t0)
	return v
}

func (t *tracedSource) String() string { return t.inner.String() }

// tracedArrivals wraps the slotted arrival process. Clone returns an
// unwrapped copy: the simulators never clone.
type tracedArrivals struct {
	inner workload.Arrivals
	s     *span
}

func (t *tracedArrivals) Next(st *rng.Stream) int {
	t0 := t.s.begin()
	v := t.inner.Next(st)
	t.s.end(t0)
	return v
}

func (t *tracedArrivals) MeanRate() float64        { return t.inner.MeanRate() }
func (t *tracedArrivals) Clone() workload.Arrivals { return t.inner.Clone() }
func (t *tracedArrivals) String() string           { return t.inner.String() }

// tracedCT wraps a ctsim.Policy and samples the kernel's pending-event
// count at every decision.
type tracedCT struct {
	inner ctsim.Policy
	l     *layers
}

func (p *tracedCT) Name() string { return p.inner.Name() }

func (p *tracedCT) Decide(o ctsim.Observation) ctsim.Decision {
	p.l.depthSum += uint64(p.l.kernel.Len())
	p.l.depthN++
	t0 := p.l.ctDecide.begin()
	d := p.inner.Decide(o)
	p.l.ctDecide.end(t0)
	return d
}

// tracedCTLearner keeps the Learner interface, so the simulator still
// delivers feedback through the wrapper.
type tracedCTLearner struct {
	tracedCT
	learner ctsim.Learner
}

func (p *tracedCTLearner) Observe(fb *ctsim.Feedback) {
	t0 := p.l.ctObserve.begin()
	p.learner.Observe(fb)
	p.l.ctObserve.end(t0)
}

func (l *layers) traceCT(p ctsim.Policy) ctsim.Policy {
	if lr, ok := p.(ctsim.Learner); ok {
		return &tracedCTLearner{tracedCT{p, l}, lr}
	}
	return &tracedCT{p, l}
}

type tracedSlot struct {
	inner  slotsim.Policy
	decide *span
}

func (p *tracedSlot) Name() string { return p.inner.Name() }

func (p *tracedSlot) Decide(o slotsim.Observation) device.StateID {
	t0 := p.decide.begin()
	a := p.inner.Decide(o)
	p.decide.end(t0)
	return a
}

type tracedSlotLearner struct {
	tracedSlot
	learner slotsim.Learner
	observe *span
}

func (p *tracedSlotLearner) Observe(fb *slotsim.Feedback) {
	t0 := p.observe.begin()
	p.learner.Observe(fb)
	p.observe.end(t0)
}

// tracedAdaptive times the model-based pipeline's Observe net of the LP
// solve time it accrues, leaving the estimator, the change detector, and
// the model rebuild.
type tracedAdaptive struct {
	tracedSlot
	a       *stochpm.Adaptive
	observe *span
}

func (p *tracedAdaptive) Observe(fb *slotsim.Feedback) {
	t0 := p.observe.begin()
	solved := p.a.SolveTime
	p.a.Observe(fb)
	if t0 >= 0 {
		p.observe.add(clock() - t0 - (p.a.SolveTime - solved))
	}
}

func (l *layers) traceSlot(p slotsim.Policy) slotsim.Policy {
	switch q := p.(type) {
	case *core.Manager:
		return &tracedSlotLearner{tracedSlot{p, &l.coreDecide}, q, &l.coreObserve}
	case *stochpm.Adaptive:
		return &tracedAdaptive{tracedSlot{p, &l.lpDecide}, q, &l.lpObserve}
	case slotsim.Learner:
		return &tracedSlotLearner{tracedSlot{p, &l.otherDecide}, q, &l.otherObserve}
	}
	return &tracedSlot{p, &l.otherDecide}
}

// tracedResource times every resource hook in one span and counts the
// service-start verdicts. A timed release includes the grant callback it
// makes to the next waiter.
type tracedResource struct {
	inner ctsim.Resource
	l     *layers
}

func (r *tracedResource) RequestService(now float64, g ctsim.ResourceClient) ctsim.Verdict {
	t0 := r.l.resource.begin()
	v := r.inner.RequestService(now, g)
	r.l.resource.end(t0)
	r.l.requests++
	switch v {
	case ctsim.Grant:
		r.l.grants++
	case ctsim.Wait:
		r.l.waits++
	default:
		r.l.drops++
	}
	return v
}

func (r *tracedResource) ReleaseService(now float64, g ctsim.ResourceClient) {
	t0 := r.l.resource.begin()
	r.inner.ReleaseService(now, g)
	r.l.resource.end(t0)
}

func (r *tracedResource) CancelWait(now float64, g ctsim.ResourceClient) {
	t0 := r.l.resource.begin()
	r.inner.CancelWait(now, g)
	r.l.resource.end(t0)
}

func (r *tracedResource) AllowTransition(now float64, g ctsim.ResourceClient, deltaPowerW float64) bool {
	t0 := r.l.resource.begin()
	ok := r.inner.AllowTransition(now, g, deltaPowerW)
	r.l.resource.end(t0)
	return ok
}

// tracePaper runs pt's factories over seeds on one worker, untraced and
// then with every policy and arrival process wrapped, and checks that
// the two summaries are bit-identical. One worker runs the replicas in
// sequence, so the wrappers share l without locking.
func tracePaper(ctx context.Context, pt *paperTask, seeds []uint64, tl *tally) (*layers, error) {
	l := newLayers()
	par := experiment.Parallel{Workers: 1}
	c0 := cpuTime()
	plain, err := runPaper(ctx, pt.factories, pt.scenario, seeds, par)
	if err != nil {
		return nil, err
	}
	c1, rt0 := cpuTime(), readRuntime()

	var managers []*core.Manager
	var adaptives []*stochpm.Adaptive
	pfs := make([]experiment.PolicyFactory, len(pt.factories))
	for i, pf := range pt.factories {
		pfs[i] = experiment.PolicyFactory{Name: pf.Name, New: func(s *rng.Stream) (slotsim.Policy, error) {
			p, err := pf.New(s)
			if err != nil {
				return nil, err
			}
			switch q := p.(type) {
			case *core.Manager:
				managers = append(managers, q)
			case *stochpm.Adaptive:
				adaptives = append(adaptives, q)
			}
			return l.traceSlot(p), nil
		}}
	}
	sc := pt.scenario
	sc.Workload = func() workload.Arrivals { return &tracedArrivals{pt.scenario.Workload(), &l.source} }
	traced, err := runPaper(ctx, pfs, sc, seeds, par)
	if err != nil {
		return nil, err
	}
	c2, rt1 := cpuTime(), readRuntime()
	tl.check(paperDigest(traced) == paperDigest(plain), "traced paper sample differs from untraced")

	l.untracedCPU, l.tracedCPU = c1-c0, c2-c1
	l.gcCPU = time.Duration(float64(l.tracedCPU) * ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	l.slots = uint64(len(seeds)*len(pfs)) * uint64(sc.Slots)
	for _, m := range managers {
		l.qUpdates += m.Agent().Updates()
	}
	for _, a := range adaptives {
		l.resolves += a.Resolves
		l.alarms += a.AlarmCount
		l.fallbacks += a.LPFallbacks
		l.solveTime += a.SolveTime
	}
	return l, nil
}

// ---------------------------------------------------------------------------
// Rungs run outside any workload

// holdNs is the kernel's Schedule+Step cost per event in a hold model at
// the given queue depth: every fired event schedules one successor an
// Exp(1) gap later, so the depth stays fixed. Median of five passes.
func holdNs(depth int, seed uint64) float64 {
	s := rng.New(seed)
	var gaps [4096]float64
	for i := range gaps {
		gaps[i] = s.ExpFloat64()
	}
	k := eventq.New()
	j := 0
	var h eventq.Handler
	schedule := func(t float64) {
		if _, err := k.Schedule(t, h); err != nil {
			panic(err) // t is finite and never before now
		}
		j++
	}
	h = func(now float64) { schedule(now + gaps[j%len(gaps)]) }
	for i := 0; i < max(depth, 1); i++ {
		schedule(gaps[j%len(gaps)])
	}
	const steps = 1 << 18
	passes := make([]float64, 5)
	for p := range passes {
		t0 := clock()
		for i := 0; i < steps; i++ {
			k.Step()
		}
		passes[p] = float64(clock()-t0) / steps
	}
	return median(passes)
}

// lpRung times the model-based pipeline's re-solve pieces at the four
// Fig. 2 rates: mdp.BuildDPM, then stochpm.SolveLP and its allocation.
// Medians over eight passes; allocation is the mean per solve.
func lpRung() (buildUs, solveUs, allocKB float64, err error) {
	dev, err := experiment.CanonDevice()
	if err != nil {
		return 0, 0, 0, err
	}
	var builds, solves []float64
	var alloc uint64
	for pass := 0; pass < 8; pass++ {
		for _, p := range experiment.DefaultFig2().Rates {
			t0 := clock()
			d, err := mdp.BuildDPM(mdp.DPMConfig{Device: dev, ArrivalP: p,
				QueueCap: experiment.CanonQueueCap, LatencyWeight: experiment.CanonLatencyWeight})
			if err != nil {
				return 0, 0, 0, err
			}
			builds = append(builds, float64(clock()-t0)/1e3)
			a0 := readRuntime().allocs
			t1 := clock()
			if _, err := stochpm.SolveLP(d, nil); err != nil {
				return 0, 0, 0, fmt.Errorf("LP at rate %v: %w", p, err)
			}
			solves = append(solves, float64(clock()-t1)/1e3)
			alloc += readRuntime().allocs - a0
		}
	}
	return median(builds), median(solves), float64(alloc) / float64(len(solves)) / 1024, nil
}

// ---------------------------------------------------------------------------
// One traced round

// jobCounter counts the engine jobs of a round's engine calls.
type jobCounter struct{ jobs int }

func (s *jobCounter) pool() *engine.Pool {
	return &engine.Pool{Workers: workers, Progress: func(done, total int) {
		if done == total {
			s.jobs += total
		}
	}}
}

// traceRound runs one traced round of t: a full round on a job-counting
// pool (engine and GC metrics, and the round's checks), the workload's
// traced sample, a probe for each layer the workload never calls, and
// the kernel and LP rungs.
func traceRound(ctx context.Context, t *task, seed uint64, tl *tally, first *string) (map[string]float64, error) {
	var st jobCounter
	runtime0 := readRuntime()
	full, err := runRound(ctx, t, st.pool())
	runtime1 := readRuntime()
	if err != nil {
		return nil, err
	}
	tl.round(full, t.ref, first)

	var own *layers
	if t.fleet != nil {
		k := max(t.fleet.CoupleSize, 1)
		own, err = traceFleet(ctx, t.fleet, max(t.fleet.Devices/16/k*k, k), tl)
	} else {
		own, err = tracePaper(ctx, t.paper, t.paper.seeds[:max(len(t.paper.seeds)/4, 1)], tl)
	}
	if err != nil {
		return nil, err
	}

	// A layer the workload never calls is timed on a small probe, so each
	// of its times is a measurement on every workload; its counts stay the
	// workload's own zeros.
	fl, sh, pp := own, own, own
	if own.instances == 0 || own.requests == 0 {
		probe, err := newTask(fleetCoupled, seed, 10)
		if err != nil {
			return nil, err
		}
		pl, err := traceFleet(ctx, probe.fleet, probe.fleet.Devices, tl)
		if err != nil {
			return nil, fmt.Errorf("fleet probe: %w", err)
		}
		if own.instances == 0 {
			fl = pl
		}
		if own.requests == 0 {
			sh = pl
		}
	}
	if own.slots == 0 {
		probe, err := newPaperTask(seed, 25000, 1)
		if err != nil {
			return nil, err
		}
		if pp, err = tracePaper(ctx, probe.paper, probe.paper.seeds, tl); err != nil {
			return nil, fmt.Errorf("paper probe: %w", err)
		}
	}

	fdepth := ratio(float64(fl.depthSum), float64(fl.depthN))
	hold := holdNs(int(math.Round(fdepth)), seed)
	buildUs, solveUs, allocKB, err := lpRung()
	if err != nil {
		return nil, err
	}

	fev := float64(fl.events)
	return map[string]float64{
		"engine.jobs":                    float64(st.jobs),
		"fleet.instances":                float64(full.devices),
		"fleet.events_per_instance":      ratio(float64(full.events), float64(full.devices)),
		"fleet.reset_ns_per_instance":    ratio(float64(fl.resetNs), float64(fl.instances)),
		"fleet.overhead_ns_per_event":    ratio(float64(fl.fleetCPU), float64(fl.fleetEvents)) - ratio(float64(fl.untracedCPU), fev),
		"eventq.events":                  float64(own.events),
		"eventq.fel_depth_mean":          ratio(float64(own.depthSum), float64(own.depthN)),
		"eventq.ns_per_event":            hold,
		"ctsim.self_ns_per_event":        ratio(float64(fl.runNs)-fl.policyNs()-fl.source.total()-fl.resource.total()-hold*fev, fev),
		"ctsim.crashes":                  float64(own.crashes),
		"ctsim.retries":                  float64(own.retries),
		"ctsim.downtime_frac":            ratio(own.downtimeSec, own.instanceSec),
		"source.draws":                   float64(own.source.calls),
		"source.ns_per_draw":             own.source.perCall(),
		"policy.decisions":               float64(own.decisions()),
		"policy.ns_per_decision":         ratio(own.policyNs(), float64(own.decisions())),
		"policy.adapter_ns_per_decision": ratio(fl.policyNs()-fl.slotPolicyNs(), float64(fl.decisions())),
		"core.decisions":                 float64(own.coreDecide.calls),
		"core.ns_per_decide":             own.coreDecide.perCall(),
		"core.ns_per_observe":            own.coreObserve.perCall(),
		"qlearn.updates":                 float64(own.qUpdates),
		"shared.requests":                float64(own.requests),
		"shared.grants":                  float64(own.grants),
		"shared.waits":                   float64(own.waits),
		"shared.drops":                   float64(own.drops),
		"shared.ns_per_call":             sh.resource.perCall(),
		"shared.wait_s_mean":             ratio(own.resWaitSec, float64(own.waits)),
		"slotsim.slots":                  float64(own.slots),
		"slotsim.self_ns_per_slot":       ratio(float64(pp.tracedCPU-pp.gcCPU)-pp.policyNs()-pp.source.total(), float64(pp.slots)),
		"stochpm.resolves":               float64(own.resolves),
		"stochpm.alarms":                 float64(own.alarms),
		"stochpm.lp_fallbacks":           float64(own.fallbacks),
		"stochpm.solve_ms_per_resolve":   ratio(float64(pp.solveTime)/1e6, float64(pp.resolves)),
		"stochpm.observe_ns_per_slot":    pp.lpObserve.perCall(),
		"lp.solve_us":                    solveUs,
		"lp.alloc_kb_per_solve":          allocKB,
		"mdp.build_us":                   buildUs,
		"gc.cpu_frac":                    ratio(runtime1.gcCPU-runtime0.gcCPU, runtime1.totalCPU-runtime0.totalCPU),
		"gc.cycles":                      float64(runtime1.cycles - runtime0.cycles),
		"runtime.peak_rss_mb":            float64(peakRSSBytes()) / (1 << 20),
		"trace.overhead_frac":            ratio(float64(own.tracedCPU), float64(own.untracedCPU)) - 1,
	}, nil
}
