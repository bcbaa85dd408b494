// Package fleet is the multi-device simulation layer: it instantiates N
// heterogeneous (device, workload, policy) instances — drawn from the
// device catalog and the dist interarrival recipes, each with its own
// derived seed — shards them into fixed-size blocks, and runs the shards
// across the engine worker pool, streaming per-shard aggregates that
// merge into fleet-level results.
//
// The paper studies one service provider; the ROADMAP north star is a
// production-scale system serving millions of users. fleet is the layer
// between: a single call simulates thousands of independent power-managed
// devices under mixed workloads and mixed policies and reports fleet-wide
// energy, latency percentiles, loss, and per-class/per-policy breakdowns.
//
// Determinism contract (the repository-wide one, extended to fleets):
//
//   - Instance i's randomness is a pure function of (Spec.Seed, i): the
//     per-instance seed is engine.SeedFor(Spec.Seed, i) — an O(1) random
//     access, so no per-device seed vector exists — and the instance's
//     root stream splits into policy and simulator streams exactly like
//     the experiment layer's replicas, so a fleet instance with seed s is
//     bit-identical to a single-replica run with seed s.
//   - The shard decomposition depends only on (Spec.Devices,
//     Spec.ShardSize) — never on the worker count — and shard summaries
//     are reduced in shard-index order. A pooled run is therefore
//     bit-identical to a serial run for every -parallel value (CI diffs
//     qdpm-fleet output across pool sizes).
//   - Workers reuse everything: one event kernel, and per lane of the
//     largest group run one simulator, per class one pooled policy,
//     adapter, and arrival source, plus four in-place-reseeded rng
//     streams. Every reused object carries a Reset that restores
//     freshly-constructed state bit for bit, so per-worker state never
//     influences results — it only keeps instance turnover off the
//     allocator entirely: after warm-up a complete instance lifecycle
//     performs zero heap allocations
//     (TestFleetInstanceSetupAllocationFree), and the event loop itself
//     is allocation-free in steady state
//     (TestFleetCTEventLoopAllocationFree).
//   - Shard summaries stream through an index-ordered fold
//     (engine.MapReduce) and wait percentiles default to a
//     mergeable log-binned sketch (Spec.Quantiles), so fleet memory is
//     O(workers + classes), independent of the device count.
//
// Every instance runs on the continuous-time event kernel (ctsim) under
// the periodic governor, with the class's slotted policy behind the
// slot adapter.
//
// Coupling. Every shard runs as a sequence of groups on the worker's
// one event kernel. By default a group is a single instance with no
// shared resource, so instances are independent. Spec.Couple widens the
// groups: CoupleSize consecutive instances advance on ONE shared kernel
// (eventq's (time, seq) FIFO ordering arbitrates their interleaving
// deterministically) and contend for one internal/shared resource — a
// single-occupancy channel, a bounded gateway queue, or a group power
// budget. Groups never straddle shards, so coupling changes the
// simulated physics without touching the sharding, merge, or
// bit-identical -parallel contracts (DESIGN.md §8).
//
// Faults. Spec.Faults threads ctsim's deterministic fault layer —
// Exp(MTBF) crash/repair cycles, transient service failures with
// retry/backoff, and scheduled resource outages on coupled runs —
// through every instance, drawing all fault randomness from a third
// per-instance stream so a fault-free spec's output stays
// byte-identical to the pre-fault layer (DESIGN.md §9).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/eventq"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/shared"
	"repro/internal/slotsim"
)

// QuantileMode selects how fleet-level wait percentiles are computed.
type QuantileMode string

const (
	// QuantilesSketch (the default) accumulates per-instance mean waits
	// into a mergeable log-binned sketch (stats.QuantileSketch) with
	// relative accuracy WaitSketchAccuracy. Memory is O(log range) per
	// shard summary — independent of the device count — which is what
	// keeps a million-device fleet's footprint bounded.
	QuantilesSketch QuantileMode = "sketch"
	// QuantilesExact additionally keeps every instance's mean wait in
	// instance order, so WaitQuantile returns exact order statistics.
	// Memory is O(devices); meant for small fleets and for auditing the
	// sketch (TestSketchQuantilesWithinBoundOfExact).
	QuantilesExact QuantileMode = "exact"
)

// WaitSketchAccuracy is the sketch mode's relative-error bound: every
// reported wait percentile is within 1% of the corresponding exact
// order statistic (see stats.QuantileSketch for the precise statement).
const WaitSketchAccuracy = 0.01

// CoupleMode selects the shared resource the instances of a coupled
// group contend for. Coupling widens the shard loop's groups from one
// instance to CoupleSize consecutive instances advancing on ONE shared
// event kernel, their event streams interleaved deterministically by
// (time, seq), with the group's resource arbitrating service starts and
// power commands (see internal/shared).
type CoupleMode string

const (
	// CoupleNone runs every instance as a group of one with no shared
	// resource — the default, byte-identical to the pre-coupling fleet
	// layer.
	CoupleNone CoupleMode = ""
	// CoupleChannel couples each group through a single-occupancy
	// channel: one device's service occupies the medium, contenders
	// queue FIFO (a WLAN cell). Interference shows up as
	// ResourceWaitSec.
	CoupleChannel CoupleMode = "channel"
	// CoupleGateway couples each group through a gateway with one
	// server and a bounded wait room (Spec.GatewayWait): requests
	// beyond the wait room are dropped. Interference shows up as
	// ResourceWaitSec and ResourceDrops.
	CoupleGateway CoupleMode = "gateway"
	// CouplePower couples each group through a power budget capping
	// the group's summed settled-state power at Spec.BudgetFrac times
	// the group's summed always-on power: transitions that would
	// overrun it are vetoed. Interference shows up as BudgetDenied.
	CouplePower CoupleMode = "power"
)

// Class describes one homogeneous sub-population of the fleet: a catalog
// device under an interarrival law, managed by a named policy. Instances
// are assigned to classes by weighted round-robin over the instance
// index, so the assignment is a pure function of the Spec.
type Class struct {
	// Device is the managed physical PSM (a catalog entry or a custom
	// one).
	Device *device.PSM
	// Dist names the interarrival law (a dist.ByName key: exp, pareto,
	// weibull, erlang, hyperexp, uniform).
	Dist string
	// RatePerSec is the long-run arrival rate in requests per second.
	RatePerSec float64
	// Policy names the power-management policy, one of the registry
	// policies a mix accepts (see ParseMix), e.g. "timeout=8" or "q-dpm".
	Policy string
	// Weight is the class's share of instances (>= 1; default 1).
	Weight int
}

// Name returns the class's display label, device:dist@rate/policy.
func (c *Class) Name() string {
	return fmt.Sprintf("%s:%s@%g/%s", c.Device.Name, c.Dist, c.RatePerSec, c.Policy)
}

// validate checks one class and fills its weight default.
func (c *Class) validate(i int) error {
	if c.Device == nil {
		return fmt.Errorf("fleet: class %d needs a device", i)
	}
	if !(c.RatePerSec > 0) || math.IsInf(c.RatePerSec, 0) {
		return fmt.Errorf("fleet: class %d rate %v must be positive and finite", i, c.RatePerSec)
	}
	if _, err := dist.ByName(c.Dist, c.RatePerSec); err != nil {
		return fmt.Errorf("fleet: class %d: %w", i, err)
	}
	if _, _, err := parsePolicy(c.Policy); err != nil {
		return fmt.Errorf("fleet: class %d: %w", i, err)
	}
	if c.Weight < 0 {
		return fmt.Errorf("fleet: class %d weight %d must be >= 0", i, c.Weight)
	}
	if c.Weight == 0 {
		c.Weight = 1
	}
	return nil
}

// Spec describes one fleet run. The zero values of Period, QueueCap,
// LatencyWeight, and ShardSize take the canonical defaults (Validate
// fills them in).
type Spec struct {
	// Devices is the number of instances.
	Devices int
	// Classes is the heterogeneity mix (see ParseMix / DefaultMix).
	Classes []Class
	// Horizon is each instance's run length in seconds.
	Horizon float64
	// Period is the governor tick in seconds, the slot length the
	// policies decide in (default 0.5, the canonical slot).
	Period float64
	// QueueCap bounds each instance's queue (default 8).
	QueueCap int
	// LatencyWeight scalarizes backlog into cost, in J per request-slot
	// (default 0.3); the runner rescales it to J per request-second.
	LatencyWeight float64
	// ShardSize is the number of instances per pool job (default 128).
	// It shapes scheduling granularity only — results are independent of
	// it in the aggregate, but the shard decomposition is part of the
	// summary's merge tree, so keep it fixed when comparing runs.
	ShardSize int
	// Quantiles selects sketch (default) or exact wait percentiles.
	Quantiles QuantileMode
	// Couple selects the coupled mode's shared resource (default
	// CoupleNone: independent instances).
	Couple CoupleMode
	// CoupleSize is the number of consecutive instances per coupled
	// group (default 8 when Couple is set). ShardSize must be a
	// multiple of it — groups never straddle shards, which is what
	// keeps shards independent and the -parallel contract intact.
	// When ShardSize is defaulted, Validate rounds it up to a multiple.
	CoupleSize int
	// BudgetFrac scales the CouplePower cap: cap = BudgetFrac × the
	// group's summed always-on power (default 0.5). Values >= 1 make
	// the budget non-binding from the initial all-on draw.
	BudgetFrac float64
	// GatewayWait is the CoupleGateway wait-room bound (default 2).
	GatewayWait int
	// Faults enables deterministic fault injection (nil: fault-free,
	// output byte-identical to a build without the fault layer). See
	// FaultSpec. Outage windows require a couple mode.
	Faults *FaultSpec
	// Seed roots the per-instance seed derivation.
	Seed uint64
}

const (
	defaultPeriod        = 0.5
	defaultQueueCap      = 8
	defaultLatencyWeight = 0.3
	defaultShardSize     = 128
	defaultCoupleSize    = 8
	defaultBudgetFrac    = 0.5
	defaultGatewayWait   = 2
)

// Validate checks the spec and fills defaults (it mutates the receiver).
func (sp *Spec) Validate() error {
	if sp.Devices <= 0 {
		return fmt.Errorf("fleet: device count %d must be positive", sp.Devices)
	}
	if len(sp.Classes) == 0 {
		return fmt.Errorf("fleet: spec needs at least one class")
	}
	if !(sp.Horizon > 0) || math.IsInf(sp.Horizon, 0) {
		return fmt.Errorf("fleet: horizon %v must be positive and finite", sp.Horizon)
	}
	if sp.Period == 0 {
		sp.Period = defaultPeriod
	}
	if !(sp.Period > 0) || math.IsInf(sp.Period, 0) {
		return fmt.Errorf("fleet: period %v must be positive and finite", sp.Period)
	}
	if sp.QueueCap == 0 {
		sp.QueueCap = defaultQueueCap
	}
	if sp.QueueCap < 0 {
		return fmt.Errorf("fleet: negative queue capacity %d", sp.QueueCap)
	}
	if sp.QueueCap > maxQueueCap {
		return fmt.Errorf("fleet: queue capacity %d above %d", sp.QueueCap, maxQueueCap)
	}
	if sp.LatencyWeight == 0 {
		sp.LatencyWeight = defaultLatencyWeight
	}
	if sp.LatencyWeight < 0 || math.IsNaN(sp.LatencyWeight) {
		return fmt.Errorf("fleet: latency weight %v must be >= 0", sp.LatencyWeight)
	}
	switch sp.Couple {
	case CoupleNone, CoupleChannel, CoupleGateway, CouplePower:
	default:
		return fmt.Errorf("fleet: unknown couple mode %q (want %q, %q, or %q)", sp.Couple, CoupleChannel, CoupleGateway, CouplePower)
	}
	if sp.Couple != CoupleNone {
		if sp.CoupleSize == 0 {
			sp.CoupleSize = defaultCoupleSize
		}
		if sp.CoupleSize < 1 {
			return fmt.Errorf("fleet: couple size %d must be >= 1", sp.CoupleSize)
		}
		// Groups must never straddle shards: a defaulted shard size is
		// rounded up to a multiple of the couple size; an explicit one
		// that is not a multiple is an error, not a silent reshard.
		if sp.ShardSize == 0 {
			k := sp.CoupleSize
			sp.ShardSize = (defaultShardSize-1)/k*k + k
		}
		if sp.ShardSize%sp.CoupleSize != 0 {
			return fmt.Errorf("fleet: shard size %d must be a multiple of couple size %d (groups cannot straddle shards)", sp.ShardSize, sp.CoupleSize)
		}
		if sp.BudgetFrac == 0 {
			sp.BudgetFrac = defaultBudgetFrac
		}
		if !(sp.BudgetFrac > 0) || math.IsInf(sp.BudgetFrac, 0) {
			return fmt.Errorf("fleet: budget fraction %v must be positive and finite", sp.BudgetFrac)
		}
		if sp.GatewayWait == 0 {
			sp.GatewayWait = defaultGatewayWait
		}
		if sp.GatewayWait < 0 {
			return fmt.Errorf("fleet: gateway wait room %d must be >= 0", sp.GatewayWait)
		}
	} else if sp.CoupleSize != 0 {
		return fmt.Errorf("fleet: couple size %d set without a couple mode", sp.CoupleSize)
	}
	if sp.ShardSize == 0 {
		sp.ShardSize = defaultShardSize
	}
	if sp.ShardSize < 1 {
		return fmt.Errorf("fleet: shard size %d must be >= 1", sp.ShardSize)
	}
	if sp.Quantiles == "" {
		sp.Quantiles = QuantilesSketch
	}
	if sp.Quantiles != QuantilesSketch && sp.Quantiles != QuantilesExact {
		return fmt.Errorf("fleet: unknown quantile mode %q (want %q or %q)", sp.Quantiles, QuantilesSketch, QuantilesExact)
	}
	if sp.Faults != nil {
		if err := sp.Faults.validate(sp.Period, sp.Couple); err != nil {
			return err
		}
	}
	for i := range sp.Classes {
		if err := sp.Classes[i].validate(i); err != nil {
			return err
		}
	}
	return checkTotalWeight(sp.Classes)
}

// maxQueueCap bounds Spec.QueueCap: every lane's policies size their
// tables by the queue capacity, so an unbounded cap can exhaust memory
// before the first instance runs. 4096 is far above any cap in use (the
// experiments use at most 40).
const maxQueueCap = 4096

// maxTotalWeight bounds the summed class weights: the runner
// materializes one round-robin pattern entry per unit of weight.
const maxTotalWeight = 1 << 16

// checkTotalWeight rejects validated classes whose weights sum past
// maxTotalWeight, checking while summing so the sum cannot overflow.
func checkTotalWeight(classes []Class) error {
	left := maxTotalWeight
	for i := range classes {
		w := classes[i].Weight
		if w > left {
			return fmt.Errorf("fleet: class %d weight %d takes the total class weight above %d", i, w, maxTotalWeight)
		}
		left -= w
	}
	return nil
}

// Shards returns the number of pool jobs a run of this spec fans out.
// Unlike the rounded-up quotient, this form cannot overflow near
// MaxInt shard sizes.
func (sp *Spec) Shards() int {
	return (sp.Devices-1)/sp.ShardSize + 1
}

// shardRange returns the instance range [lo, hi) of shard s.
func (sp *Spec) shardRange(s int) (lo, hi int) {
	lo = s * sp.ShardSize
	return lo, lo + min(sp.ShardSize, sp.Devices-lo)
}

// ---------------------------------------------------------------------------
// Runner

// class is a Class compiled for execution: slotted device form, class
// label, the always-on reference power, and the interarrival law
// compiled once so instances never re-box a dist.Continuous.
type compiledClass struct {
	src      Class
	name     string
	slotted  *device.Slotted
	maxPower float64
	// polName and timeoutSlots are the class's parsed policy token.
	polName      string
	timeoutSlots int64
	arrDist      dist.Continuous
}

// runner holds the per-run immutable state shared by every shard. It is
// O(classes): per-instance seeds are computed on demand
// (engine.SeedFor), so the runner holds no per-device state at all.
type runner struct {
	spec    Spec
	classes []compiledClass
	// pattern maps i % len(pattern) to a class index — the weighted
	// round-robin interleave that assigns instances to classes.
	pattern []int
	// sumFree recycles shard summaries between runShard (producer) and
	// the serialized reducer in Run (consumer, which returns each part
	// after merging it). A free list — rather than one summary per worker
	// — is required because engine.MapReduce buffers a window of
	// completed summaries per worker for the in-order fold, so a worker
	// may start its next shard while earlier summaries are still queued.
	// With recycling, summary construction cost scales with the in-flight
	// window (O(workers)), not with the number of shards run. A plain
	// mutexed stack beats sync.Pool here: the GC clears sync.Pool's
	// caches mid-run, forcing fresh summaries for no benefit, and the
	// lock is uncontended in practice (a take/put pair per multi-
	// millisecond shard).
	sumMu   sync.Mutex
	sumFree []*Summary
}

// takeSummary returns a recycled shard summary reset for n instances,
// or a fresh one when the free list is empty.
func (r *runner) takeSummary(n int) *Summary {
	r.sumMu.Lock()
	if k := len(r.sumFree); k > 0 {
		s := r.sumFree[k-1]
		r.sumFree = r.sumFree[:k-1]
		r.sumMu.Unlock()
		s.reset(r, n)
		return s
	}
	r.sumMu.Unlock()
	return newSummary(r, n)
}

// putSummary returns a merged shard summary to the free list. Callers
// must not retain any reference into it (Merge copies everything it
// keeps).
func (r *runner) putSummary(s *Summary) {
	r.sumMu.Lock()
	r.sumFree = append(r.sumFree, s)
	r.sumMu.Unlock()
}

// workerScratch is one worker's reusable simulation state: the event
// kernel every group runs on, one lane per slot of the largest group
// run so far, and the shared resource of coupled runs. Every piece
// survives across all the shards the worker runs — an instance
// lifecycle is Reseed + Reset + Run with zero heap traffic
// (TestFleetInstanceSetupAllocationFree) — without influencing results:
// a reset object is bit-identical to a freshly built one.
type workerScratch struct {
	kernel *eventq.Kernel
	lanes  []lane

	// At most one of the three is non-nil, per Spec.Couple.
	channel *shared.Channel
	gateway *shared.Gateway
	budget  *shared.PowerBudget
	// outage drives the group resource's scheduled outage windows
	// (Spec.Faults.OutagePeriod > 0); reused across groups.
	outage outageDriver
}

// lanesFor returns the worker's first n lanes, growing the pool on
// first need — only ever to the largest group actually run.
func (ws *workerScratch) lanesFor(n int) []lane {
	if len(ws.lanes) < n {
		ws.lanes = append(ws.lanes, make([]lane, n-len(ws.lanes))...)
	}
	return ws.lanes[:n]
}

// lane is one instance slot of a group: the pooled CT simulator, one
// pooled object set per class, and the instance's own rng streams.
// Lanes of a group are live concurrently in event time, so each owns
// its streams. root is reseeded from the instance seed and split into
// the policy and simulator streams, reproducing rng.New(seed).Split()/
// .Split() bit for bit; faulted runs split a third, fault-dedicated
// stream after those two, so enabling faults never perturbs the policy
// or arrival sequences.
type lane struct {
	sim     *ctsim.Sim
	classes []classScratch

	root        rng.Stream
	polStream   rng.Stream
	simStream   rng.Stream
	faultStream rng.Stream
}

// start points the lane at instance i and returns its class's pooled
// objects: the class set is built on first use (with res wired into its
// cached config), the streams are reseeded from the instance seed, and
// the policy and arrival source are reset. After it returns, running
// the instance is bit-identical to building everything fresh.
func (ln *lane) start(r *runner, i int, res ctsim.Resource) (*classScratch, error) {
	ci := r.classOf(i)
	if ln.classes == nil {
		ln.classes = make([]classScratch, len(r.classes))
	}
	cs := &ln.classes[ci]
	if cs.pol == nil {
		if err := cs.build(r, ci, &ln.polStream, &ln.simStream, &ln.faultStream, res); err != nil {
			// Discard the half-built set: the memo keys on cs.pol, so a
			// partially-filled scratch would be handed out as complete to
			// the lane's next instance of this class and panic instead of
			// failing with the real error.
			*cs = classScratch{}
			return nil, err
		}
	}
	ln.root.Reseed(engine.SeedFor(r.spec.Seed, uint64(i)))
	ln.root.SplitInto(&ln.polStream)
	ln.root.SplitInto(&ln.simStream)
	if r.spec.Faults.crashOrRetry() {
		ln.root.SplitInto(&ln.faultStream)
	}
	cs.resetPol(&ln.polStream)
	cs.src.Reset()
	return cs, nil
}

// classScratch is one lane's pooled object set for one class.
type classScratch struct {
	pol      slotsim.Policy
	resetPol func(*rng.Stream)
	src      *ctsim.RenewalSource
	// faults is the cached per-(lane, class) ctsim fault config; cfg
	// points at it when the spec enables crash/retry faults. Its Stream
	// aliases the lane's fault stream, reseeded per instance.
	faults ctsim.Faults
	// cfg is the instance configuration for this (lane, class) pair —
	// every field is constant across instances (the per-instance state
	// lives in the stream, source, and policy, all reset in place) — so
	// it is validated once here and every Reset takes the
	// ctsim.ResetValidated fast path.
	cfg ctsim.Config
}

// build fills one classScratch for class ci with the lane's policy,
// simulator, and fault streams and an optional shared resource wired
// into the cached config. It performs the only allocations ever made
// per (lane, class); every instance after that reuses the set via
// resets.
func (cs *classScratch) build(r *runner, ci int, polStream, simStream, faultStream *rng.Stream, res ctsim.Resource) error {
	cc := &r.classes[ci]
	pol, err := registry.New(cc.polName, registry.Args{Device: cc.slotted, QueueCap: r.spec.QueueCap,
		LatencyWeight: r.spec.LatencyWeight, TimeoutSlots: cc.timeoutSlots, Stream: polStream})
	if err != nil {
		return err
	}
	reset, err := policyReset(pol)
	if err != nil {
		return err
	}
	cs.pol, cs.resetPol = pol, reset
	if cs.src, err = ctsim.NewRenewalSource(cc.arrDist); err != nil {
		return err
	}
	// Instances never run past the spec horizon, so the source can size
	// its pre-draw blocks against it instead of buying a full ramp block
	// for the one speculative past-horizon draw. Purely a sizing hint:
	// arrival sequences (and so all output) are unchanged.
	cs.src.SetLimit(r.spec.Horizon)
	cs.cfg = ctsim.Config{
		Device:         cc.src.Device,
		QueueCap:       r.spec.QueueCap,
		LatencyWeight:  r.spec.LatencyWeight / r.spec.Period,
		Policy:         ctsim.Adapt(pol, r.spec.Period),
		Source:         cs.src,
		Stream:         simStream,
		DecisionPeriod: r.spec.Period,
		Resource:       res,
	}
	if f := r.spec.Faults; f.crashOrRetry() {
		cs.faults = ctsim.Faults{
			CrashMTBF:  f.CrashMTBF,
			RepairMean: f.RepairMean,
			FailProb:   f.FailProb,
			RetryMax:   f.RetryMax,
			Backoff:    f.Backoff,
			Stream:     faultStream,
		}
		cs.cfg.Faults = &cs.faults
	}
	return cs.cfg.Validate()
}

func newRunner(spec Spec) (*runner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := &runner{spec: spec}
	for ci := range spec.Classes {
		c := spec.Classes[ci]
		sl, err := c.Device.Slot(spec.Period)
		if err != nil {
			return nil, fmt.Errorf("fleet: class %d (%s): %w", ci, c.Name(), err)
		}
		name, timeoutSlots, err := parsePolicy(c.Policy)
		if err != nil {
			return nil, err
		}
		arrDist, err := dist.ByName(c.Dist, c.RatePerSec)
		if err != nil {
			return nil, fmt.Errorf("fleet: class %d (%s): %w", ci, c.Name(), err)
		}
		r.classes = append(r.classes, compiledClass{
			src:          c,
			name:         c.Name(),
			slotted:      sl,
			maxPower:     c.Device.MaxPower(),
			polName:      name,
			timeoutSlots: timeoutSlots,
			arrDist:      arrDist,
		})
		for w := 0; w < c.Weight; w++ {
			r.pattern = append(r.pattern, ci)
		}
	}
	return r, nil
}

// classOf returns the class index of instance i — the weighted
// round-robin interleave, a pure function of the spec.
func (r *runner) classOf(i int) int { return r.pattern[i%len(r.pattern)] }

// instanceErr names instance i and its class in a failure.
func (r *runner) instanceErr(i int, err error) error {
	return fmt.Errorf("fleet: instance %d (%s): %w", i, r.classes[r.classOf(i)].name, err)
}

// cancelChunkTicks bounds cancellation latency: groups run in chunks of
// this many governor ticks (× Period seconds each) and poll the context
// between chunks.
const cancelChunkTicks = 8192

// runShard executes one contiguous block of instances and returns its
// streaming summary. Instances run in index order, as groups of
// max(CoupleSize, 1) on the worker's one kernel (see runGroupCT; an
// uncoupled instance is a group of one with no shared resource), and
// fold into the summary as each group finishes — so in ascending
// instance order. Groups are aligned to absolute instance index —
// Validate makes ShardSize a multiple of CoupleSize — so only the
// fleet's trailing group can be partial.
func (r *runner) runShard(ctx context.Context, shard int, ws *workerScratch) (*Summary, error) {
	lo, hi := r.spec.shardRange(shard)
	sum := r.takeSummary(hi - lo)
	size := max(r.spec.CoupleSize, 1)
	// The context is polled here about once per pollEvery instances
	// (instances shorter than a cancellation chunk never poll it
	// themselves), so a canceled run stops within a bounded handful of
	// instances without paying a per-instance context check — Err on a
	// cancelable context takes a mutex, which is measurable at a million
	// instances.
	const pollEvery = 16
	nextPoll := lo
	for glo := lo; glo < hi; {
		ghi := glo + min(size, hi-glo)
		if glo >= nextPoll {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			nextPoll = glo + pollEvery
		}
		if err := r.runGroupCT(ctx, glo, ghi, ws, sum); err != nil {
			return nil, err
		}
		glo = ghi
	}
	return sum, nil
}

// ShardError records one failed shard of a fleet run: the shard index,
// the instance range it owned, and the failure (an *engine.PanicError
// if the shard's worker panicked).
type ShardError struct {
	Shard  int
	Lo, Hi int // instance range [Lo, Hi) the shard owned
	Err    error
}

// Error implements error.
func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %d (instances [%d,%d)): %v", e.Shard, e.Lo, e.Hi, e.Err)
}

// Unwrap exposes the shard's underlying error to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// PartialError reports a fleet run that degraded gracefully: some
// shards failed (listed ascending by shard index), every other shard
// finished, and Run still returned the merged summary of the
// survivors. Callers that can use a partial fleet (reporting tools,
// sweeps) inspect the summary; callers that cannot treat it like any
// other error.
type PartialError struct {
	// Failed lists the failed shards, ascending by shard index.
	Failed []ShardError
	// Shards is the run's total shard count.
	Shards int
}

// Error implements error, listing up to five failed shards.
func (e *PartialError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d of %d shards failed:", len(e.Failed), e.Shards)
	for i := range e.Failed {
		if i == 5 {
			fmt.Fprintf(&b, "; and %d more", len(e.Failed)-i)
			break
		}
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, " %v", &e.Failed[i])
	}
	return b.String()
}

// Run simulates the fleet on the pool (nil pool = GOMAXPROCS workers)
// and returns the merged fleet summary. Output is bit-identical for
// every pool size: shards are a pure function of the spec and their
// summaries stream through the fold in shard-index order
// (engine.MapReduce), so resident memory is O(workers + classes) —
// per-worker pooled simulators plus a bounded window of in-flight
// shard summaries — never O(devices), which is what
// makes a million-device fleet a time budget rather than a memory
// budget. (The exact-quantile opt-in is the one exception: it
// accumulates one float per instance; see Spec.Quantiles.)
//
// Shard failures degrade gracefully: a shard that errors or panics is
// dropped from the fold, the remaining shards still run, and Run
// returns the survivors' merged summary alongside a *PartialError
// naming the casualties. Context cancellation stays fatal (nil
// summary), as do spec errors.
func Run(ctx context.Context, spec Spec, pool *engine.Pool) (*Summary, error) {
	r, err := newRunner(spec)
	if err != nil {
		return nil, err
	}
	return runWith(ctx, r, pool)
}

// runWith is Run's body after spec validation, split out so tests can
// drive a deliberately poisoned runner through the degradation path.
func runWith(ctx context.Context, r *runner, pool *engine.Pool) (*Summary, error) {
	shards := r.spec.Shards()
	scratch := make([]workerScratch, pool.Size(shards))
	total := newSummary(r, 0)
	var failed []ShardError
	err := engine.MapReduce(ctx, pool, shards,
		func(ctx context.Context, worker, si int) (*Summary, error) {
			return r.runShard(ctx, si, &scratch[worker])
		},
		func(si int, part *Summary, err error) error {
			switch {
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				// Once the context is done every remaining shard is
				// doomed the same way, so stop rather than skip ahead.
				return err
			case err != nil:
				lo, hi := r.spec.shardRange(si)
				failed = append(failed, ShardError{Shard: si, Lo: lo, Hi: hi, Err: err})
				return nil
			}
			total.Merge(part)
			r.putSummary(part)
			return nil
		})
	if err != nil {
		return nil, err
	}
	total.Shards = shards
	if len(failed) > 0 {
		return total, &PartialError{Failed: failed, Shards: shards}
	}
	return total, nil
}
