// Command qdpm-fleet simulates a fleet of heterogeneous power-managed
// devices — catalog devices under mixed interarrival laws and mixed
// policies — sharded across the worker pool, and reports fleet-level
// energy, latency percentiles, loss, and per-class/per-policy
// breakdowns. Every device runs on the continuous-time event kernel
// (ctsim) under the periodic governor:
//
//	qdpm-fleet -devices 10000                      # canonical mix
//	qdpm-fleet -mix hdd:exp:0.08:timeout=8:2,wlan:hyperexp:2:q-dpm
//	qdpm-fleet -devices 5000 -replicas 4 -json     # machine-readable output
//	qdpm-fleet -devices 1000000 -progress          # million-device run,
//	                                               # periodic devices/s
//	qdpm-fleet -devices 2000 -quantiles exact      # exact order statistics
//	qdpm-fleet -devices 10000 -couple channel -couple-size 8
//	                                               # groups of 8 sharing one
//	                                               # clock and channel
//	qdpm-fleet -devices 10000 -faults mtbf=150,repair=10,fail=0.05
//	                                               # crash/repair cycles +
//	                                               # transient retry/backoff
//	qdpm-fleet -devices 10000 -couple channel -faults outage=60/5
//	                                               # scheduled channel jams
//	qdpm-fleet -devices 1000000 -timeout 10m       # wall-clock deadline
//
// Coupled mode (-couple channel|gateway|power) advances groups of
// -couple-size consecutive instances on one shared event kernel with a
// shared resource arbitrating service starts and power commands, and
// adds per-class cross-device interference metrics (contention wait,
// gateway drops, budget denials) to the report. Uncoupled output is
// byte-identical to earlier releases, coupled or not -parallel.
//
// Fault injection (-faults, see fleet.ParseFaults for the grammar) adds
// deterministic device crash/repair cycles, transient service failures
// with bounded exponential-backoff retries, and — on coupled runs —
// scheduled outage windows on the shared resource (channel jams,
// gateway downtime, power brownouts via brownout=). The report grows
// availability/crash/retry columns and the JSON a "resilience" block;
// a run without -faults stays byte-identical to earlier releases. A
// shard that fails no longer kills the run: the report covers the
// surviving shards and the command exits nonzero with a partial-failure
// report naming the failed shards and their instance ranges.
//
// Wait percentiles default to the mergeable log-binned sketch (1%
// relative error, memory independent of the device count — the setting
// that makes -devices 1000000 a time budget, not a memory budget);
// -quantiles exact opts small fleets into exact order statistics.
// Output on stdout is bit-identical for every -parallel value (CI diffs
// serial against pooled); wall-clock throughput goes to stderr.
//
// -cpuprofile and -memprofile write pprof profiles of the run on exit
// (the heap profile is taken after the fleet completes). Profiling never
// touches stdout, so a profiled run's report stays bit-identical to an
// unprofiled one.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/fleet"
)

func main() {
	if err := run(context.Background(), os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "qdpm-fleet: %v\n", err)
		os.Exit(1)
	}
}

// maxReplicas bounds -replicas: the replica seeds are derived before
// any run, one word per replica, so an unchecked count (say 1e12) runs
// out of memory instead of reporting an error.
const maxReplicas = 1 << 16

// run parses args, executes the fleet, and writes the report to w.
func run(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("qdpm-fleet", flag.ContinueOnError)
	var (
		devices  = fs.Int("devices", 1000, "number of device instances")
		mixStr   = fs.String("mix", "", "fleet mix: device:dist:rate:policy[:weight],... (default: canonical heterogeneous mix)")
		horizon  = fs.Float64("horizon", 400, "per-instance horizon in seconds")
		period   = fs.Float64("period", 0, "governor tick in seconds (0 = canonical 0.5)")
		queueCap = fs.Int("qcap", 0, "queue capacity per instance (0 = canonical 8)")
		latW     = fs.Float64("latw", 0, "latency weight in J per request-slot (0 = canonical 0.3)")
		shard    = fs.Int("shard", 0, "instances per pool job (0 = default 128; coupled runs round the default up to a -couple-size multiple)")
		couple   = fs.String("couple", "", "coupled mode's shared resource: channel, gateway, or power (default: uncoupled independent instances)")
		coupleK  = fs.Int("couple-size", 0, "instances per coupled group sharing one kernel and resource (0 = default 8 when -couple is set)")
		budgetF  = fs.Float64("budget-frac", 0, "power-budget cap as a fraction of each group's summed always-on power (0 = default 0.5; -couple power only)")
		gateWait = fs.Int("gateway-wait", 0, "gateway wait-room bound (0 = default 2; -couple gateway only)")
		faultStr = fs.String("faults", "", "fault injection: mtbf=,repair=,fail=,retries=,backoff=,outage=period[/dur],brownout= (default: no faults; outage needs -couple)")
		timeout  = fs.Duration("timeout", 0, "wall-clock deadline for the whole run (0 = none); on expiry the run aborts with an error naming the shards completed")
		seed     = fs.Uint64("seed", 1, "base seed; replica seeds derive from it")
		replicas = fs.Int("replicas", 1, "independent fleet replications to pool")
		parallel = fs.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS, 1 = serial)")
		asJSON   = fs.Bool("json", false, "emit a JSON report instead of the table")
		quant    = fs.String("quantiles", "sketch", "wait percentiles: sketch (mergeable log-binned, 1% relative error, memory independent of -devices) or exact (order statistics, O(devices) memory)")
		progress = fs.Bool("progress", false, "print periodic devices/s progress to stderr (for long million-device runs)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	classes := fleet.DefaultMix()
	if *mixStr != "" {
		var err error
		if classes, err = fleet.ParseMix(*mixStr); err != nil {
			return err
		}
	}
	var faults *fleet.FaultSpec
	if *faultStr != "" {
		var err error
		if faults, err = fleet.ParseFaults(*faultStr); err != nil {
			return err
		}
	}
	if *replicas < 1 {
		return fmt.Errorf("replicas %d must be >= 1", *replicas)
	}
	if *replicas > maxReplicas {
		return fmt.Errorf("replicas %d above %d", *replicas, maxReplicas)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		// Registered up front so the heap snapshot lands even on error
		// exits; taken after the run, when the steady-state footprint
		// (pooled worker scratch, shard-summary window) is what's live.
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "qdpm-fleet: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "qdpm-fleet: memprofile: %v\n", err)
			}
		}()
	}
	sc := experiment.FleetScenario{
		Name: "fleet",
		Spec: fleet.Spec{
			Devices:       *devices,
			Classes:       classes,
			Horizon:       *horizon,
			Period:        *period,
			QueueCap:      *queueCap,
			LatencyWeight: *latW,
			ShardSize:     *shard,
			Quantiles:     fleet.QuantileMode(*quant),
			Couple:        fleet.CoupleMode(*couple),
			CoupleSize:    *coupleK,
			BudgetFrac:    *budgetF,
			GatewayWait:   *gateWait,
			Faults:        faults,
		},
	}
	par := experiment.Parallel{Workers: *parallel}
	if *progress {
		// Periodic devices/s to stderr (throttled to ~1/s): replicas run
		// sequentially and each restarts its shard counter at 1, so a
		// replica's shards are banked into prevShards the moment its
		// last shard folds. The shard grid is uniform, so done/total is
		// the fraction of the current replica's devices already folded.
		start := time.Now()
		var last time.Time
		prevShards := 0
		par.Progress = func(done, total int) {
			shardsDone := prevShards + done
			if done == total {
				prevShards += total
			}
			now := time.Now()
			if now.Sub(last) < time.Second && done != total {
				return
			}
			last = now
			devicesDone := float64(shardsDone) / float64(total) * float64(*devices)
			fmt.Fprintf(os.Stderr, "\r# %.0f devices done (%.0f devices/s)",
				devicesDone, devicesDone/now.Sub(start).Seconds())
		}
	}

	// shardsDone counts folded shards cumulatively across replicas (the
	// engine serializes Progress calls, one per shard) so the -timeout
	// error can say how far the run got. Chains any -progress reporter.
	shardsDone := 0
	{
		prev := par.Progress
		par.Progress = func(done, total int) {
			shardsDone++
			if prev != nil {
				prev(done, total)
			}
		}
	}

	// Ctrl-C cancels the pool; shards poll the context between chunks.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	sum, err := experiment.RunFleetReplicatedCtx(ctx, sc, engine.DeriveSeeds(*seed, *replicas), par)
	if *progress {
		fmt.Fprintln(os.Stderr) // terminate the \r-overwritten progress line
	}
	if err != nil {
		if *timeout > 0 && errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("wall-clock timeout %v exceeded after %d shards", *timeout, shardsDone)
		}
		if sum == nil {
			return err
		}
		// Partial failure: report the surviving shards, then exit nonzero
		// with the casualty list (deferred below so profiles still land).
	}
	elapsed := time.Since(start)

	if *asJSON {
		if jerr := writeJSON(w, sum, sc.Spec.Quantiles); jerr != nil {
			return jerr
		}
	} else {
		tab, terr := experiment.FleetTable(sum)
		if terr != nil {
			return terr
		}
		experiment.RenderTable(w, tab.Title, tab.Headers, tab.Rows)
		fmt.Fprintf(w, "# %s\n", tab.Note)
	}
	// Wall-clock figures of merit go to stderr: stdout must stay
	// bit-identical across -parallel values.
	fmt.Fprintf(os.Stderr, "# %d devices in %v — %.0f devices/s, %.1f ns/event\n",
		sum.Fleet.Devices, elapsed.Round(time.Millisecond),
		float64(sum.Fleet.Devices)/elapsed.Seconds(),
		float64(elapsed.Nanoseconds())/float64(max(sum.Fleet.Events, 1)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "# PARTIAL RESULT: the report above covers surviving shards only")
		return fmt.Errorf("partial failure: %w", err)
	}
	return nil
}

// jsonGroup is one aggregate row of the JSON report.
type jsonGroup struct {
	Name            string  `json:"name"`
	Policy          string  `json:"policy"`
	Instances       int64   `json:"instances"`
	PowerW          float64 `json:"power_w"`
	PowerCI95       float64 `json:"power_ci95"`
	EnergyReduction float64 `json:"energy_reduction"`
	MeanWaitSec     float64 `json:"mean_wait_sec"`
	LossRate        float64 `json:"loss_rate"`
	// Interference is present only on coupled runs, keeping uncoupled
	// JSON byte-identical to the pre-coupling report.
	Interference *jsonInterference `json:"interference,omitempty"`
	// Resilience is present only on faulted runs (-faults), keeping
	// unfaulted JSON byte-identical to the pre-fault report.
	Resilience *jsonResilience `json:"resilience,omitempty"`
}

// jsonInterference carries the coupled-mode cross-device interference
// metrics of one aggregate (or of the whole fleet).
type jsonInterference struct {
	ResourceWaitMeanSec float64 `json:"resource_wait_mean_sec"`
	ResourceDrops       int64   `json:"resource_drops"`
	BudgetDenied        int64   `json:"budget_denied"`
}

// jsonResilience carries the fault-injection metrics of one aggregate
// (or of the whole fleet).
type jsonResilience struct {
	Availability    float64 `json:"availability"`
	DowntimeMeanSec float64 `json:"downtime_mean_sec"`
	EnergyOutageJ   float64 `json:"energy_outage_j"`
	Crashes         int64   `json:"crashes"`
	Retries         int64   `json:"retries"`
	RetryExhausted  int64   `json:"retry_exhausted"`
	LostToOutage    int64   `json:"lost_to_outage"`
}

// jsonReport is the machine-readable fleet report.
type jsonReport struct {
	// Mode names the fleet kernel, always "ct".
	Mode        string  `json:"mode"`
	Quantiles   string  `json:"quantiles"`
	Devices     int64   `json:"devices"`
	Replicas    int     `json:"replicas"`
	HorizonSec  float64 `json:"horizon_sec"`
	Shards      int     `json:"shards"`
	EnergyJ     float64 `json:"energy_j"`
	PowerW      float64 `json:"power_w"`
	Arrived     int64   `json:"arrived"`
	Served      int64   `json:"served"`
	Lost        int64   `json:"lost"`
	Events      uint64  `json:"events"`
	LossOverall float64 `json:"loss_overall"`
	MeanWaitSec float64 `json:"mean_wait_sec"`
	WaitP50Sec  float64 `json:"wait_p50_sec"`
	WaitP90Sec  float64 `json:"wait_p90_sec"`
	WaitP99Sec  float64 `json:"wait_p99_sec"`
	// Couple, CoupleSize, and Interference appear only on coupled runs
	// (-couple), keeping uncoupled JSON byte-identical to the
	// pre-coupling report.
	Couple       string            `json:"couple,omitempty"`
	CoupleSize   int               `json:"couple_size,omitempty"`
	Interference *jsonInterference `json:"interference,omitempty"`
	// Resilience appears only on faulted runs (-faults), keeping
	// unfaulted JSON byte-identical to the pre-fault report.
	Resilience *jsonResilience `json:"resilience,omitempty"`
	Classes    []jsonGroup     `json:"classes"`
	Policies   []jsonGroup     `json:"policies"`
}

// group flattens a ClassStats for JSON; coupled runs attach the
// interference block, faulted runs the resilience block (availability
// computed against the fleet horizon).
func group(c *fleet.ClassStats, coupled bool, horizonSec float64) jsonGroup {
	g := jsonGroup{
		Name:            c.Name,
		Policy:          c.Policy,
		Instances:       c.Instances,
		PowerW:          c.AvgPowerW.Mean(),
		PowerCI95:       c.AvgPowerW.CI95(),
		EnergyReduction: c.EnergyReduction.Mean(),
		MeanWaitSec:     c.MeanWaitSec.Mean(),
		LossRate:        c.LossRate.Mean(),
	}
	if coupled {
		g.Interference = &jsonInterference{
			ResourceWaitMeanSec: c.ResourceWaitSec.Mean(),
			ResourceDrops:       c.ResourceDrops,
			BudgetDenied:        c.BudgetDenied,
		}
	}
	if horizonSec > 0 {
		g.Resilience = &jsonResilience{
			Availability:    c.Availability(horizonSec),
			DowntimeMeanSec: c.DowntimeSec.Mean(),
			EnergyOutageJ:   c.EnergyOutageJ,
			Crashes:         c.Crashes,
			Retries:         c.Retries,
			RetryExhausted:  c.RetryExhausted,
			LostToOutage:    c.LostToOutage,
		}
	}
	return g
}

// writeJSON emits the report; percentile computation is the only
// fallible step (empty fleets cannot happen past validation).
func writeJSON(w io.Writer, sum *experiment.FleetSummary, quant fleet.QuantileMode) error {
	q := func(p float64) (float64, error) { return sum.Fleet.WaitQuantile(p) }
	p50, err := q(0.50)
	if err != nil {
		return err
	}
	p90, err := q(0.90)
	if err != nil {
		return err
	}
	p99, err := q(0.99)
	if err != nil {
		return err
	}
	rep := jsonReport{
		Mode:        "ct",
		Quantiles:   string(quant),
		Devices:     sum.Fleet.Devices,
		Replicas:    sum.Replicas,
		HorizonSec:  sum.Fleet.HorizonSec,
		Shards:      sum.Fleet.Shards,
		EnergyJ:     sum.Fleet.EnergyJ,
		PowerW:      sum.Fleet.AvgPowerW.Mean(),
		Arrived:     sum.Fleet.Arrived,
		Served:      sum.Fleet.Served,
		Lost:        sum.Fleet.Lost,
		Events:      sum.Fleet.Events,
		LossOverall: sum.Fleet.LossOverall(),
		MeanWaitSec: sum.Fleet.MeanWaitSec.Mean(),
		WaitP50Sec:  p50,
		WaitP90Sec:  p90,
		WaitP99Sec:  p99,
	}
	coupled := sum.Fleet.Couple != fleet.CoupleNone
	if coupled {
		rep.Couple = string(sum.Fleet.Couple)
		rep.CoupleSize = sum.Fleet.CoupleSize
	}
	groupHorizon := 0.0 // zero disables the per-group resilience block
	if sum.Fleet.Faulted {
		groupHorizon = sum.Fleet.HorizonSec
	}
	fl := group(&sum.Fleet.ClassStats, coupled, groupHorizon)
	rep.Interference, rep.Resilience = fl.Interference, fl.Resilience
	for i := range sum.Fleet.Classes {
		rep.Classes = append(rep.Classes, group(&sum.Fleet.Classes[i], coupled, groupHorizon))
	}
	perPol := sum.Fleet.PerPolicy()
	for i := range perPol {
		rep.Policies = append(rep.Policies, group(&perPol[i], coupled, groupHorizon))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
