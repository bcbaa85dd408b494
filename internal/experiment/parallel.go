package experiment

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/slotsim"
	"repro/internal/stats"
)

// Parallel configures concurrent replica execution for the experiment
// drivers. The zero value runs on GOMAXPROCS workers with no progress
// reporting — the right default for every CLI entry point.
type Parallel struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS. Workers == 1
	// degenerates to a serial run with identical (bit-for-bit) output.
	Workers int
	// Progress, when non-nil, observes each job as the in-order fold
	// reduces it (serialized calls, in job-index order).
	Progress func(done, total int)
}

// pool adapts the options to an engine pool.
func (p Parallel) pool() *engine.Pool {
	return &engine.Pool{Workers: p.Workers, Progress: p.Progress}
}

// cancelCheckSlots is how often a replica polls its context: long runs are
// executed in chunks of this many slots so cancellation latency is bounded
// by one chunk (~a few hundred microseconds of simulation) instead of the
// full run length.
const cancelCheckSlots = 8192

// RunOneCtx executes one replica and returns the metrics. The observer,
// when non-nil, sees every slot record. The replica polls ctx between
// slot chunks, so a cancelled context aborts a multi-million-slot
// replica promptly with ctx's error.
func RunOneCtx(ctx context.Context, sc Scenario, pf PolicyFactory, seed uint64, observer func(slotsim.SlotRecord)) (slotsim.Metrics, error) {
	if err := sc.Validate(); err != nil {
		return slotsim.Metrics{}, err
	}
	sim, err := newReplicaSim(sc, pf, seed)
	if err != nil {
		return slotsim.Metrics{}, err
	}
	var m slotsim.Metrics
	for remaining := sc.Slots; remaining > 0; {
		if err := ctx.Err(); err != nil {
			return slotsim.Metrics{}, err
		}
		chunk := int64(cancelCheckSlots)
		if remaining < chunk {
			chunk = remaining
		}
		// Metrics accumulate across Run calls; the last call returns the
		// totals for the whole replica.
		if m, err = sim.Run(chunk, observer); err != nil {
			return slotsim.Metrics{}, err
		}
		remaining -= chunk
	}
	return m, nil
}

// RunReplicatedCtx executes one replica per seed on a worker pool and
// pools the metrics: a one-cell replicaGrid, so the result is
// bit-identical to the serial loop for every worker count.
func RunReplicatedCtx(ctx context.Context, sc Scenario, pf PolicyFactory, seeds []uint64, par Parallel) (*Summary, error) {
	sums, err := replicaGrid(ctx, par, 1, seeds,
		func(ctx context.Context, _ *struct{}, _ int, seed uint64) (*Summary, error) {
			return slotReplica(ctx, sc, pf, seed)
		})
	if err != nil {
		return nil, err
	}
	return sums[0], nil
}

// slotReplica runs one slotted replica as a single-replica summary.
func slotReplica(ctx context.Context, sc Scenario, pf PolicyFactory, seed uint64) (*Summary, error) {
	m, err := RunOneCtx(ctx, sc, pf, seed, nil)
	if err != nil {
		return nil, err
	}
	s := &Summary{Policy: pf.Name, Scenario: sc.Name}
	s.addReplica(&m, sc.Device.SlotDuration, sc.Device.MaxPowerEnergy()/sc.Device.SlotDuration)
	return s, nil
}

// replicaGrid fans one job per (cell, seed) pair across the pool — a cell
// is a (scenario, policy) pair the caller indexes in [0, cells) — and
// merges each single-replica summary into its cell as the in-order fold
// reaches it, so every cell reduces in seed order and its result is
// bit-identical for every worker count. Each job gets its worker's
// scratch W: jobs on one worker run sequentially, so run may reuse it
// freely, but it must never influence results. Any job error is fatal,
// reported like engine.Map's.
func replicaGrid[W, S any, P interface {
	*S
	Merge(*S)
}](ctx context.Context, par Parallel, cells int, seeds []uint64,
	run func(ctx context.Context, ws *W, cell int, seed uint64) (*S, error),
) ([]*S, error) {
	if len(seeds) == 0 {
		return nil, errNoSeeds
	}
	pool := par.pool()
	n := cells * len(seeds)
	scratch := make([]W, pool.Size(n))
	out := make([]*S, cells)
	for ci := range out {
		out[ci] = new(S)
	}
	err := engine.MapReduce(ctx, pool, n,
		func(ctx context.Context, worker, i int) (*S, error) {
			return run(ctx, &scratch[worker], i/len(seeds), seeds[i%len(seeds)])
		},
		func(i int, part *S, err error) error {
			if err == nil {
				P(out[i/len(seeds)]).Merge(part)
				return nil
			}
			if _, panicked := err.(*engine.PanicError); panicked {
				return err
			}
			return fmt.Errorf("engine: job %d: %w", i, err)
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// meanSeriesGrid fans one windowed-series job per (policy, seed) pair
// across the pool and reduces each policy's replicas to their pointwise
// mean, in factory order — the shared shape of the Fig. 1 and Fig. 2
// drivers. runSeries must be safe to call concurrently for distinct
// (pf, seed) pairs.
func meanSeriesGrid(ctx context.Context, par Parallel, pfs []PolicyFactory, seeds []uint64,
	runSeries func(ctx context.Context, pf PolicyFactory, seed uint64) (*stats.Series, error),
) ([]*stats.Series, error) {
	type job struct {
		pf   PolicyFactory
		seed uint64
	}
	jobs := make([]job, 0, len(pfs)*len(seeds))
	for _, pf := range pfs {
		for _, seed := range seeds {
			jobs = append(jobs, job{pf: pf, seed: seed})
		}
	}
	reps, err := engine.Map(ctx, par.pool(), len(jobs),
		func(ctx context.Context, i int) (*stats.Series, error) {
			return runSeries(ctx, jobs[i].pf, jobs[i].seed)
		})
	if err != nil {
		return nil, err
	}
	out := make([]*stats.Series, 0, len(pfs))
	for pi, pf := range pfs {
		mean, err := MeanSeries(pf.Name, reps[pi*len(seeds):(pi+1)*len(seeds)])
		if err != nil {
			return nil, err
		}
		out = append(out, mean)
	}
	return out, nil
}
