// Package engine is the parallel experiment execution subsystem: a
// worker-pool job runner that fans independent simulation replicas
// (Scenario × PolicyFactory × seed in the experiment layer) across
// GOMAXPROCS workers.
//
// Design constraints, in priority order:
//
//  1. Determinism. Results are collected into an index-ordered slice and
//     reduced by the caller in that order, so a pooled run is bit-identical
//     to a serial run regardless of worker count or scheduling. The engine
//     never injects randomness; seed derivation (DeriveSeeds) is a pure
//     function of the base seed.
//  2. Prompt cancellation. Cancelling the context stops job dispatch
//     immediately and running jobs cooperatively (long replicas poll the
//     context between chunks in the experiment layer); Map returns the
//     context error without leaking goroutines.
//  3. Failure isolation. A panicking job is captured as a *PanicError
//     carrying the job index and stack; the first failure cancels the
//     remaining work and is returned to the caller.
//
// The engine is deliberately below the experiment layer in the dependency
// graph (it knows nothing about scenarios or policies), so every future
// workload — figure drivers, table sweeps, ablation grids, trace
// pipelines — plugs into the same pool.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/rng"
)

// Pool describes a worker pool. The zero value (and a nil *Pool) is valid
// and uses GOMAXPROCS workers with no progress reporting.
type Pool struct {
	// Workers is the number of concurrent workers; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, observes completion: it is called after each
	// job finishes with the number done so far and the total. Calls are
	// serialized by the engine, so the callback needs no locking of its
	// own, but it must not block for long — it runs on worker goroutines.
	Progress func(done, total int)
}

// Size reports the number of workers Map and MapWorkers will actually
// use for n jobs — and therefore the exclusive upper bound on the worker
// indices a MapWorkers fn observes. Callers preallocate per-worker
// scratch state with it.
func (p *Pool) Size(n int) int { return p.workers(n) }

// workers resolves the effective worker count for n jobs.
func (p *Pool) workers(n int) int {
	w := 0
	if p != nil {
		w = p.Workers
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PanicError reports a panic captured inside a pool job.
type PanicError struct {
	// Index is the job index that panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at the point of the panic.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: job %d panicked: %v", e.Index, e.Value)
}

// JobError records one failed job of a MapReduceWorkersKeepGoing run.
type JobError struct {
	// Index is the failed job's index.
	Index int
	// Err is the job's error (a *PanicError if the job panicked).
	Err error
}

// Error implements error.
func (e *JobError) Error() string { return fmt.Sprintf("engine: job %d: %v", e.Index, e.Err) }

// Unwrap exposes the job's underlying error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// PartialError reports that a MapReduceWorkersKeepGoing run finished
// with some jobs failed: every other job ran and was reduced, and Failed
// lists the casualties in job-index order.
type PartialError struct {
	// Failed holds one entry per failed job, ascending by index.
	Failed []JobError
	// Total is the run's job count.
	Total int
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("engine: %d of %d jobs failed; first: %v", len(e.Failed), e.Total, &e.Failed[0])
}

// Map runs fn(ctx, i) for every i in [0, n) on p's worker pool and returns
// the results in index order — results[i] is fn's value for job i, so any
// order-sensitive reduction over the output is independent of worker count
// and scheduling.
//
// The first job error (or captured panic) cancels the remaining jobs and
// is returned alongside the partial results: slots whose jobs never ran or
// failed hold the zero value. If the parent context is cancelled, Map
// returns ctx's error. Map only returns once every started job has
// finished, so no worker goroutines outlive the call.
func Map[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return MapWorkers(ctx, p, n, func(ctx context.Context, _, i int) (T, error) {
		return fn(ctx, i)
	})
}

// MapWorkers is Map with worker identity: fn additionally receives the
// index (in [0, p.Size(n))) of the worker goroutine executing the job.
// Jobs that run on the same worker run sequentially, so fn may keep
// mutable per-worker scratch state — reusable simulators, metric
// buffers — indexed by worker without any locking. Determinism caveat:
// which jobs share a worker depends on scheduling, so per-worker state
// must never influence results (reuse buffers, not randomness).
func MapWorkers[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, worker, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("engine: negative job count %d", n)
	}
	results := make([]T, n)
	if n == 0 {
		return results, ctx.Err()
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		done     int
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	finish := func() {
		var cb func(done, total int)
		mu.Lock()
		done++
		d := done
		if p != nil {
			cb = p.Progress
		}
		if cb != nil {
			cb(d, n) // under mu: calls are serialized and ordered
		}
		mu.Unlock()
	}

	runJob := func(worker, i int) {
		defer func() {
			if v := recover(); v != nil {
				fail(&PanicError{Index: i, Value: v, Stack: debug.Stack()})
			}
		}()
		v, err := fn(ctx, worker, i)
		if err != nil {
			fail(fmt.Errorf("engine: job %d: %w", i, err))
			return
		}
		results[i] = v
		finish()
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := p.workers(n) - 1; w >= 0; w-- {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobs {
				runJob(worker, i)
			}
		}(w)
	}
	// Check ctx before every send: when a worker is ready and ctx is
	// already done, select picks between the two cases at random, so the
	// Done case alone would let jobs keep trickling out after a failure.
	for i := 0; i < n && ctx.Err() == nil; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
		}
	}
	close(jobs)
	wg.Wait()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return results, err
	}
	return results, ctx.Err()
}

// reduceSlot is one buffered MapReduceWorkersKeepGoing result: a value
// to fold, or a failure to skip past.
type reduceSlot[T any] struct {
	v   T
	err error // non-nil: the job failed; skip the fold for this index
}

// MapReduceWorkersKeepGoing runs fn(ctx, worker, i) like MapWorkers but
// streams the results into reduce in strict job-index order instead of
// collecting them: reduce(0, v0) completes before reduce(1, v1), and so
// on, so an order-sensitive fold (a merge tree reduced left to right)
// gets exactly the sequential reduction regardless of worker count.
//
// Memory is O(workers), not O(n): dispatch is gated by a window of
// 2×workers tokens, each held from the moment a job is handed out until
// its result has been folded, so at most 2×workers results ever exist
// at once (in flight or buffered waiting on a predecessor). This is
// what lets a million-device fleet stream per-shard summaries through a
// fold without materializing one summary per shard. The window also
// bounds head-of-line stalls: a slow job can idle the pool only after
// the workers run 2×workers jobs ahead of it.
//
// reduce calls are serialized (no locking needed inside) but run on
// worker goroutines, so a slow reduce backpressures the pool.
//
// Failures are isolated, the graceful-degradation discipline for long
// fan-outs where one poisoned shard should cost its own results, not
// the whole run: a job that errors or panics does not cancel the run —
// its slot is skipped in the fold (reduce is never called for it) and
// every other job still runs and reduces in strict index order. If any
// jobs failed, the call returns a *PartialError listing them by index.
// A reduce error, context cancellation, and job errors caused by
// cancellation are fatal instead: they cancel the remaining work and
// are returned, and some prefix of the results may already have been
// reduced. MapWorkers is deliberately not implemented on top of this
// function: its callers want ungated dispatch (no token window, no
// head-of-line coupling between a slow job and later dispatch), which
// is the right discipline when all results are materialized anyway.
func MapReduceWorkersKeepGoing[T any](ctx context.Context, p *Pool, n int,
	fn func(ctx context.Context, worker, i int) (T, error),
	reduce func(i int, v T) error,
) error {
	if n < 0 {
		return fmt.Errorf("engine: negative job count %d", n)
	}
	if n == 0 {
		return ctx.Err()
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := p.workers(n)
	window := 2 * workers
	// tokens gates dispatch: acquired before a job is handed out,
	// released after its result is folded. Capacity bounds live results.
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}

	var (
		mu       sync.Mutex
		done     int
		firstErr error
		next     int
		pending  = make(map[int]reduceSlot[T], window)
		failed   []JobError
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	// deliver buffers one result (or one failure) and folds every
	// consecutively available result from `next` on, releasing one token
	// per advanced index. Calls are serialized under mu, so reduce needs
	// no locking of its own and the fold order is exactly 0, 1, 2, ... —
	// failed slots are skipped, never reduced, and recorded in `failed`
	// in that same order.
	deliver := func(i int, s reduceSlot[T]) error {
		mu.Lock()
		defer mu.Unlock()
		pending[i] = s
		for {
			s, ok := pending[next]
			if !ok {
				return nil
			}
			delete(pending, next)
			if s.err != nil {
				failed = append(failed, JobError{Index: next, Err: s.err})
			} else if err := reduce(next, s.v); err != nil {
				return fmt.Errorf("engine: reduce %d: %w", next, err)
			}
			next++
			tokens <- struct{}{} // never blocks: releases <= acquisitions
			done++
			if p != nil && p.Progress != nil {
				p.Progress(done, n)
			}
		}
	}

	runJob := func(worker, i int) {
		defer func() {
			if v := recover(); v != nil {
				perr := &PanicError{Index: i, Value: v, Stack: debug.Stack()}
				if err := deliver(i, reduceSlot[T]{err: perr}); err != nil {
					fail(err)
				}
			}
		}()
		v, err := fn(ctx, worker, i)
		if err != nil {
			// Cancellation-shaped errors stay fatal: once the context is
			// done, skipping ahead would just churn jobs that are all
			// about to fail the same way.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fail(fmt.Errorf("engine: job %d: %w", i, err))
				return
			}
			if err := deliver(i, reduceSlot[T]{err: err}); err != nil {
				fail(err)
			}
			return
		}
		if err := deliver(i, reduceSlot[T]{v: v}); err != nil {
			fail(err)
		}
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := workers - 1; w >= 0; w-- {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobs {
				runJob(worker, i)
			}
		}(w)
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case <-tokens:
		case <-ctx.Done():
			break dispatch
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(failed) > 0 {
		return &PartialError{Failed: failed, Total: n}
	}
	return nil
}

// DeriveSeeds expands a base seed into n deterministic, statistically
// independent replica seeds. The expansion is a pure function of (base, n
// prefix): DeriveSeeds(b, m)[:k] == DeriveSeeds(b, k) for k <= m, so
// growing a replication never perturbs existing replicas.
func DeriveSeeds(base uint64, n int) []uint64 {
	if n <= 0 {
		return nil
	}
	src := rng.New(base)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = src.Uint64()
	}
	return seeds
}

// SeedFor returns member i's derived seed as a pure O(1) function of
// (base, i) — random access into an unbounded seed sequence. DeriveSeeds
// materializes a vector (the right shape for replica lists); SeedFor is
// for populations too large to hold one word per member — the fleet
// layer seeds a million instances with it while keeping resident memory
// independent of the device count. The two derivations are distinct
// sequences; a consumer must pick one and stay with it.
func SeedFor(base, i uint64) uint64 {
	// SplitMix64 finalizer over a golden-ratio-strided index: the
	// standard O(1) sequence splitter (avalanching mixer, distinct
	// odd-stride inputs), statistically independent across i and base.
	x := base + 0x9e3779b97f4a7c15*(i+1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
