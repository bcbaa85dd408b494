// Package engine is the parallel execution subsystem: one dispatcher,
// MapReduce, that fans n indexed jobs (experiment replicas, fleet
// shards) across a pool of workers and folds their outcomes in index
// order. Map is MapReduce collecting results by index.
//
// Design constraints, in priority order:
//
//  1. Determinism. Outcomes reach the caller's reduce in strict job-index
//     order, so a pooled run is bit-identical to a serial run regardless
//     of worker count or scheduling, and Map reports the lowest-index
//     failure. The engine never injects randomness; seed derivation
//     (DeriveSeeds, SeedFor) is a pure function of the base seed.
//  2. Prompt cancellation. Cancelling the context stops job dispatch
//     immediately and running jobs cooperatively (long replicas poll the
//     context between chunks); the call returns without leaking
//     goroutines.
//  3. Bounded memory. A window of 2×workers tokens caps the jobs in flight
//     or buffered behind a predecessor, so a million-job fold holds
//     O(workers) outcomes.
//  4. Caller-set failure policy. A panicking job is captured as a
//     *PanicError carrying the job index and stack; reduce decides per
//     job whether a failure is skipped or cancels the rest.
//
// The engine is deliberately below the experiment and fleet layers in the
// dependency graph (it knows nothing about scenarios, policies or shards).
package engine

import (
	"context"
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
	// Progress, when non-nil, observes completion: it is called once per
	// reduced job, in index order, with the number reduced so far and the
	// total. Calls are serialized by the engine, so the callback needs no
	// locking of its own, but it must not block for long — it runs on
	// worker goroutines.
	Progress func(done, total int)
}

// Size reports the number of workers Map and MapReduce will actually use
// for n jobs — and therefore the exclusive upper bound on the worker
// indices a MapReduce fn observes. Callers preallocate per-worker
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

// Map runs fn(ctx, i) for every i in [0, n) on p's worker pool and returns
// the results in index order — results[i] is fn's value for job i, so any
// order-sensitive reduction over the output is independent of worker count
// and scheduling.
//
// Any job error is fatal: the lowest-index failure, wrapped as
// "engine: job i: …" (a captured panic as the bare *PanicError), cancels
// the remaining jobs and is returned alongside the partial results, whose
// slots from index i on hold the zero value. Failures take effect in
// index order, so the error does not depend on which job failed first in
// time.
func Map[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results := make([]T, max(n, 0))
	err := MapReduce(ctx, p, n,
		func(ctx context.Context, _, i int) (T, error) { return fn(ctx, i) },
		func(i int, v T, err error) error {
			if err == nil {
				results[i] = v
				return nil
			}
			if _, panicked := err.(*PanicError); panicked {
				return err
			}
			return fmt.Errorf("engine: job %d: %w", i, err)
		})
	return results, err
}

// outcome is one finished job waiting for its turn in the fold.
type outcome[T any] struct {
	v     T
	err   error
	ready bool
}

// MapReduce runs fn(ctx, worker, i) for every i in [0, n) on p's worker
// pool and streams each job's outcome into reduce in strict index order:
// reduce(0, …) returns before reduce(1, …) starts, so an order-sensitive
// fold (a merge tree reduced left to right) gets exactly the sequential
// reduction for every worker count.
//
// fn also receives the index, in [0, p.Size(n)), of the worker goroutine
// running it. Jobs on one worker run sequentially, so fn may keep
// mutable per-worker scratch (reusable simulators, metric buffers)
// indexed by worker without locking. Which jobs share a worker depends
// on scheduling, so that state must never influence results.
//
// reduce sees each job's value and error; a panicking job reaches it as
// a *PanicError, unwrapped, with the zero value. reduce sets the failure
// policy: returning nil moves the fold on (a failure it records is
// thereby skipped), while returning an error is fatal — the remaining
// jobs are canceled and MapReduce returns that error. A failure takes
// effect only when it reaches the head of the fold. If the parent
// context ends, dispatch stops and, unless reduce has returned an error,
// MapReduce returns ctx's error.
//
// Memory is O(workers), not O(n): dispatch is gated by a window of
// 2×workers tokens, each held from the moment a job is handed out until
// its outcome has been reduced, so at most 2×workers outcomes exist at
// once (in flight or buffered behind a predecessor). This lets a
// million-device fleet stream per-shard summaries through a fold
// without holding one per shard. The window also bounds head-of-line
// stalls: a slow job idles the pool only after the workers run
// 2×workers jobs ahead of it.
//
// reduce and Progress calls are serialized, so reduce needs no locking
// of its own, but they run on worker goroutines, so a slow reduce
// backpressures the pool. MapReduce returns only once every started job
// has finished, so no worker goroutine outlives the call.
func MapReduce[T any](ctx context.Context, p *Pool, n int,
	fn func(ctx context.Context, worker, i int) (T, error),
	reduce func(i int, v T, err error) error,
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
	// released after its outcome is reduced. Capacity bounds live
	// outcomes.
	tokens := make(chan struct{}, window)
	for range window {
		tokens <- struct{}{}
	}

	var (
		mu    sync.Mutex
		fatal error
		next  int
		// Job i waits in pending[i%window]: it was dispatched holding one
		// of the window's tokens, so i < next+window and no two waiting
		// jobs share a slot.
		pending = make([]outcome[T], window)
	)
	// deliver buffers job i's outcome and reduces every consecutively
	// ready outcome from next on, releasing one token per reduced index.
	// Calls are serialized under mu, so the fold order is exactly
	// 0, 1, 2, …; after a fatal error nothing more is reduced.
	deliver := func(i int, v T, err error) {
		mu.Lock()
		defer mu.Unlock()
		if fatal != nil {
			return
		}
		pending[i%window] = outcome[T]{v: v, err: err, ready: true}
		for {
			o := &pending[next%window]
			if !o.ready {
				return
			}
			v, err := o.v, o.err
			*o = outcome[T]{}
			if err := reduce(next, v, err); err != nil {
				fatal = err
				cancel()
				return
			}
			next++
			tokens <- struct{}{} // never blocks: releases <= acquisitions
			if p != nil && p.Progress != nil {
				p.Progress(next, n)
			}
		}
	}

	runJob := func(worker, i int) (v T, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		return fn(ctx, worker, i)
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := workers - 1; w >= 0; w-- {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobs {
				v, err := runJob(worker, i)
				deliver(i, v, err)
			}
		}(w)
	}
	// Check ctx before every job: when a token or a worker is ready and
	// ctx is already done, select picks a case at random, so the Done
	// cases alone would let jobs keep trickling out after a failure.
dispatch:
	for i := 0; i < n && ctx.Err() == nil; i++ {
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

	if fatal != nil {
		return fatal
	}
	return ctx.Err()
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
