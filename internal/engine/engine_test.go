package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 0} {
		got, err := Map(context.Background(), &Pool{Workers: workers}, 100,
			func(_ context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapZeroJobs(t *testing.T) {
	got, err := Map(context.Background(), nil, 0,
		func(context.Context, int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapNegativeJobs(t *testing.T) {
	if _, err := Map(context.Background(), nil, -1,
		func(context.Context, int) (int, error) { return 0, nil }); err == nil {
		t.Fatal("negative job count accepted")
	}
}

func TestMapNilPool(t *testing.T) {
	got, err := Map(context.Background(), nil, 8,
		func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 || got[7] != 7 {
		t.Fatalf("got %v", got)
	}
}

// TestMapFirstErrorCancelsRest: every job after the failing job 3 blocks
// until the failure cancels its context, so the test requires
// cancellation rather than relying on it winning a race. The bounded
// wait turns a missing cancellation into a failure instead of a hang.
func TestMapFirstErrorCancelsRest(t *testing.T) {
	const workers = 2
	var started, stuck atomic.Int64
	boom := errors.New("boom")
	_, err := Map(context.Background(), &Pool{Workers: workers}, 1000,
		func(ctx context.Context, i int) (int, error) {
			started.Add(1)
			switch {
			case i == 3:
				return 0, boom
			case i > 3:
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-time.After(10 * time.Second):
					stuck.Add(1)
				}
			}
			return i, nil
		})
	if n := stuck.Load(); n > 0 {
		t.Fatalf("%d jobs after the failure were never canceled", n)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "job 3") {
		t.Errorf("error %q does not name the failing job", err)
	}
	// Jobs 0-3, at most one blocked job per worker at the failure, and at
	// most one more send racing the cancellation.
	if n := started.Load(); n > 4+workers+1 {
		t.Errorf("%d jobs started despite the failure at job 3", n)
	}
}

func TestMapPanicCaptured(t *testing.T) {
	_, err := Map(context.Background(), &Pool{Workers: 4}, 10,
		func(_ context.Context, i int) (int, error) {
			if i == 5 {
				panic("kaput")
			}
			return i, nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if pe.Index != 5 || fmt.Sprint(pe.Value) != "kaput" {
		t.Errorf("panic error %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
}

func TestMapContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := Map(ctx, nil, 50, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Dispatch checks ctx before every send, so not even one job starts.
	if n := ran.Load(); n != 0 {
		t.Errorf("%d jobs ran after pre-cancelled context", n)
	}
}

func TestMapCancellationPromptNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Map(ctx, &Pool{Workers: 4}, 10000,
		func(ctx context.Context, i int) (int, error) {
			// A cooperative job: waits on the context like a chunked
			// replica run does.
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-release:
				return i, nil
			}
		})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	close(release)
	// All worker goroutines must be gone once Map returns.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 { // +1 for the canceller
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestMapProgressSerializedAndComplete(t *testing.T) {
	var calls []int
	_, err := Map(context.Background(), &Pool{
		Workers: 4,
		// Progress runs under the engine's mutex; appending without extra
		// locking is the documented contract.
		Progress: func(done, total int) {
			if total != 64 {
				t.Errorf("total = %d, want 64", total)
			}
			calls = append(calls, done)
		},
	}, 64, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 64 {
		t.Fatalf("progress called %d times, want 64", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress sequence %v not monotone at %d", calls[:i+1], i)
		}
	}
}

func TestDeriveSeedsPrefixStable(t *testing.T) {
	long := DeriveSeeds(42, 20)
	short := DeriveSeeds(42, 5)
	for i, s := range short {
		if long[i] != s {
			t.Fatalf("prefix instability at %d: %d vs %d", i, long[i], s)
		}
	}
	seen := map[uint64]bool{}
	for _, s := range long {
		if seen[s] {
			t.Fatalf("duplicate derived seed %d", s)
		}
		seen[s] = true
	}
	if other := DeriveSeeds(43, 5); other[0] == short[0] {
		t.Error("different base seeds produced identical first replica seed")
	}
	if DeriveSeeds(1, 0) != nil {
		t.Error("n=0 should return nil")
	}
}

func TestPoolWorkersResolution(t *testing.T) {
	var nilPool *Pool
	if w := nilPool.workers(8); w != min(8, runtime.GOMAXPROCS(0)) {
		t.Errorf("nil pool workers = %d", w)
	}
	if w := (&Pool{Workers: 16}).workers(4); w != 4 {
		t.Errorf("workers not capped at job count: %d", w)
	}
	if w := (&Pool{Workers: 3}).workers(100); w != 3 {
		t.Errorf("explicit workers ignored: %d", w)
	}
}

// MapReduce: worker indices stay in [0, Size(n)), jobs sharing a worker
// run sequentially (per-worker scratch needs no locking), and every job
// runs exactly once with index-ordered results.
func TestMapReduceWorkerIdentity(t *testing.T) {
	const n = 64
	p := &Pool{Workers: 3}
	if s := p.Size(n); s != 3 {
		t.Fatalf("Size = %d, want 3", s)
	}
	// Per-worker counters: only safe if same-worker jobs are sequential.
	counts := make([]int, p.Size(n))
	var inFlight [3]atomic.Int32
	results := make([]int, n)
	err := MapReduce(context.Background(), p, n,
		func(_ context.Context, worker, i int) (int, error) {
			if worker < 0 || worker >= 3 {
				t.Errorf("worker index %d out of range", worker)
			}
			if inFlight[worker].Add(1) != 1 {
				t.Errorf("two jobs on worker %d at once", worker)
			}
			counts[worker]++
			time.Sleep(time.Microsecond)
			inFlight[worker].Add(-1)
			return i * i, nil
		},
		func(i, v int, err error) error {
			results[i] = v
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("ran %d jobs, want %d", total, n)
	}
	for i, v := range results {
		if v != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// Per-worker scratch reuse through MapReduce must deliver every job a
// scratch no other in-flight job holds — the experiment layer's reusable
// simulator pattern.
func TestMapReduceScratchReuse(t *testing.T) {
	const n = 40
	p := &Pool{Workers: 4}
	type scratch struct {
		busy atomic.Bool
		uses int
	}
	pads := make([]scratch, p.Size(n))
	err := MapReduce(context.Background(), p, n,
		func(_ context.Context, worker, i int) (struct{}, error) {
			ws := &pads[worker]
			if !ws.busy.CompareAndSwap(false, true) {
				t.Errorf("scratch %d used concurrently", worker)
			}
			ws.uses++
			time.Sleep(time.Microsecond)
			ws.busy.Store(false)
			return struct{}{}, nil
		},
		func(_ int, _ struct{}, err error) error { return err })
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := range pads {
		total += pads[i].uses
	}
	if total != n {
		t.Fatalf("scratch uses %d, want %d", total, n)
	}
}

// TestMapReduceWorkersOrderedFold: under adversarial scheduling (random
// per-job sleeps, many workers) the reduce sees every index exactly
// once, in strict ascending order, with the right value — so an
// order-sensitive fold matches the sequential reduction bit for bit.
func TestMapReduceWorkersOrderedFold(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 3, 16} {
		var got []int
		var buffered, maxBuffered atomic.Int64
		err := MapReduce(context.Background(), &Pool{Workers: workers}, n,
			func(_ context.Context, _, i int) (int, error) {
				time.Sleep(time.Duration(i%7) * 100 * time.Microsecond)
				if b := buffered.Add(1); b > maxBuffered.Load() {
					maxBuffered.Store(b)
				}
				return i * i, nil
			},
			func(i, v int, err error) error {
				if err != nil {
					return err
				}
				buffered.Add(-1)
				got = append(got, v) // no lock: reduce calls are serialized
				if v != i*i {
					return fmt.Errorf("reduce(%d) got %d", i, v)
				}
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: reduced %d results, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: reduce order broken at %d: %d", workers, i, v)
			}
		}
		// Completed-but-unfolded results stay within the dispatch window
		// of 2×workers tokens (the O(workers) memory contract).
		if mb := maxBuffered.Load(); mb > int64(2*workers) {
			t.Fatalf("workers=%d: %d results buffered at once (window %d)", workers, mb, 2*workers)
		}
		maxBuffered.Store(0)
	}
}

// jobFailure is one failure a keep-going reduce recorded and skipped.
type jobFailure struct {
	index int
	err   error
}

// keepGoing returns a reduce that folds values through fold, records
// every failure in *failed and skips it, except cancellation-shaped
// errors, which it returns as fatal — the fleet's policy.
func keepGoing[T any](failed *[]jobFailure, fold func(i int, v T) error) func(int, T, error) error {
	return func(i int, v T, err error) error {
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return err
		case err != nil:
			*failed = append(*failed, jobFailure{index: i, err: err})
			return nil
		}
		return fold(i, v)
	}
}

// TestMapReduceKeepGoingSkipsFailures: under a reduce that records
// failures, a job error or panic drops only its own slot — every other
// job still reduces, in strict index order — and the casualties are
// recorded ascending by index.
func TestMapReduceKeepGoingSkipsFailures(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var got []int
		var failed []jobFailure
		err := MapReduce(context.Background(), &Pool{Workers: workers}, 60,
			func(_ context.Context, _, i int) (int, error) {
				switch {
				case i%10 == 3:
					return 0, boom
				case i == 25:
					panic("job 25 exploded")
				}
				return i, nil
			},
			keepGoing(&failed, func(i, v int) error {
				got = append(got, v) // no lock: reduce calls are serialized
				if v != i {
					return fmt.Errorf("reduce(%d) got %d", i, v)
				}
				return nil
			}))
		if err != nil {
			t.Fatalf("workers=%d: want the run to keep going, got %v", workers, err)
		}
		wantFailed := []int{3, 13, 23, 25, 33, 43, 53}
		if len(failed) != len(wantFailed) {
			t.Fatalf("workers=%d: failed = %v", workers, failed)
		}
		for j, je := range failed {
			if je.index != wantFailed[j] {
				t.Fatalf("workers=%d: failed[%d].index = %d, want %d (ascending order)", workers, j, je.index, wantFailed[j])
			}
			if je.index == 25 {
				var perr *PanicError
				if !errors.As(je.err, &perr) || perr.Index != 25 {
					t.Fatalf("workers=%d: panic not captured as PanicError: %v", workers, je.err)
				}
			} else if !errors.Is(je.err, boom) {
				t.Fatalf("workers=%d: job %d error lost: %v", workers, je.index, je.err)
			}
		}
		if len(got) != 60-len(wantFailed) {
			t.Fatalf("workers=%d: reduced %d results, want %d", workers, len(got), 60-len(wantFailed))
		}
		want := 0
		for _, v := range got {
			for want%10 == 3 || want == 25 {
				want++
			}
			if v != want {
				t.Fatalf("workers=%d: fold order broken: got %d, want %d", workers, v, want)
			}
			want++
		}
	}
}

// TestMapReduceKeepGoingCleanRun: with no failures the run returns a nil
// error after a full fold.
func TestMapReduceKeepGoingCleanRun(t *testing.T) {
	var got []int
	var failed []jobFailure
	err := MapReduce(context.Background(), &Pool{Workers: 3}, 40,
		func(_ context.Context, _, i int) (int, error) { return i, nil },
		keepGoing(&failed, func(i, v int) error {
			got = append(got, v)
			return nil
		}))
	if err != nil || len(got) != 40 || len(failed) != 0 {
		t.Fatalf("clean keep-going run: err=%v, reduced=%d, failed=%v", err, len(got), failed)
	}
}

// TestMapReduceKeepGoingCancellationStillFatal: context cancellation —
// and job errors shaped like it — aborts the run and surfaces its error;
// it must not be recorded as a skippable failure. A reduce error is
// fatal too.
func TestMapReduceKeepGoingCancellationStillFatal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	reduced := 0
	var failed []jobFailure
	err := MapReduce(ctx, &Pool{Workers: 2}, 500,
		func(ctx context.Context, _, i int) (int, error) {
			if i == 20 {
				cancel()
			}
			return i, ctx.Err()
		},
		keepGoing(&failed, func(int, int) error { reduced++; return nil }))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(failed) > 0 {
		t.Fatalf("cancellation misreported as partial failure: %v", failed)
	}
	if reduced >= 500 {
		t.Fatal("cancellation did not stop the run")
	}

	// A reduce error is also still fatal.
	boom := errors.New("boom")
	err = MapReduce(context.Background(), &Pool{Workers: 2}, 50,
		func(_ context.Context, _, i int) (int, error) { return i, nil },
		keepGoing(&failed, func(i, _ int) error {
			if i == 7 {
				return boom
			}
			return nil
		}))
	if !errors.Is(err, boom) {
		t.Fatalf("reduce error lost: %v", err)
	}
}

// TestMapReportsLowestIndexFailure: job 1 fails after a delay and job 5
// fails at once; Map reports job 1's error at every worker count, since
// failures take effect in index order rather than in time order.
func TestMapReportsLowestIndexFailure(t *testing.T) {
	early, late := errors.New("job 5 failed first"), errors.New("job 1 failed later")
	for _, workers := range []int{1, 2, 4, 8, 0} {
		_, err := Map(context.Background(), &Pool{Workers: workers}, 10,
			func(_ context.Context, i int) (int, error) {
				switch i {
				case 1:
					time.Sleep(20 * time.Millisecond)
					return 0, late
				case 5:
					return 0, early
				}
				return i, nil
			})
		if !errors.Is(err, late) || !strings.Contains(err.Error(), "engine: job 1: ") {
			t.Errorf("workers=%d: err = %v, want job 1's error", workers, err)
		}
	}
}

// TestSeedForProperties: SeedFor is deterministic, O(1)-pure (same
// (base, i) -> same seed), and collision-free across a large index range
// and across nearby bases.
func TestSeedForProperties(t *testing.T) {
	if SeedFor(7, 3) != SeedFor(7, 3) {
		t.Fatal("SeedFor not deterministic")
	}
	seen := make(map[uint64]string, 300000)
	for base := uint64(0); base < 3; base++ {
		for i := uint64(0); i < 100000; i++ {
			s := SeedFor(base, i)
			key := fmt.Sprintf("%d/%d", base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (%s) and (%s) both derive %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}
