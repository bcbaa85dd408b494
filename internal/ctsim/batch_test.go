package ctsim_test

// Batched arrival-draw tests: the buffered RenewalSource (armed by
// NewRenewalSource whenever the law implements dist.BulkSampler) must
// emit exactly the arrival sequence of an unbuffered source, draw block
// refills without allocating, and replay identically after Reset. The
// existing TestCTHotPathAllocationFree covers the batched path inside
// the full event loop; these tests isolate the source itself.

import (
	"fmt"
	"testing"

	"repro/internal/ctsim"
	"repro/internal/dist"
	"repro/internal/rng"
)

// TestBatchedSourceMatchesUnbatched: for every stock law, a buffered
// source and a literal-constructed (bufferless) source emit bit-equal
// arrival times from equal streams — with no limit, with a limit the
// run crosses (100 s, about 200 arrivals in), and with a limit so far
// out that the block-size estimate exceeds every int (1e30 s).
func TestBatchedSourceMatchesUnbatched(t *testing.T) {
	for _, name := range dist.Names() {
		t.Run(name, func(t *testing.T) {
			for _, limit := range []float64{0, 100, 1e30} {
				t.Run(fmt.Sprintf("limit=%g", limit), func(t *testing.T) {
					d, err := dist.ByName(name, 2.0)
					if err != nil {
						t.Fatal(err)
					}
					batched, err := ctsim.NewRenewalSource(d)
					if err != nil {
						t.Fatal(err)
					}
					batched.SetLimit(limit)
					plain := &ctsim.RenewalSource{D: d} // no buffer armed
					sa, sb := rng.New(31), rng.New(31)
					for i := 0; i < 500; i++ {
						got, want := batched.Next(sa), plain.Next(sb)
						if got != want {
							t.Fatalf("arrival %d: batched %v, unbatched %v", i, got, want)
						}
					}
				})
			}
		})
	}
}

// TestBatchedSourceResetReplays: Reset must discard pre-drawn gaps and
// replay a fresh source's sequence exactly, including the block-size
// ramp (fresh stream, fresh cursor).
func TestBatchedSourceResetReplays(t *testing.T) {
	d, err := dist.ByName("pareto", 3.0)
	if err != nil {
		t.Fatal(err)
	}
	src, err := ctsim.NewRenewalSource(d)
	if err != nil {
		t.Fatal(err)
	}
	first := make([]float64, 100)
	s := rng.New(5)
	for i := range first {
		first[i] = src.Next(s)
	}
	// Stop mid-block (100 is not a block boundary on the 1→64 ramp),
	// then reset with an identically seeded stream.
	src.Reset()
	s2 := rng.New(5)
	for i := range first {
		if got := src.Next(s2); got != first[i] {
			t.Fatalf("arrival %d after Reset: %v, want %v", i, got, first[i])
		}
	}
}

// TestBatchedArrivalAllocationFree: steady-state Next calls — including
// every block refill past the construction-time buffer — allocate
// nothing. This is the batched-RNG arrival half of the CI alloc gate.
func TestBatchedArrivalAllocationFree(t *testing.T) {
	for _, name := range dist.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			d, err := dist.ByName(name, 2.0)
			if err != nil {
				t.Fatal(err)
			}
			src, err := ctsim.NewRenewalSource(d)
			if err != nil {
				t.Fatal(err)
			}
			s := rng.New(9)
			src.Next(s) // arm the first block
			avg := testing.AllocsPerRun(10, func() {
				for i := 0; i < 1000; i++ {
					src.Next(s)
				}
			})
			if avg > 0 {
				t.Errorf("batched arrival path allocates: %.2f allocs per 1000 draws, want 0", avg)
			}
		})
	}
}

// BenchmarkArrivalDraw compares the interface-dispatch-per-event draw
// against the batched path for the heavy-tailed law the fleet mix leans
// on.
func BenchmarkArrivalDraw(b *testing.B) {
	d, err := dist.ByName("pareto", 2.5)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unbatched", func(b *testing.B) {
		src := &ctsim.RenewalSource{D: d}
		s := rng.New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.Next(s)
		}
	})
	b.Run("batched", func(b *testing.B) {
		src, err := ctsim.NewRenewalSource(d)
		if err != nil {
			b.Fatal(err)
		}
		s := rng.New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.Next(s)
		}
	})
}
