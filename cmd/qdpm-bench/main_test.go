package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_<exp>.txt from the -parallel 1 run")

// TestQuickGoldens pins every deterministic experiment's -quick stdout,
// so "output unchanged" is a test rather than a hand diff. Each
// experiment runs serially and on a pool of four; both must equal the
// golden. r1 is left out because it measures wall-clock time.
//
// The goldens are recorded on amd64. On arm64 the Go compiler fuses
// x*y+z into one instruction, so floats there can differ in the last
// bits and these comparisons may fail without any code change.
//
// Rewrite the goldens with: go test ./cmd/qdpm-bench -run TestQuickGoldens -update
func TestQuickGoldens(t *testing.T) {
	for _, exp := range []string{"fig1", "fig2", "r2", "r3", "r4", "ablate", "ct", "fleet", "coupled", "faulted", "analytic"} {
		t.Run(exp, func(t *testing.T) {
			path := filepath.Join("testdata", "golden_"+exp+".txt")
			for _, parallel := range []int{1, 4} {
				var out bytes.Buffer
				args := []string{"-exp", exp, "-quick", "-parallel", strconv.Itoa(parallel)}
				if err := run(context.Background(), args, &out, io.Discard); err != nil {
					t.Fatal(err)
				}
				if *update && parallel == 1 {
					if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), want) {
					t.Fatalf("-parallel %d output differs from %s:\n--- got ---\n%s\n--- want ---\n%s",
						parallel, path, out.Bytes(), want)
				}
			}
		})
	}
}

// TestRunRejectsUnknownExperiment: a bad -exp is an error, not a silent
// empty run.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "bogus"}, &out, io.Discard); err == nil {
		t.Fatal("-exp bogus accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("-exp bogus wrote to stdout:\n%s", out.String())
	}
}
