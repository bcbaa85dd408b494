package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunUncoupledMatchesPR6Golden pins the "coupling off ≡ pre-refactor
// output" contract: with no -couple, stdout is byte-identical to the
// output the PR 6 binary produced for the same flags (testdata goldens
// captured from that build). This is what licenses the multi-layer
// refactor — ctsim.NewShared, the resource hook, and the summary's
// interference fields must all be invisible until coupling is switched
// on.
func TestRunUncoupledMatchesPR6Golden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"golden_pr6_ct2k.txt", []string{"-devices", "2000", "-horizon", "120", "-seed", "1"}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run(context.Background(), &out, tc.args); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("uncoupled output drifted from the PR 6 golden %s:\n--- got ---\n%s\n--- want ---\n%s",
					tc.golden, out.Bytes(), want)
			}
		})
	}
}

// TestRunCoupledDeterministicAcrossPools: the coupled CLI surface is
// bit-identical between serial and pooled runs for every shared
// resource — the acceptance-criteria diff, at test scale.
func TestRunCoupledDeterministicAcrossPools(t *testing.T) {
	for _, couple := range []string{"channel", "gateway", "power"} {
		t.Run(couple, func(t *testing.T) {
			base := []string{"-devices", "60", "-horizon", "40", "-seed", "5",
				"-couple", couple, "-couple-size", "4", "-shard", "12"}
			var serial, pooled bytes.Buffer
			if err := run(context.Background(), &serial, append(base, "-parallel", "1")); err != nil {
				t.Fatal(err)
			}
			if err := run(context.Background(), &pooled, append(base, "-parallel", "4")); err != nil {
				t.Fatal(err)
			}
			if serial.String() != pooled.String() {
				t.Fatalf("coupled output differs between -parallel 1 and 4:\n%s\nvs\n%s", serial.String(), pooled.String())
			}
		})
	}
}

// TestRunCoupledJSONReport: the coupled -json report carries the
// coupling echo and interference blocks, fleet-level and per group;
// uncoupled JSON omits them entirely (the omitempty contract keeping
// pre-coupling reports byte-identical).
func TestRunCoupledJSONReport(t *testing.T) {
	var coupled, plain bytes.Buffer
	base := []string{"-devices", "60", "-horizon", "60", "-seed", "5", "-json"}
	if err := run(context.Background(), &coupled, append(base, "-couple", "channel", "-couple-size", "4", "-shard", "12")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &plain, base); err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(coupled.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, coupled.String())
	}
	if rep.Couple != "channel" || rep.CoupleSize != 4 {
		t.Fatalf("coupling echo wrong: %+v", rep)
	}
	if rep.Interference == nil || !(rep.Interference.ResourceWaitMeanSec > 0) {
		t.Fatalf("fleet interference block missing or empty: %+v", rep.Interference)
	}
	for _, g := range append(rep.Classes, rep.Policies...) {
		if g.Interference == nil {
			t.Fatalf("group %s lacks an interference block", g.Name)
		}
	}
	if bytes.Contains(plain.Bytes(), []byte("interference")) || bytes.Contains(plain.Bytes(), []byte("couple")) {
		t.Fatalf("uncoupled JSON leaks coupling fields:\n%s", plain.String())
	}
	// Bad coupling flags are startup errors.
	for _, args := range [][]string{
		{"-devices", "10", "-couple", "mesh"},
		{"-devices", "10", "-couple", "channel", "-mode", "slot"},
		{"-devices", "10", "-couple-size", "4"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), &out, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
