package experiment_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/fleet"
)

func fleetScenario() experiment.FleetScenario {
	return experiment.FleetScenario{
		Name: "test-fleet",
		Spec: fleet.Spec{
			Devices:   23,
			Classes:   fleet.DefaultMix(),
			Horizon:   50,
			ShardSize: 4,
		},
	}
}

// TestRunFleetReplicatedBitIdenticalAcrossPools: the pooled replicated
// fleet summary equals the serial one bit for bit — the experiment-layer
// extension of the fleet determinism contract.
func TestRunFleetReplicatedBitIdenticalAcrossPools(t *testing.T) {
	sc := fleetScenario()
	seeds := engine.DeriveSeeds(9, 2)
	serial, err := experiment.RunFleetReplicatedCtx(context.Background(), sc, seeds, experiment.Parallel{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := experiment.RunFleetReplicatedCtx(context.Background(), sc, seeds, experiment.Parallel{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, pooled) {
		t.Fatalf("replicated fleet summary differs across pool sizes:\n%+v\nvs\n%+v", serial, pooled)
	}
	if serial.Replicas != 2 {
		t.Fatalf("pooled %d replicas, want 2", serial.Replicas)
	}
	if serial.Fleet.Devices != int64(2*sc.Spec.Devices) {
		t.Fatalf("merged fleet covers %d instances, want %d", serial.Fleet.Devices, 2*sc.Spec.Devices)
	}
	if serial.AvgPowerW.N() != 2 {
		t.Fatalf("replica-level accumulator has %d samples, want 2", serial.AvgPowerW.N())
	}
}

// TestRunFleetReplicatedValidates: empty seeds and invalid specs are
// rejected up front.
func TestRunFleetReplicatedValidates(t *testing.T) {
	sc := fleetScenario()
	if _, err := experiment.RunFleetReplicatedCtx(context.Background(), sc, nil, experiment.Parallel{}); err == nil {
		t.Fatal("no-seed replication accepted")
	}
	sc.Spec.Devices = 0
	if _, err := experiment.RunFleetReplicatedCtx(context.Background(), sc, []uint64{1}, experiment.Parallel{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	sc = fleetScenario()
	sc.Name = ""
	if err := sc.Validate(); err == nil {
		t.Fatal("unnamed scenario accepted")
	}
}

// TestTableFleetShape: the rendered table carries one row per class,
// one per distinct policy, and a fleet-total row, plus wait percentiles
// in the note.
func TestTableFleetShape(t *testing.T) {
	tab, err := experiment.TableFleetCtx(context.Background(), 16, 40,
		[]uint64{1}, experiment.Parallel{})
	if err != nil {
		t.Fatal(err)
	}
	// DefaultMix: 4 classes, 3 distinct policies, 1 fleet row.
	if want := 4 + 3 + 1; len(tab.Rows) != want {
		t.Fatalf("table has %d rows, want %d:\n%+v", len(tab.Rows), want, tab.Rows)
	}
	if tab.Rows[len(tab.Rows)-1][0] != "fleet" {
		t.Fatalf("last row is %q, want the fleet total", tab.Rows[len(tab.Rows)-1][0])
	}
	if !strings.Contains(tab.Note, "p50/p90/p99") {
		t.Fatalf("note lacks wait percentiles: %q", tab.Note)
	}
}
