package core_test

import (
	"fmt"
	"testing"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/directory"
	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// TestShardedTrialDerivesOnlyReachedRelayKeys runs a trial shaped like
// the scale benchmark — 1,024 generated relays behind a 16-switch ring,
// 72 three-hop circuits on two shards — and checks that a relay's key
// is derived exactly when a circuit reached it: attaching a relay draws
// its key seed but costs no key derivation.
func TestShardedTrialDerivesOnlyReachedRelayKeys(t *testing.T) {
	const seed = 42
	bp := workload.DefaultBackboneParams(1024, 16)
	spec, err := workload.GenerateBackbone(bp)
	if err != nil {
		t.Fatal(err)
	}
	relays, err := workload.GenerateRelays(seed, bp.Relays)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := core.NewShardedNetwork(seed, spec, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sn.SetWindow(spec.MinPositiveTrunkDelay())
	descs := make([]directory.Descriptor, len(relays))
	for i, r := range relays {
		descs[i] = r.Desc
		if _, err := sn.AddRelay(r.Desc.ID, r.Access); err != nil {
			t.Fatal(err)
		}
	}
	cons, err := directory.NewConsensus(descs)
	if err != nil {
		t.Fatal(err)
	}

	access := netem.Symmetric(units.Mbps(100), 5*time.Millisecond, 0)
	pathRNG := sim.NewRNG(seed, "paths")
	reached := map[netem.NodeID]bool{}
	var circuits []*core.ShardedCircuit
	for i := 0; i < 72; i++ {
		path, err := cons.SelectPath(pathRNG, 3)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]netem.NodeID, len(path))
		for j, d := range path {
			ids[j] = d.ID
			reached[d.ID] = true
		}
		c, err := sn.BuildCircuit(core.CircuitSpec{
			Source: netem.NodeID(fmt.Sprintf("client-%03d", i)), Sink: netem.NodeID(fmt.Sprintf("server-%03d", i)),
			SourceAccess: access, SinkAccess: access, Relays: ids,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.ScheduleTransfer(0, 20*units.Kilobyte, true, nil)
		circuits = append(circuits, c)
	}
	sn.RunWindows(sim.Time(0).Add(30*time.Second), nil)
	for i, c := range circuits {
		if !c.Done() {
			t.Fatalf("circuit %d did not finish its transfer", i)
		}
	}

	derived := 0
	for _, r := range relays {
		id := r.Desc.ID
		got := sn.Identity(id).Derived()
		if got != reached[id] {
			t.Errorf("relay %q: key derived %v, reached by a circuit %v", id, got, reached[id])
		}
		if got {
			derived++
		}
	}
	t.Logf("%d of %d relays hold a derived key", derived, len(relays))
	if derived == 0 || derived >= len(relays)/2 {
		t.Fatalf("%d of %d relays derived a key: the trial does not tell used from unused relays", derived, len(relays))
	}
}
