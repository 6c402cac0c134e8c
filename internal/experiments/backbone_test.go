package experiments

import (
	"testing"

	"circuitstart/internal/scenario"
)

func TestAblationSharedBottleneck(t *testing.T) {
	sc := SharedBottleneck(42)
	res, err := scenario.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 2 {
		t.Fatalf("%d arms", len(res.Arms))
	}
	for _, arm := range res.Arms {
		if arm.Incomplete != 0 {
			t.Fatalf("arm %s left %d transfers incomplete", arm.Name, arm.Incomplete)
		}
		if arm.TTLB.Len() != sc.Circuits.Count {
			t.Fatalf("arm %s has %d samples, want %d", arm.Name, arm.TTLB.Len(), sc.Circuits.Count)
		}
		if arm.Net.UnknownDst != 0 || arm.Net.Unroutable != 0 {
			t.Fatalf("arm %s dropped frames in the fabric: %+v", arm.Name, arm.Net)
		}
		// Every circuit's data crossed the shared west>east trunk.
		var westEast uint64
		for _, ts := range arm.Trunks() {
			if ts.Name == "trunk:west>east" {
				westEast = ts.Stats.CellsDelivered
			}
		}
		if westEast == 0 {
			t.Fatalf("arm %s: no frames on the shared trunk", arm.Name)
		}
		// The trunk actually queued — it was the shared bottleneck.
		for _, ts := range arm.Trunks() {
			if ts.Name == "trunk:west>east" && ts.Stats.MaxQueueLen < 2 {
				t.Errorf("arm %s: trunk max queue %d — not a bottleneck", arm.Name, ts.Stats.MaxQueueLen)
			}
		}
	}
	// All transfers complete and the medians are in a sane band: the
	// aggregate can't beat trunk line rate.
	trunk := sc.Topology.Fabric.Trunks[0].Config.Rate
	wire := float64(sc.Circuits.TransferSize.Bytes()*8) * float64(sc.Circuits.Count) / (float64(trunk.Mbit()) * 1e6)
	for _, arm := range res.Arms {
		if arm.TTLB.Quantile(1) < wire/4 {
			t.Errorf("arm %s max TTLB %.3fs implausibly beats the shared trunk (aggregate floor %.3fs)",
				arm.Name, arm.TTLB.Quantile(1), wire)
		}
	}
}

func TestAblationSharedBottleneckDeterministic(t *testing.T) {
	sc := SharedBottleneck(42)
	a, err := scenario.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Arms {
		as, bs := a.Arms[i].TTLB.Sorted(), b.Arms[i].TTLB.Sorted()
		for j := range as {
			if as[j] != bs[j] {
				t.Fatalf("arm %d sample %d: %v vs %v", i, j, as[j], bs[j])
			}
		}
	}
}
