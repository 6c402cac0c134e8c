package circuitstart_test

import (
	"testing"
	"time"

	"circuitstart"
)

// TestPublicAPIQuickstart exercises the documented quick-start flow end
// to end through the facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	n := circuitstart.NewNetwork(1)
	access := circuitstart.Symmetric(circuitstart.Mbps(20), 5*time.Millisecond, 0)
	for _, id := range []circuitstart.NodeID{"guard", "middle", "exit"} {
		n.MustAddRelay(id, access)
	}
	c := n.MustBuildCircuit(circuitstart.CircuitSpec{
		Source:       "client",
		Sink:         "server",
		SourceAccess: access,
		SinkAccess:   access,
		Relays:       []circuitstart.NodeID{"guard", "middle", "exit"},
		Transport:    circuitstart.TransportOptions{Policy: circuitstart.PolicyCircuitStart},
	})
	c.Transfer(500*circuitstart.Kilobyte, nil)
	n.RunUntil(30 * circuitstart.Second)
	ttlb, done := c.TTLB()
	if !done || ttlb <= 0 {
		t.Fatalf("transfer incomplete: %v, %v", ttlb, done)
	}
}

func TestPublicAPIPolicies(t *testing.T) {
	policies := []string{
		circuitstart.PolicyCircuitStart,
		circuitstart.PolicyBackTap,
		circuitstart.PolicySlowStart,
		circuitstart.PolicyCircuitStartHalve,
		circuitstart.PolicySlowStartCompensated,
	}
	access := circuitstart.Symmetric(circuitstart.Mbps(20), 2*time.Millisecond, 0)
	for _, p := range policies {
		t.Run(p, func(t *testing.T) {
			n := circuitstart.NewNetwork(2)
			n.MustAddRelay("r", access)
			c := n.MustBuildCircuit(circuitstart.CircuitSpec{
				Source: "c", Sink: "s",
				SourceAccess: access, SinkAccess: access,
				Relays:    []circuitstart.NodeID{"r"},
				Transport: circuitstart.TransportOptions{Policy: p},
			})
			c.Transfer(100*circuitstart.Kilobyte, nil)
			n.RunUntil(30 * circuitstart.Second)
			if _, done := c.TTLB(); !done {
				t.Fatalf("policy %s did not complete", p)
			}
		})
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	r, err := circuitstart.Fig1CwndTrace(circuitstart.DefaultCwndTraceParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace.Len() == 0 || r.OptimalCells <= 0 {
		t.Fatalf("empty result: %+v", r)
	}
	sc := circuitstart.Fig1CDF(42)
	sc.Circuits.Count = 4
	pop := circuitstart.DefaultRelayParams(12)
	sc.Topology.Population = &pop
	sc.Circuits.TransferSize = 100 * circuitstart.Kilobyte
	cdf, err := circuitstart.Runner{}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range cdf.Arms {
		if arm.Incomplete != 0 || arm.TTLB.Len() != 4 {
			t.Fatalf("arm %s: %d of 4 done, %d incomplete", arm.Name, arm.TTLB.Len(), arm.Incomplete)
		}
	}
}

// TestPublicAPIBackbone exercises the routed-fabric surface through the
// facade only: a generated backbone spec, a scenario on it, a trunk
// capacity event, and the per-trunk stats in the result.
func TestPublicAPIBackbone(t *testing.T) {
	bp := circuitstart.DefaultBackboneParams(8, 2)
	bp.Kind = circuitstart.BackboneLine
	spec, err := circuitstart.GenerateBackbone(bp)
	if err != nil {
		t.Fatal(err)
	}
	pop := bp.Relays
	res, err := circuitstart.Runner{Workers: 2}.Run(circuitstart.Scenario{
		Seed:     9,
		Topology: circuitstart.Topology{Population: &pop, Fabric: &spec},
		Circuits: circuitstart.CircuitSet{
			Count:        4,
			TransferSize: 100 * circuitstart.Kilobyte,
		},
		Arms: []circuitstart.Arm{{Name: "default"}},
		Events: []circuitstart.LinkEvent{
			{At: circuitstart.Second, TrunkA: "core-00", TrunkB: "core-01", Rate: circuitstart.Mbps(400)},
		},
		Horizon: 600 * circuitstart.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	arm := res.Arms[0]
	if arm.Incomplete != 0 {
		t.Fatalf("%d transfers incomplete", arm.Incomplete)
	}
	if arm.Net.UnknownDst != 0 || arm.Net.Unroutable != 0 {
		t.Fatalf("fabric dropped frames: %+v", arm.Net)
	}
	if len(arm.Trunks()) != 2 {
		t.Fatalf("%d trunk stats, want 2", len(arm.Trunks()))
	}
}
