package circuitstart_test

import (
	"fmt"
	"time"

	"circuitstart"
)

// Build a three-relay circuit with an 8 Mbit/s middle bottleneck, run
// a 500 kB download with CircuitStart on every hop, then tear the
// circuit down and verify the relays released its state.
func Example() {
	n := circuitstart.NewNetwork(42)
	fast := circuitstart.Symmetric(circuitstart.Mbps(100), 5*time.Millisecond, 0)
	slow := circuitstart.Symmetric(circuitstart.Mbps(8), 5*time.Millisecond, 0)
	n.MustAddRelay("guard", fast)
	n.MustAddRelay("middle", slow)
	n.MustAddRelay("exit", fast)

	c := n.MustBuildCircuit(circuitstart.CircuitSpec{
		Source:       "client",
		Sink:         "server",
		SourceAccess: fast,
		SinkAccess:   fast,
		Relays:       []circuitstart.NodeID{"guard", "middle", "exit"},
	})
	c.Transfer(500*circuitstart.Kilobyte, nil)
	n.Run()

	ttlb, done := c.TTLB()
	fmt.Printf("done=%v ttlb=%v\n", done, ttlb.Round(time.Millisecond))

	c.Teardown()
	fmt.Printf("closed=%v circuits at middle relay: %d\n",
		c.Closed(), n.Relay("middle").Circuits())
	// Output:
	// done=true ttlb=746ms
	// closed=true circuits at middle relay: 0
}

// The declarative API: the same comparison the paper's lower panel
// makes — with vs without CircuitStart — as a two-arm scenario on the
// parallel runner. The result is bit-identical for any Workers value.
func ExampleRunner() {
	pop := circuitstart.DefaultRelayParams(12)
	res, err := circuitstart.Runner{Workers: 2}.Run(circuitstart.Scenario{
		Name:     "example",
		Seed:     42,
		Topology: circuitstart.Topology{Population: &pop},
		Circuits: circuitstart.CircuitSet{
			Count:        6,
			TransferSize: 200 * circuitstart.Kilobyte,
		},
		Arms: []circuitstart.Arm{
			{Name: "with"},
			{Name: "without", Transport: circuitstart.TransportOptions{Policy: circuitstart.PolicyBackTap}},
		},
		Horizon: 600 * circuitstart.Second,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("with:    median %.3f s over %d transfers\n",
		res.Arm("with").TTLB.Median(), res.Arm("with").TTLB.Len())
	fmt.Printf("without: median %.3f s over %d transfers\n",
		res.Arm("without").TTLB.Median(), res.Arm("without").TTLB.Len())
	// Output:
	// with:    median 0.589 s over 6 transfers
	// without: median 0.864 s over 6 transfers
}

// A custom experiment none of the paper's figures cover: four start-up
// policies — CircuitStart, plain BackTap, classic slow start and a
// Tor-SENDME-like fixed window — on one relay population, with
// downloads arriving as a Poisson process and two replications per
// arm.
func ExampleRunner_policies() {
	pop := circuitstart.DefaultRelayParams(16)
	res, err := circuitstart.Runner{Workers: 2}.Run(circuitstart.Scenario{
		Name:     "policy-shootout",
		Seed:     1,
		Topology: circuitstart.Topology{Population: &pop},
		Circuits: circuitstart.CircuitSet{
			Count:        6,
			TransferSize: 200 * circuitstart.Kilobyte,
			Download:     true,
			Arrival:      circuitstart.Arrival{Kind: circuitstart.ArrivePoisson, Rate: 20},
		},
		Arms: []circuitstart.Arm{
			{Name: "circuitstart"},
			{Name: "backtap", Transport: circuitstart.TransportOptions{Policy: circuitstart.PolicyBackTap}},
			{Name: "slowstart", Transport: circuitstart.TransportOptions{Policy: circuitstart.PolicySlowStart}},
			{Name: "fixed-50", Transport: circuitstart.TransportOptions{Policy: circuitstart.PolicyFixed, FixedWindow: 50}},
		},
		Horizon:      600 * circuitstart.Second,
		Replications: 2,
	})
	if err != nil {
		panic(err)
	}
	for _, arm := range res.Arms[1:] {
		fmt.Printf("%-9s median TTLB %+.3f s vs circuitstart\n",
			arm.Name, res.MedianGap(arm.Name, "circuitstart"))
	}
	// Output:
	// backtap   median TTLB +0.296 s vs circuitstart
	// slowstart median TTLB +0.392 s vs circuitstart
	// fixed-50  median TTLB -0.230 s vs circuitstart
}

// The paper's γ ablation as a one-dimensional grid on the sweep
// engine: the same single-circuit trace scenario AblationGamma runs,
// so every grid point reproduces that ablation's exit window exactly.
func ExampleSweepEngine() {
	p := circuitstart.DefaultCwndTraceParams(3)
	gammas := []float64{1, 4, 16}
	tbl, err := circuitstart.SweepEngine{Workers: 2}.Run(circuitstart.Sweep{
		Name:       "gamma",
		Base:       p.Scenario([]circuitstart.Arm{{Name: "trace"}}),
		Dimensions: []circuitstart.Dimension{circuitstart.SweepGamma(gammas...)},
	})
	if err != nil {
		panic(err)
	}
	rows, err := circuitstart.AblationGamma(p.Seed, gammas)
	if err != nil {
		panic(err)
	}
	for i, r := range tbl.Rows {
		fmt.Printf("gamma=%s exit %.1f cells (ablation %.1f)\n",
			r.Coords[0], r.ExitCwndMean, rows[i].ExitCwnd)
	}
	// Output:
	// gamma=1 exit 32.0 cells (ablation 32.0)
	// gamma=4 exit 34.9 cells (ablation 34.9)
	// gamma=16 exit 50.0 cells (ablation 50.0)
}
