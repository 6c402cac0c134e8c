package experiments

import (
	"testing"

	"circuitstart/internal/scenario"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// smallChurnParams shrinks the default churn ablation for fast tests.
func smallChurnParams() ChurnParams {
	p := DefaultChurnParams()
	p.Relays = workload.DefaultRelayParams(16)
	p.InitialCircuits = 5
	p.Arrivals = 10
	p.ArrivalRate = 6
	p.TransferSize = 150 * units.Kilobyte
	p.Failures = 1
	return p
}

func TestAblationChurnLifecycle(t *testing.T) {
	res, err := AblationChurn(smallChurnParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range res.Arms {
		if got := len(arm.Circuits); got != 15 {
			t.Fatalf("arm %q has %d downloads, want 15", arm.Name, got)
		}
		c := arm.Churn
		if c.Built < 15 || c.TornDown != c.Built {
			t.Fatalf("arm %q lifecycle: %+v", arm.Name, c)
		}
		if c.Lifetime.Len() != c.TornDown {
			t.Fatalf("arm %q pooled %d lifetimes for %d teardowns", arm.Name, c.Lifetime.Len(), c.TornDown)
		}
		if arm.TTLB.Len() == 0 {
			t.Fatalf("arm %q completed nothing", arm.Name)
		}
	}
}

func TestAblationChurnDeterministicAcrossWorkers(t *testing.T) {
	p := smallChurnParams()
	sc, err := p.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	a, err := scenario.Runner{Workers: 1}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Runner{Workers: 8}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Arms {
		as, bs := a.Arms[i].TTLB.Sorted(), b.Arms[i].TTLB.Sorted()
		if len(as) != len(bs) {
			t.Fatalf("arm %d sample counts %d vs %d", i, len(as), len(bs))
		}
		for j := range as {
			if as[j] != bs[j] {
				t.Fatalf("arm %d sample %d: %v vs %v", i, j, as[j], bs[j])
			}
		}
		if a.Arms[i].Churn.Rebuilt != b.Arms[i].Churn.Rebuilt ||
			a.Arms[i].Churn.Built != b.Arms[i].Churn.Built {
			t.Fatalf("arm %d churn stats differ: %+v vs %+v", i, a.Arms[i].Churn, b.Arms[i].Churn)
		}
	}
}

func TestAblationChurnValidation(t *testing.T) {
	cases := []func(*ChurnParams){
		func(p *ChurnParams) { p.InitialCircuits = 0 },
		func(p *ChurnParams) { p.TransferSize = 0 },
		func(p *ChurnParams) { p.Arrivals = 5; p.ArrivalRate = 0 },
		func(p *ChurnParams) { p.Failures = -1 },
		func(p *ChurnParams) { p.Failures = p.Relays.N + 1 },
		func(p *ChurnParams) { p.FailAt = 0 },
	}
	for i, mutate := range cases {
		p := smallChurnParams()
		mutate(&p)
		if _, err := AblationChurn(p); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

// TestAblationChurnWidensTheGap asserts the headline property: in the
// startup-dominated churn regime — short downloads over fresh circuits,
// relay failures forcing repeated startups — CircuitStart's median win
// over plain BackTap exceeds its win in the static Figure-1 experiment.
func TestAblationChurnWidensTheGap(t *testing.T) {
	if testing.Short() {
		t.Skip("two full aggregate runs")
	}
	churn, err := AblationChurn(DefaultChurnParams())
	if err != nil {
		t.Fatal(err)
	}
	churnGap := churn.MedianGap("backtap", "circuitstart")
	static, err := paperCDF()
	if err != nil {
		t.Fatal(err)
	}
	staticGap := static.MedianGap("backtap", "circuitstart")
	// The published gap (EXPERIMENTS.md, "circuit churn"); the static
	// one is pinned by TestFidelityFig1DownloadGain.
	within(t, "churn median gain [s]", churnGap, 0.264, 0.03)
	if churnGap <= 0 {
		t.Fatalf("churn gap %.3fs — CircuitStart not ahead under churn", churnGap)
	}
	if churnGap <= staticGap {
		t.Fatalf("churn gap %.3fs not larger than static gap %.3fs", churnGap, staticGap)
	}
	for _, arm := range churn.Arms {
		if arm.Churn.Rebuilt == 0 {
			t.Fatalf("arm %q saw no rebuilds — the failure schedule missed every circuit", arm.Name)
		}
	}
}
