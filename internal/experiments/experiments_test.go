package experiments

import (
	"sort"
	"testing"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// --- Figure 1, upper panels -------------------------------------------

func TestFig1CwndTraceShape(t *testing.T) {
	// The paper's headline shape, for both bottleneck positions:
	// exponential ramp from 2 cells, overshoot, compensation onto the
	// optimal, convergence independent of bottleneck location.
	for _, hop := range []int{1, 3} {
		t.Run((map[int]string{1: "near", 3: "far"})[hop], func(t *testing.T) {
			r, err := Fig1CwndTrace(DefaultCwndTraceParams(hop))
			if err != nil {
				t.Fatal(err)
			}
			if r.Trace.Len() < 5 {
				t.Fatalf("trace has only %d points", r.Trace.Len())
			}
			first := r.Trace.Points()[0]
			if first.Value != 2 {
				t.Errorf("initial window = %v, want 2 cells", first.Value)
			}
			// The ramp must at least reach the optimal; with a distant
			// bottleneck it overshoots well past it ("the cwnd can
			// still massively 'overshoot', especially if the bottleneck
			// is distant from the source").
			if r.PeakCells < 0.8*r.OptimalCells {
				t.Errorf("ramp stopped short: peak %v < optimal %v", r.PeakCells, r.OptimalCells)
			}
			if hop == 3 && r.PeakCells < 1.2*r.OptimalCells {
				t.Errorf("distant bottleneck without overshoot: peak %v, optimal %v", r.PeakCells, r.OptimalCells)
			}
			if r.SettleTime < 0 {
				t.Fatalf("window never settled near the optimal %v (final %v)", r.OptimalCells, r.FinalCells)
			}
			if r.SettleTime > sim.Second {
				t.Errorf("settled only at %v", r.SettleTime)
			}
			if rel := r.FinalCells / r.OptimalCells; rel < 0.5 || rel > 1.6 {
				t.Errorf("final window %.1f not near optimal %.1f", r.FinalCells, r.OptimalCells)
			}
		})
	}
}

func TestFig1CwndTracePositionIndependence(t *testing.T) {
	// "Our approach is able to quickly adjust the cwnd independently of
	// the bottleneck's location": settle times for near and far
	// bottlenecks must be within the same order of magnitude.
	near, err := Fig1CwndTrace(DefaultCwndTraceParams(1))
	if err != nil {
		t.Fatal(err)
	}
	far, err := Fig1CwndTrace(DefaultCwndTraceParams(3))
	if err != nil {
		t.Fatal(err)
	}
	if near.SettleTime < 0 || far.SettleTime < 0 {
		t.Fatal("a trace never settled")
	}
	// "Quickly" is the operative claim: both must converge well within
	// the first second, and neither position may be pathologically
	// slower than the other.
	if near.SettleTime > sim.Second || far.SettleTime > sim.Second {
		t.Errorf("slow convergence: near %v, far %v", near.SettleTime, far.SettleTime)
	}
	ratio := float64(far.SettleTime) / float64(near.SettleTime)
	if ratio > 10 || ratio < 0.1 {
		t.Errorf("settle times differ by %vx (near %v, far %v)", ratio, near.SettleTime, far.SettleTime)
	}
}

func TestFig1CwndTraceDoublingRamp(t *testing.T) {
	r, err := Fig1CwndTrace(DefaultCwndTraceParams(3))
	if err != nil {
		t.Fatal(err)
	}
	// The first window values must double: 2, 4, 8, ...
	pts := r.Trace.Points()
	want := 2.0
	for i := 0; i < 4 && i < len(pts); i++ {
		if pts[i].Value != want {
			t.Fatalf("ramp step %d = %v, want %v", i, pts[i].Value, want)
		}
		want *= 2
	}
}

func TestFig1CwndTraceValidation(t *testing.T) {
	p := DefaultCwndTraceParams(1)
	p.BottleneckHop = 5
	if _, err := Fig1CwndTrace(p); err == nil {
		t.Fatal("bottleneck hop beyond path accepted")
	}
	p = DefaultCwndTraceParams(1)
	p.Hops = 0
	if _, err := Fig1CwndTrace(p); err == nil {
		t.Fatal("zero hops accepted")
	}
}

func TestCwndKBPointsUnits(t *testing.T) {
	r, err := Fig1CwndTrace(DefaultCwndTraceParams(1))
	if err != nil {
		t.Fatal(err)
	}
	kb := r.CwndKBPoints()
	if len(kb) != r.Trace.Len() {
		t.Fatalf("length mismatch")
	}
	// 2 cells ≈ 1.024 KB.
	if kb[0].Value != 2*512.0/1000 {
		t.Fatalf("first point %v KB", kb[0].Value)
	}
}

// --- Figure 1, lower panel --------------------------------------------

// smallCDFParams shrinks the aggregate experiment so the test suite
// stays fast; TestFidelityFig1DownloadGain runs the paper-scale version.
func smallCDFParams(seed int64) CDFParams {
	p := DefaultCDFParams()
	p.Seed = seed
	p.Scenario.Relays = workload.DefaultRelayParams(16)
	p.Scenario.Circuits = 12
	p.Scenario.TransferSize = 300 * units.Kilobyte
	return p
}

func TestFig1DownloadCDFShape(t *testing.T) {
	res, err := Fig1DownloadCDF(smallCDFParams(42))
	if err != nil {
		t.Fatal(err)
	}
	with, without := res.Arm("circuitstart"), res.Arm("backtap")
	if with == nil || without == nil {
		t.Fatal("missing arms")
	}
	if with.Incomplete > 0 || without.Incomplete > 0 {
		t.Fatalf("incomplete transfers: with=%d without=%d", with.Incomplete, without.Incomplete)
	}
	if with.TTLB.Len() != 12 || without.TTLB.Len() != 12 {
		t.Fatalf("sample counts %d/%d", with.TTLB.Len(), without.TTLB.Len())
	}
	// The paper's claim: CircuitStart improves download times. At the
	// median, "with" must not be slower, and it must win somewhere in
	// the distribution.
	gap := res.MedianGap("circuitstart", "backtap")
	if gap > 0.05 {
		t.Errorf("median gap %+.3fs — CircuitStart slower", gap)
	}
	if with.TTLB.Mean() >= without.TTLB.Mean() {
		t.Errorf("mean with %.3fs not better than without %.3fs", with.TTLB.Mean(), without.TTLB.Mean())
	}
}

func TestFig1DownloadCDFDeterministic(t *testing.T) {
	a, err := Fig1DownloadCDF(smallCDFParams(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig1DownloadCDF(smallCDFParams(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Arms {
		as, bs := a.Arms[i].TTLB.Sorted(), b.Arms[i].TTLB.Sorted()
		for j := range as {
			if as[j] != bs[j] {
				t.Fatalf("arm %d sample %d differs", i, j)
			}
		}
	}
}

// --- Ablations ---------------------------------------------------------

func TestAblationGamma(t *testing.T) {
	rows, err := AblationGamma(42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// Larger γ tolerates more queueing before exiting: exit time should
	// not decrease as γ grows (weak monotonicity, allowing ties).
	for i := 1; i < len(rows); i++ {
		if rows[i].ExitTime < rows[i-1].ExitTime/2 {
			t.Errorf("γ row %d exits much earlier (%v) than smaller γ (%v)",
				i, rows[i].ExitTime, rows[i-1].ExitTime)
		}
	}
	// Configurations around the paper's γ = 4 must converge. Very large
	// γ exits too late and too high — that failure mode is precisely
	// what this ablation demonstrates, so it is reported, not asserted.
	for i, r := range rows {
		if i <= 2 && r.SettleTime < 0 { // γ ∈ {1, 2, 4}
			t.Errorf("%s never settled", r.Label)
		}
	}
}

func TestAblationCompensation(t *testing.T) {
	rows, err := AblationCompensation(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byLabel := map[string]AblationRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	measured := byLabel["measured (paper)"]
	classic := byLabel["classic slow start"]
	errOf := func(r AblationRow) float64 {
		e := r.ExitCwnd/r.OptimalCells - 1
		if e < 0 {
			e = -e
		}
		return e
	}
	// The measured compensation must land near the optimal, and no
	// worse than classic slow start's halving exit.
	if errOf(measured) > 0.5 {
		t.Errorf("measured exit %.1f vs optimal %.1f", measured.ExitCwnd, measured.OptimalCells)
	}
	if errOf(measured) > errOf(classic)+0.05 {
		t.Errorf("measured exit error %.2f worse than classic %.2f", errOf(measured), errOf(classic))
	}
	// Every compensating variant must converge on this scenario.
	if measured.SettleTime < 0 {
		t.Error("measured variant never settled")
	}
}

func TestAblationFeedbackClock(t *testing.T) {
	rows, err := AblationFeedbackClock(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.PeakCells == 0 {
			t.Errorf("%s produced no trace", r.Label)
		}
	}
}

func TestAblationBottleneckPosition(t *testing.T) {
	rows, err := AblationBottleneckPosition(42, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SettleTime < 0 {
			t.Errorf("%s: never settled", r.Label)
			continue
		}
		if r.SettleTime > sim.Second {
			t.Errorf("%s: settled at %v", r.Label, r.SettleTime)
		}
	}
}

func TestAblationConcurrency(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregate sweep")
	}
	rows, err := AblationConcurrency(42, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.MedianWith <= 0 || r.MedianWithout <= 0 {
			t.Errorf("concurrency %d: zero medians %+v", r.Circuits, r)
		}
	}
}

// TestAblationGammaScenarioEquivalence asserts the multi-arm scenario
// sweep behind AblationGamma reproduces the one-trace-at-a-time legacy
// implementation bit for bit: each arm's trial is an independent
// network with the same seed, so batching arms must change nothing.
func TestAblationGammaScenarioEquivalence(t *testing.T) {
	rows, err := AblationGamma(42, nil)
	if err != nil {
		t.Fatal(err)
	}
	gammas := []float64{1, 2, 4, 8, 16}
	if len(rows) != len(gammas) {
		t.Fatalf("%d rows", len(rows))
	}
	for i, g := range gammas {
		p := DefaultCwndTraceParams(3)
		p.Seed = 42
		p.Transport.Gamma = g
		r, err := Fig1CwndTrace(p)
		if err != nil {
			t.Fatal(err)
		}
		want := rowFromTrace(rows[i].Label, r)
		if rows[i] != want {
			t.Errorf("gamma=%g: scenario row %+v != per-call row %+v", g, rows[i], want)
		}
	}
}

// TestFig1DownloadCDFScenarioEquivalence asserts the CDF adapter's
// declarative scenario matches running each arm by hand through the
// workload package — the legacy execution path.
func TestFig1DownloadCDFScenarioEquivalence(t *testing.T) {
	p := smallCDFParams(42)
	res, err := Fig1DownloadCDF(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range p.Policies {
		sp := p.Scenario
		sp.Transport.Policy = policy
		sc, err := workload.Build(p.Seed, sp)
		if err != nil {
			t.Fatal(err)
		}
		var want []float64
		for _, r := range sc.Run(p.Horizon) {
			if r.Done {
				want = append(want, r.TTLB.Seconds())
			}
		}
		sort.Float64s(want)
		got := res.Arm(policy).TTLB.Sorted()
		if len(got) != len(want) {
			t.Fatalf("arm %q: %d vs %d samples", policy, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("arm %q sample %d: %v vs %v", policy, i, got[i], want[i])
			}
		}
	}
}

func TestExtensionDynamicRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second capacity-step run")
	}
	base := DynamicRestartParams{
		Seed:       42,
		BeforeRate: units.Mbps(8),
		AfterRate:  units.Mbps(40),
		StepAt:     sim.Second,
		Horizon:    5 * sim.Second,
	}

	withExt := base
	withExt.RestartRounds = 3
	re, err := ExtensionDynamicRestart(withExt)
	if err != nil {
		t.Fatal(err)
	}
	if re.OptimalAfter <= re.OptimalBefore {
		t.Fatalf("model optima not ordered: %v -> %v", re.OptimalBefore, re.OptimalAfter)
	}
	if re.RecoveryTime < 0 {
		t.Fatalf("window never recovered to the new optimal (final %v, target %v)", re.FinalCells, re.OptimalAfter)
	}
	if re.Restarts == 0 {
		t.Error("extension enabled but no re-probe happened")
	}

	without := base
	without.RestartRounds = -1
	ro, err := ExtensionDynamicRestart(without)
	if err != nil {
		t.Fatal(err)
	}
	// Without re-probing, recovery is one cell per RTT — much slower
	// (or absent within the horizon).
	if ro.RecoveryTime >= 0 && ro.RecoveryTime < re.RecoveryTime {
		t.Errorf("baseline recovered faster (%v) than the extension (%v)", ro.RecoveryTime, re.RecoveryTime)
	}
}

func TestAblationExtensions(t *testing.T) {
	rows, err := AblationExtensions(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byLabel := map[string]AblationRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	// The default configuration must converge; the paper-pure arm must
	// at least exit near or above the others' exit (it has no downward
	// correction, so its final window may sit higher).
	def := byLabel["both extensions (default)"]
	if def.SettleTime < 0 {
		t.Error("default configuration never settled")
	}
	pure := byLabel["paper-pure (neither)"]
	if pure.PeakCells == 0 {
		t.Error("paper-pure arm produced no trace")
	}
}

func TestAblationVegas(t *testing.T) {
	rows, err := AblationVegas(42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// The default (2,4) must converge; larger thresholds tolerate more
	// standing queue, so the final window is weakly increasing in beta.
	if rows[1].SettleTime < 0 {
		t.Errorf("alpha=2 beta=4 never settled")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].FinalCells < rows[i-1].FinalCells-6 {
			t.Errorf("final window dropped sharply from %s (%.1f) to %s (%.1f)",
				rows[i-1].Label, rows[i-1].FinalCells, rows[i].Label, rows[i].FinalCells)
		}
	}
}
