package experiments

import (
	"math"
	"sync"
	"testing"

	"circuitstart/internal/sim"
)

// Paper-fidelity pins: the numbers EXPERIMENTS.md publishes at seed 42,
// each with an explicit tolerance. The runs are deterministic, so the
// tolerances are not noise margins: they are how far a refactor of the
// engine may move the simulated science before someone must look. A
// change that reorders same-instant events can shift a window by a
// fraction of a cell or a median by a few milliseconds; one that moves
// a number past these bounds has changed the experiment, and either it
// is a bug or EXPERIMENTS.md and these pins are updated together.

// within fails unless got is within tol of the published value.
func within(t *testing.T, what string, got, published, tol float64) {
	t.Helper()
	if math.Abs(got-published) > tol {
		t.Errorf("%s = %.4g, published %.4g ± %.2g", what, got, published, tol)
	}
}

// paperCDF runs the paper-scale Figure 1 lower panel once for every
// test that needs it (50 circuits × 500 kB × 2 arms, seconds of wall
// time).
var paperCDF = sync.OnceValues(func() (CDFResult, error) {
	return Fig1DownloadCDF(DefaultCDFParams())
})

// Figure 1, upper panels: the compensated exit lands just under the
// model's optimal window wherever the bottleneck sits, and the distant
// bottleneck overshoots roughly threefold before settling.
func TestFidelityFig1ExitWindows(t *testing.T) {
	for _, pub := range []struct {
		hop                        int
		exit, optimal, peak, final float64
		settle                     sim.Time
	}{
		{hop: 1, exit: 36.7, optimal: 39.0, peak: 39, final: 39, settle: 97 * sim.Millisecond},
		{hop: 3, exit: 34.9, optimal: 38.0, peak: 121.5, final: 37, settle: 724 * sim.Millisecond},
	} {
		r, err := Fig1CwndTrace(DefaultCwndTraceParams(pub.hop))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("hop %d: exit %.2f optimal %.2f peak %.1f final %.1f settle %v",
			pub.hop, r.ExitCwnd, r.OptimalCells, r.PeakCells, r.FinalCells, r.SettleTime)
		within(t, "exit cwnd [cells]", r.ExitCwnd, pub.exit, 1)
		within(t, "optimal [cells]", r.OptimalCells, pub.optimal, 0.1)
		within(t, "peak cwnd [cells]", r.PeakCells, pub.peak, 0.05*pub.peak)
		within(t, "final cwnd [cells]", r.FinalCells, pub.final, 2)
		within(t, "settle time [s]", r.SettleTime.Seconds(), pub.settle.Seconds(), 0.1*pub.settle.Seconds())
		if r.ExitCwnd > r.OptimalCells {
			t.Errorf("hop %d: exit %.1f above the optimal %.1f: compensation overshot", pub.hop, r.ExitCwnd, r.OptimalCells)
		}
	}
}

// Figure 1, lower panel: both medians, the 0.187 s median gain, and the
// largest gain at equal quantiles (the paper's "up to 0.5 seconds").
func TestFidelityFig1DownloadGain(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale aggregate run")
	}
	res, err := paperCDF()
	if err != nil {
		t.Fatal(err)
	}
	with, without := res.Arm("circuitstart"), res.Arm("backtap")
	if with.Incomplete+without.Incomplete != 0 || with.TTLB.Len() != 50 || without.TTLB.Len() != 50 {
		t.Fatalf("samples %d/%d, incomplete %d/%d, want 50/50 and none",
			with.TTLB.Len(), without.TTLB.Len(), with.Incomplete, without.Incomplete)
	}
	ws, wos := with.TTLB.Sorted(), without.TTLB.Sorted()
	maxGain := 0.0
	for i := range ws {
		maxGain = math.Max(maxGain, wos[i]-ws[i])
	}
	t.Logf("median with %.3f s, without %.3f s, gain %.3f s, max gain %.3f s",
		with.TTLB.Median(), without.TTLB.Median(), res.MedianGap("backtap", "circuitstart"), maxGain)
	within(t, "median TTLB with CircuitStart [s]", with.TTLB.Median(), 1.694, 0.03)
	within(t, "median TTLB without [s]", without.TTLB.Median(), 1.881, 0.03)
	within(t, "median gain [s]", res.MedianGap("backtap", "circuitstart"), 0.187, 0.02)
	within(t, "max gain at equal quantiles [s]", maxGain, 0.560, 0.06)
}

// γ ablation: the exit window grows with γ up to 8, γ = 4 is the Figure
// 1 distant-bottleneck run, γ ≤ 4 all converge onto the optimal, and
// γ = 16 exits last and stays high.
func TestFidelityGammaOrdering(t *testing.T) {
	rows, err := AblationGamma(42, nil)
	if err != nil {
		t.Fatal(err)
	}
	publishedExit := []float64{32, 32, 34.9, 64, 50} // γ = 1, 2, 4, 8, 16
	if len(rows) != len(publishedExit) {
		t.Fatalf("%d rows, want %d", len(rows), len(publishedExit))
	}
	for i, r := range rows {
		t.Logf("%s: exit %.2f at %v, final %.1f, settle %v", r.Label, r.ExitCwnd, r.ExitTime, r.FinalCells, r.SettleTime)
		within(t, r.Label+" exit cwnd [cells]", r.ExitCwnd, publishedExit[i], 1)
	}
	for i := 1; i <= 3; i++ {
		if rows[i].ExitCwnd < rows[i-1].ExitCwnd {
			t.Errorf("%s exits at %.1f cells, below %s at %.1f", rows[i].Label, rows[i].ExitCwnd, rows[i-1].Label, rows[i-1].ExitCwnd)
		}
	}
	last := rows[4]
	for _, r := range rows[:4] {
		if r.ExitTime >= last.ExitTime {
			t.Errorf("%s exits at %v, not before %s at %v", r.Label, r.ExitTime, last.Label, last.ExitTime)
		}
		within(t, r.Label+" final/optimal", r.FinalCells/r.OptimalCells, 1, 0.1)
	}
	for _, r := range rows[:3] {
		if r.SettleTime < 0 {
			t.Errorf("%s never settled", r.Label)
		}
	}
	within(t, last.Label+" final/optimal", last.FinalCells/last.OptimalCells, 1.54, 0.15)
}
