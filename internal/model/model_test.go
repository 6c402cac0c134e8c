package model

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"circuitstart/internal/transport"
	"circuitstart/internal/units"
)

func sym(rate units.DataRate, delay time.Duration) Node {
	return Node{UpRate: rate, DownRate: rate, Delay: delay}
}

// fourNode builds source → R1 → R2 → sink with a configurable slow link.
func fourNode(slow int, slowRate units.DataRate) Path {
	nodes := make([]Node, 4)
	for i := range nodes {
		nodes[i] = sym(units.Mbps(100), 5*time.Millisecond)
	}
	nodes[slow].UpRate = slowRate
	nodes[slow].DownRate = slowRate
	return NewPath(nodes)
}

func TestNewPathValidation(t *testing.T) {
	cases := []struct {
		name  string
		nodes []Node
	}{
		{"too short", []Node{sym(units.Mbps(1), 0)}},
		{"zero rate", []Node{sym(0, 0), sym(units.Mbps(1), 0)}},
		{"negative delay", []Node{sym(units.Mbps(1), -time.Millisecond), sym(units.Mbps(1), 0)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			NewPath(c.nodes)
		})
	}
}

func TestBottleneckIdentification(t *testing.T) {
	for slot := 1; slot <= 2; slot++ {
		p := fourNode(slot, units.Mbps(8))
		if got := p.BottleneckRate(); got != units.Mbps(8) {
			t.Errorf("slot %d: BottleneckRate = %v", slot, got)
		}
	}
	// Slow node 1 bottlenecks hop 0 (its downlink) — ties resolve to the
	// hop closest to the source.
	if got := fourNode(1, units.Mbps(8)).BottleneckHop(); got != 0 {
		t.Errorf("BottleneckHop(node1 slow) = %d, want 0", got)
	}
	// Slow node 2: its downlink is on hop 1.
	if got := fourNode(2, units.Mbps(8)).BottleneckHop(); got != 1 {
		t.Errorf("BottleneckHop(node2 slow) = %d, want 1", got)
	}
	// Homogeneous path: hop 0 wins ties.
	if got := fourNode(1, units.Mbps(100)).BottleneckHop(); got != 0 {
		t.Errorf("BottleneckHop(homogeneous) = %d, want 0", got)
	}
}

func TestFeedbackRTTAgainstHandComputation(t *testing.T) {
	// 10 Mbit/s everywhere, 5 ms delays. One-way DATA = tx_up + 5ms +
	// tx_down + 5ms; control the same with the smaller size.
	rate := units.Mbps(10)
	p := NewPath([]Node{sym(rate, 5*time.Millisecond), sym(rate, 5*time.Millisecond)})
	txData := rate.TransmissionTime(transport.DataWireSize)
	txCtrl := rate.TransmissionTime(transport.CtrlWireSize)
	want := (txData + 10*time.Millisecond + txData) + (txCtrl + 10*time.Millisecond + txCtrl)
	if got := p.feedbackRTT(0); got != want {
		t.Fatalf("FeedbackRTT = %v, want %v", got, want)
	}
}

func TestOptimalWindowScalesWithBottleneck(t *testing.T) {
	slowPath := fourNode(2, units.Mbps(4))
	fastPath := fourNode(2, units.Mbps(8))
	ws, wf := slowPath.OptimalSourceWindowCells(), fastPath.OptimalSourceWindowCells()
	if ws <= 0 || wf <= 0 {
		t.Fatalf("non-positive windows %v, %v", ws, wf)
	}
	// Doubling the bottleneck roughly doubles the optimal window (the
	// feedback RTT shifts slightly with serialization time, so allow 15%).
	ratio := wf / ws
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("window ratio = %v, want ≈ 2", ratio)
	}
}

func TestOptimalWindowIndependentOfBottleneckPosition(t *testing.T) {
	// The paper's headline claim needs the target itself to be nearly
	// position-independent for a symmetric path: same bottleneck rate at
	// different hops gives nearly the same source window (feedback RTT of
	// hop 0 changes only via serialization differences).
	near := fourNode(1, units.Mbps(8)).OptimalSourceWindowCells()
	far := fourNode(3, units.Mbps(8)).OptimalSourceWindowCells()
	if math.Abs(near-far)/near > 0.25 {
		t.Fatalf("optimal window varies too much with position: near=%v far=%v", near, far)
	}
}

func TestLowerBoundTTLB(t *testing.T) {
	p := fourNode(2, units.Mbps(8))
	one := p.LowerBoundTTLB(1)
	var firstCell time.Duration
	for i := 0; i < p.hops(); i++ {
		firstCell += p.oneWay(i, i+1, transport.DataWireSize)
	}
	if one != firstCell {
		t.Fatalf("LowerBoundTTLB(1) = %v, want %v", one, firstCell)
	}
	hundred := p.LowerBoundTTLB(100)
	if hundred <= one {
		t.Fatal("more cells should take longer")
	}
	// 99 additional cells at the bottleneck.
	drain := time.Duration(99 * float64(transport.DataWireSize.Bits()) / float64(units.Mbps(8)) * float64(time.Second))
	if diff := hundred - one - drain; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("drain time off by %v", diff)
	}
}

func TestLowerBoundTTLBPanicsOnZeroCells(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	fourNode(1, units.Mbps(8)).LowerBoundTTLB(0)
}

func TestHopIndexValidation(t *testing.T) {
	p := fourNode(1, units.Mbps(8))
	for _, i := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FeedbackRTT(%d) did not panic", i)
				}
			}()
			p.feedbackRTT(i)
		}()
	}
}

// Property: the optimal window at the source never exceeds the window
// computed for an otherwise-identical path whose bottleneck is faster,
// and downstream rates are monotone along the path.
func TestOptimalWindowMonotoneProperty(t *testing.T) {
	f := func(rawRates [4]uint8, delayMS uint8) bool {
		nodes := make([]Node, 4)
		for i, r := range rawRates {
			mbps := 1 + float64(r%100)
			nodes[i] = sym(units.Mbps(mbps), time.Duration(delayMS%20)*time.Millisecond)
		}
		p := NewPath(nodes)
		// Downstream bottleneck rate is non-decreasing as we move toward
		// the sink (the min is over a shrinking suffix).
		for i := 0; i+1 < p.hops(); i++ {
			if p.downstreamRate(i) > p.downstreamRate(i+1) {
				return false
			}
		}
		// Speeding every node up never shrinks the optimal window.
		faster := make([]Node, 4)
		for i := range nodes {
			faster[i] = nodes[i]
			faster[i].UpRate *= 2
			faster[i].DownRate *= 2
		}
		return NewPath(faster).OptimalSourceWindowCells() >= p.OptimalSourceWindowCells()*0.99
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTransitsBottleneckAndRTT(t *testing.T) {
	// Four fast nodes; hop 1 (R1 → R2) crosses a slow 8 Mbit/s trunk
	// with 10 ms delay. The trunk must become the model's bottleneck
	// and stretch exactly hop 1's RTT.
	nodes := make([]Node, 4)
	for i := range nodes {
		nodes[i] = sym(units.Mbps(100), 5*time.Millisecond)
	}
	trunk := Transit{Rate: units.Mbps(8), Delay: 10 * time.Millisecond}
	p := NewPathWithTransits(nodes, [][]Transit{nil, {trunk}, nil}, nil)
	flat := NewPath(nodes)

	if got := p.BottleneckRate(); got != units.Mbps(8) {
		t.Errorf("BottleneckRate = %v, want the 8 Mbit/s trunk", got)
	}
	if got := p.BottleneckHop(); got != 1 {
		t.Errorf("BottleneckHop = %d, want 1", got)
	}
	// Hop 1's feedback RTT gains the trunk's serialization + delay in
	// both directions; hop 0's is untouched.
	wantExtra := trunk.Rate.TransmissionTime(transport.DataWireSize) +
		trunk.Rate.TransmissionTime(transport.CtrlWireSize) + 2*trunk.Delay
	if got := p.feedbackRTT(1) - flat.feedbackRTT(1); got != wantExtra {
		t.Errorf("hop 1 RTT extra = %v, want %v", got, wantExtra)
	}
	if p.feedbackRTT(0) != flat.feedbackRTT(0) {
		t.Error("hop 0 RTT changed by a hop-1 transit")
	}
	// The optimal source window is trunk-limited, far below the
	// star-only model's answer.
	if p.OptimalSourceWindowCells() >= flat.OptimalSourceWindowCells() {
		t.Errorf("transit model %v ≥ star model %v",
			p.OptimalSourceWindowCells(), flat.OptimalSourceWindowCells())
	}
	if lb := p.LowerBoundTTLB(100); lb <= flat.LowerBoundTTLB(100) {
		t.Error("LowerBoundTTLB ignores transits")
	}
}

func TestTransitsValidation(t *testing.T) {
	nodes := []Node{sym(units.Mbps(10), 0), sym(units.Mbps(10), 0)}
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("transit count mismatch", func() {
		NewPathWithTransits(nodes, [][]Transit{nil, nil}, nil)
	})
	expectPanic("zero transit rate", func() {
		NewPathWithTransits(nodes, [][]Transit{{{Rate: 0}}}, nil)
	})
	expectPanic("negative transit delay", func() {
		NewPathWithTransits(nodes, nil, [][]Transit{{{Rate: 1, Delay: -time.Second}}})
	})
}

func TestDirectionalTransits(t *testing.T) {
	// The forward leg crosses a slow trunk, the reverse leg a fast one
	// (equal-cost routes over different physical trunks). The data
	// path is limited by the forward trunk; the feedback RTT must
	// serialize the control segment at the reverse trunk's rate.
	nodes := []Node{sym(units.Mbps(100), time.Millisecond), sym(units.Mbps(100), time.Millisecond)}
	slow := Transit{Rate: units.Mbps(8), Delay: 2 * time.Millisecond}
	fast := Transit{Rate: units.Mbps(80), Delay: 2 * time.Millisecond}
	p := NewPathWithTransits(nodes, [][]Transit{{slow}}, [][]Transit{{fast}})

	if got := p.BottleneckRate(); got != units.Mbps(8) {
		t.Errorf("BottleneckRate = %v, want the forward trunk's 8 Mbit/s", got)
	}
	mirror := NewPathWithTransits(nodes, [][]Transit{{slow}}, nil)
	wantLess := mirror.feedbackRTT(0) -
		slow.Rate.TransmissionTime(transport.CtrlWireSize) +
		fast.Rate.TransmissionTime(transport.CtrlWireSize)
	if got := p.feedbackRTT(0); got != wantLess {
		t.Errorf("FeedbackRTT = %v, want %v (control leg at the reverse trunk's rate)", got, wantLess)
	}
}
