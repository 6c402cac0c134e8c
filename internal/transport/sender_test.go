package transport

import (
	"math"
	"testing"
	"time"

	"circuitstart/internal/cell"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

func TestReliableInOrderTransfer(t *testing.T) {
	h := newHopHarness(t, harnessConfig{})
	h.sendCells(100)
	h.run(10 * time.Second)
	h.assertDeliveredInOrder(100)
	if !h.sender.Idle() {
		t.Errorf("sender not idle: queue=%d unacked=%d inflight=%d",
			h.sender.QueueLen(), h.sender.Unacked(), h.sender.InFlight())
	}
	st := h.sender.Stats()
	if st.Transmitted != 100 || st.Retransmitted != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Acked != 100 || st.Feedback != 100 {
		t.Errorf("acked=%d feedback=%d, want 100/100", st.Acked, st.Feedback)
	}
}

func TestCircuitStartDoublesPerRound(t *testing.T) {
	var cwnds []float64
	h := newHopHarness(t, harnessConfig{senderCfg: Config{
		Startup: NewCircuitStart(),
		OnCwnd: func(c float64, p Phase) {
			if p == PhaseStartup {
				cwnds = append(cwnds, c)
			}
		},
	}})
	// Unconstrained successor: the ramp should double cleanly.
	h.sendCells(300)
	h.run(2 * time.Second)
	h.assertDeliveredInOrder(300)
	// Trace starts at 2 and doubles while startup lasts: 2,4,8,...
	if len(cwnds) < 4 {
		t.Fatalf("cwnd trace too short: %v", cwnds)
	}
	if cwnds[0] != 2 {
		t.Errorf("initial cwnd = %v, want 2 (the paper's initial window)", cwnds[0])
	}
	for i := 1; i < len(cwnds); i++ {
		if cwnds[i] != cwnds[i-1]*2 {
			t.Errorf("cwnd step %d: %v -> %v, want doubling; full trace %v",
				i, cwnds[i-1], cwnds[i], cwnds)
			break
		}
	}
}

func TestCircuitStartExitsWithCompensationAtBottleneck(t *testing.T) {
	// Successor forwards at 4 Mbit/s while the path runs at 16 Mbit/s:
	// feedback RTTs inflate during trains and CircuitStart must exit
	// with the compensated window instead of ramping forever.
	h := newHopHarness(t, harnessConfig{
		fwdRate: units.Mbps(4),
	})
	h.sendCells(800)
	h.run(20 * time.Second)
	h.assertDeliveredInOrder(800)

	st := h.sender.Stats()
	if st.StartupExits != 1 {
		t.Fatalf("StartupExits = %d, want 1", st.StartupExits)
	}
	if h.sender.Phase() != PhaseAvoidance {
		t.Errorf("phase = %v, want avoidance", h.sender.Phase())
	}
	// The optimal window is bottleneck rate × base feedback RTT.
	base := h.sender.BaseRTT()
	optimal := float64(units.BDP(units.Mbps(4), base)) / float64(DataWireSize)
	if st.ExitCwnd <= 2 {
		t.Errorf("ExitCwnd = %v: compensation collapsed to the floor", st.ExitCwnd)
	}
	if st.ExitCwnd > 2*optimal {
		t.Errorf("ExitCwnd = %v overshoots the optimal %v by more than 2x",
			st.ExitCwnd, optimal)
	}
	// Safety goal: compensation must not leave a massively inflated
	// window (the paper: halving "can still massively overshoot").
	t.Logf("exit cwnd %.1f cells, analytic optimal %.1f cells, baseRTT %v",
		st.ExitCwnd, optimal, base)
}

func TestClassicSlowStartHalvesOnExit(t *testing.T) {
	var preExit float64
	h := newHopHarness(t, harnessConfig{
		fwdRate: units.Mbps(4),
		senderCfg: Config{
			Startup: NewClassicSlowStart(),
			OnCwnd: func(c float64, p Phase) {
				if p == PhaseStartup {
					preExit = c
				}
			},
		},
	})
	h.sendCells(800)
	h.run(20 * time.Second)
	h.assertDeliveredInOrder(800)
	st := h.sender.Stats()
	if st.StartupExits != 1 {
		t.Fatalf("StartupExits = %d, want 1", st.StartupExits)
	}
	if got := st.ExitCwnd; got != preExit/2 && got != h.sender.cfg.MinCwnd {
		t.Errorf("ExitCwnd = %v, want half of pre-exit %v", got, preExit)
	}
}

func TestClassicOvershootsMoreThanCircuitStart(t *testing.T) {
	// The paper's core claim: the feedback-clocked rounds with
	// compensation leave startup with a window close to optimal, while
	// the ACK-clocked ramp exits much higher (it keeps growing while
	// the bottleneck signal is still in flight).
	run := func(policy Startup) (exitCwnd, maxCwnd, optimal float64) {
		var peak float64
		h := newHopHarness(t, harnessConfig{
			fwdRate: units.Mbps(4),
			senderCfg: Config{
				Startup: policy,
				OnCwnd: func(c float64, p Phase) {
					if c > peak {
						peak = c
					}
				},
			},
		})
		h.sendCells(800)
		h.run(20 * time.Second)
		opt := float64(units.BDP(units.Mbps(4), h.sender.BaseRTT())) / float64(DataWireSize)
		return h.sender.Stats().ExitCwnd, peak, opt
	}
	csExit, csPeak, opt := run(NewCircuitStart())
	ssExit, ssPeak, _ := run(NewClassicSlowStart())
	t.Logf("optimal=%.1f; circuitstart: exit=%.1f peak=%.1f; slowstart: exit=%.1f peak=%.1f",
		opt, csExit, csPeak, ssExit, ssPeak)
	if ssPeak <= csPeak {
		t.Errorf("classic peak %v should exceed circuitstart peak %v", ssPeak, csPeak)
	}
	csErr := math.Abs(csExit - opt)
	ssErr := math.Abs(ssExit - opt)
	if csErr >= ssErr {
		t.Errorf("circuitstart exit error %.1f should beat classic %.1f (exit %v vs %v, optimal %v)",
			csErr, ssErr, csExit, ssExit, opt)
	}
}

func TestBurstModeRespectsRoundBudget(t *testing.T) {
	// In burst mode, in-flight data never exceeds the round's window —
	// except during the exit measurement, which saturates the successor
	// with up to double the tripped window (see BeginExitMeasurement).
	h := newHopHarness(t, harnessConfig{fwdRate: units.Mbps(2)})
	maxInflight := 0
	maxAllowed := 0.0
	h.sendCells(400)
	for h.clock.Pending() > 0 {
		if !h.clock.Step() {
			break
		}
		if h.sender.Phase() == PhaseStartup {
			if f := h.sender.InFlight(); f > maxInflight {
				maxInflight = f
			}
			allowed := h.sender.Cwnd()
			if h.sender.ExitMeasuring() {
				allowed *= 2
			}
			if allowed > maxAllowed {
				maxAllowed = allowed
			}
		}
		if h.clock.Now() > simSecond {
			break
		}
	}
	if maxInflight > int(maxAllowed) {
		t.Errorf("in-flight %d exceeded the startup window %v", maxInflight, maxAllowed)
	}
}

func TestContinuousModeRespectsWindow(t *testing.T) {
	// The window invariant holds at transmission time: a new cell may
	// only leave while occupancy is within the window. (Occupancy can
	// exceed a freshly *reduced* window until feedback drains — that is
	// correct and not a violation.)
	var h *hopHarness
	violations := 0
	h = newHopHarness(t, harnessConfig{
		fwdRate: units.Mbps(2),
		senderCfg: Config{
			Startup: NewClassicSlowStart(),
			OnFirstTransmit: func(count uint64) {
				// The cell just sent is included in InFlight, so the
				// pre-send occupancy was InFlight()-1.
				if float64(h.sender.InFlight()-1) >= h.sender.Cwnd() {
					violations++
				}
			},
		},
	})
	h.sendCells(400)
	h.run(60 * time.Second)
	h.assertDeliveredInOrder(400)
	if violations > 0 {
		t.Errorf("%d transmissions happened with a full window", violations)
	}
}

func TestFixedWindowNeverAdapts(t *testing.T) {
	changes := 0
	h := newHopHarness(t, harnessConfig{
		fwdRate: units.Mbps(2),
		senderCfg: Config{
			Startup:          NoStartup{},
			InitialCwnd:      10,
			DisableAvoidance: true,
			OnCwnd:           func(c float64, p Phase) { changes++ },
		},
	})
	h.sendCells(200)
	h.run(30 * time.Second)
	h.assertDeliveredInOrder(200)
	if h.sender.Cwnd() != 10 {
		t.Errorf("cwnd = %v, want fixed 10", h.sender.Cwnd())
	}
	if changes != 1 { // only the initial notification
		t.Errorf("cwnd changed %d times, want 1 (initial)", changes)
	}
}

func TestVegasAvoidanceConvergesNearOptimal(t *testing.T) {
	// Long transfer: after startup, Vegas should hold the window in a
	// band around the bandwidth-delay product of the bottleneck.
	h := newHopHarness(t, harnessConfig{fwdRate: units.Mbps(4)})
	h.sendCells(3000)
	h.run(60 * time.Second)
	h.assertDeliveredInOrder(3000)
	base := h.sender.BaseRTT()
	optimal := float64(units.BDP(units.Mbps(4), base)) / float64(DataWireSize)
	got := h.sender.Cwnd()
	// The Vegas band keeps a few extra cells queued (α..β); accept a
	// generous band around the analytic optimum.
	if got < optimal*0.5 || got > optimal*1.8 {
		t.Errorf("steady-state cwnd %.1f outside [%.1f, %.1f] (optimal %.1f)",
			got, optimal*0.5, optimal*1.8, optimal)
	}
}

func TestWindowClockAckAblation(t *testing.T) {
	// With ACK-based window accounting the sender can stuff far more
	// into the successor's queue: occupancy is bounded by reception,
	// not forwarding.
	run := func(clock WindowClock) int {
		h := newHopHarness(t, harnessConfig{
			fwdRate:   units.Mbps(2),
			senderCfg: Config{WindowClock: clock, Startup: NewClassicSlowStart()},
		})
		h.sendCells(600)
		maxQueued := 0
		for h.clock.Pending() > 0 {
			if !h.clock.Step() {
				break
			}
			if q := h.fwdQueue; q > maxQueued {
				maxQueued = q
			}
		}
		return maxQueued
	}
	fbQueue := run(ClockFeedback)
	ackQueue := run(ClockAck)
	t.Logf("max successor queue: feedback-clocked=%d, ack-clocked=%d", fbQueue, ackQueue)
	if ackQueue <= fbQueue {
		t.Errorf("ack-clocked window should queue more at the successor (%d <= %d)",
			ackQueue, fbQueue)
	}
}

func TestSenderValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	clock := newClockForTest()
	mustPanic("nil clock", func() { NewSender(Config{Send: func(Segment) bool { return true }}) })
	mustPanic("nil send", func() { NewSender(Config{Clock: clock}) })
	mustPanic("alpha>beta", func() {
		NewSender(Config{Clock: clock, Send: func(Segment) bool { return true }, Alpha: 5, Beta: 1})
	})
	s := NewSender(Config{Clock: clock, Send: func(Segment) bool { return true }})
	mustPanic("nil cell", func() { s.Enqueue(nil) })
	mustPanic("ack beyond sent", func() { s.HandleAck(99) })
	mustPanic("feedback beyond sent", func() { s.HandleFeedback(99) })
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{
		"circuitstart", "slowstart", "circuitstart-halve", "slowstart-compensated", "fixed",
	} {
		p, err := PolicyByName(name, 0)
		if err != nil {
			t.Errorf("PolicyByName(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := PolicyByName("bogus", 0); err == nil {
		t.Error("unknown policy accepted")
	}
	p, err := PolicyByName("circuitstart", 8)
	if err != nil {
		t.Fatal(err)
	}
	if cs := p.(*CircuitStart); cs.Gamma != 8 {
		t.Errorf("gamma = %v, want 8", cs.Gamma)
	}
	p, _ = PolicyByName("circuitstart", 0)
	if cs := p.(*CircuitStart); cs.Gamma != DefaultGamma {
		t.Errorf("default gamma = %v, want %v", cs.Gamma, DefaultGamma)
	}
}

func TestPhaseAndClockStrings(t *testing.T) {
	if PhaseStartup.String() != "startup" || PhaseAvoidance.String() != "avoidance" {
		t.Error("phase strings wrong")
	}
	if Phase(9).String() != "Phase(9)" {
		t.Error("unknown phase string wrong")
	}
	if ClockFeedback.String() != "feedback" || ClockAck.String() != "ack" {
		t.Error("window clock strings wrong")
	}
	if KindData.String() != "DATA" || KindAck.String() != "ACK" || KindFeedback.String() != "FEEDBACK" {
		t.Error("kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind string wrong")
	}
}

func TestSegmentWireSizes(t *testing.T) {
	d := Segment{Kind: KindData}
	if d.WireSize() != DataWireSize || DataWireSize != 528 {
		t.Errorf("data wire size = %v", d.WireSize())
	}
	a := Segment{Kind: KindAck}
	if a.WireSize() != CtrlWireSize {
		t.Errorf("ack wire size = %v", a.WireSize())
	}
	if got := (Segment{Kind: KindData, Circ: 1, Seq: 2}).String(); got != "DATA{fwd circ=1 seq=2}" {
		t.Errorf("String = %q", got)
	}
	if got := (Segment{Kind: KindAck, Circ: 1, Count: 3}).String(); got != "ACK{fwd circ=1 count=3}" {
		t.Errorf("String = %q", got)
	}
}

// TestSentRingKeepsCellsAcrossGrowthAndWrap drives the sender's
// sent-cell ring through several doublings while the live range starts
// mid-ring (feedback lags far behind the ACKs, so acknowledged sequences
// stay in range), then checks the three things the ring must remember:
// which cell to retransmit, when a sequence was first sent, and whether
// Karn's rule still applies to it.
func TestSentRingKeepsCellsAcrossGrowthAndWrap(t *testing.T) {
	clock := sim.NewClock()
	var wire []Segment
	held := 0
	s := NewSender(Config{
		Clock: clock, Startup: NoStartup{}, DisableAvoidance: true,
		WindowClock: ClockAck, InitialCwnd: 24, MinCwnd: 24,
		Send:   func(seg Segment) bool { wire = append(wire, seg); return true },
		OnHeld: func(delta int) { held += delta },
	})
	cells := make([]*cell.Cell, 150)
	for i := range cells {
		cells[i] = &cell.Cell{}
		s.Enqueue(cells[i])
	}
	// ACK in steps of ten, a millisecond apart, with no FEEDBACK at all:
	// the range [feedback, nextSeq) = [0, nextSeq) outgrows 16, 32 and 64
	// slots while new sequences keep landing on wrapped indices.
	for acked := uint64(10); acked <= 100; acked += 10 {
		clock.RunUntil(clock.Now() + sim.Millisecond)
		s.HandleAck(acked)
	}
	if got := s.Unacked(); got != 24 {
		t.Fatalf("Unacked = %d, want the full window of 24", got)
	}
	for i, seg := range wire {
		if seg.Seq != uint64(i) || seg.Cell != cells[i] {
			t.Fatalf("transmission %d carried seq %d, cell %p; want seq %d, cell %p", i, seg.Seq, seg.Cell, i, cells[i])
		}
	}

	// The RTO retransmits the oldest unacked sequence from the ring.
	wire = wire[:0]
	clock.RunUntil(clock.Now() + 10*sim.Second)
	if len(wire) == 0 || wire[0].Seq != 100 || wire[0].Cell != cells[100] {
		t.Fatalf("RTO retransmitted %+v, want seq 100 carrying cell %p", wire, cells[100])
	}
	// Karn: the ACK covering only the retransmitted sequence takes no RTT
	// sample...
	srtt := s.SRTT()
	s.HandleAck(101)
	if s.SRTT() != srtt {
		t.Errorf("SRTT moved %v -> %v on the ACK of a retransmitted sequence", srtt, s.SRTT())
	}
	// ...but once acked the sequence is no longer marked, so FEEDBACK for
	// it measures against its first transmission, back in the ring's
	// first lap.
	if s.BaseRTT() != 0 {
		t.Fatalf("BaseRTT = %v before any feedback", s.BaseRTT())
	}
	s.HandleFeedback(101)
	if got := s.BaseRTT(); got < 10*time.Second {
		t.Errorf("BaseRTT = %v after feedback for seq 100, want now minus its first transmission (> 10s)", got)
	}

	// Close releases everything still held: queued plus unacked.
	if want := s.QueueLen() + s.Unacked(); held != want || want == 0 {
		t.Fatalf("held = %d before Close, want QueueLen+Unacked = %d (non-zero)", held, want)
	}
	s.Close()
	if held != 0 {
		t.Errorf("held = %d after Close, want 0", held)
	}
}
