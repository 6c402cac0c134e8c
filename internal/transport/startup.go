package transport

import (
	"fmt"
	"math"
)

// Startup governs congestion-window evolution during a hop sender's
// start-up phase. Implementations receive hooks from the sender and
// manipulate it through Cwnd/setCwnd/exitStartup.
//
// Two orthogonal design choices distinguish the paper's algorithm from a
// traditional slow start, and the implementations below cover the full
// cross product so ablations can attribute the benefit:
//
//  1. Clocking: growth per reception ACK (traditional) vs. per round of
//     FEEDBACK messages (CircuitStart).
//  2. Exit adjustment: halving (traditional) vs. overshooting
//     compensation — cwnd := cells confirmed moving in the current
//     round so far (CircuitStart).
type Startup interface {
	// Name identifies the policy in traces and experiment output.
	Name() string
	// BurstMode reports whether the sender transmits in discrete
	// per-round trains during start-up (CircuitStart) instead of
	// continuously refilling the window.
	BurstMode() bool
	// OnAck runs after n new cells were cumulatively acknowledged
	// (received by the successor).
	OnAck(s *Sender, n int)
	// OnFeedback runs after new feedback arrived and round bookkeeping
	// (RTT samples, running diff) is up to date. Policies that exit
	// mid-round (overshoot detection "so far") do it here.
	OnFeedback(s *Sender)
	// OnRoundComplete runs when feedback covers the round boundary;
	// diff is the Vegas queue estimate of the completed round.
	OnRoundComplete(s *Sender, diff float64)
}

// defaultGamma is the paper's start-up exit threshold ("we define a
// threshold γ, currently set to 4").
const defaultGamma = 4.0

// Compensation selects how CircuitStart computes the post-overshoot
// window ("the cwnd is set to the amount of data acknowledged within the
// current round so far").
type Compensation int

// Compensation variants.
const (
	// CompMeasured opens a one-baseRtt measurement window when the
	// delay signal trips and exits with the feedback counted inside it.
	// This realizes the paper's packet-train analysis — "the length of
	// the packet train that could be forwarded by the successor without
	// additional delay is a good estimation for the optimal window" —
	// while being robust to bursty upstream forwarding: counting over a
	// full base RTT averages across bursts and idle gaps, yielding
	// rate × baseRtt, the minimal fully-utilizing window. Default.
	CompMeasured Compensation = iota
	// CompCounted applies the paper's sentence at face value: exit
	// immediately with the number of cells feedback-confirmed within
	// the current round at the moment the signal trips. It undershoots
	// badly when the signal trips early in a round (one feedback seen →
	// window collapses to the floor). Kept as an ablation
	// (see experiments.AblationCompensation).
	CompCounted
)

func (c Compensation) String() string {
	if c == CompCounted {
		return "counted"
	}
	return "measured"
}

// CircuitStart is the paper's start-up scheme: an initial window of two
// cells, doubled once per round upon feedback, with overshooting
// compensation on exit.
type CircuitStart struct {
	// Gamma is the Vegas-style exit threshold in cells.
	Gamma float64
	// Compensation selects the exit-window estimator.
	Compensation Compensation
}

// newCircuitStart returns the paper's policy with γ = defaultGamma and
// measured compensation.
func newCircuitStart() *CircuitStart { return &CircuitStart{Gamma: defaultGamma} }

// Name implements Startup.
func (p *CircuitStart) Name() string { return "circuitstart" }

// BurstMode implements Startup: discrete rounds produce the packet
// trains whose timing the algorithm analyses.
func (p *CircuitStart) BurstMode() bool { return true }

// OnAck implements Startup. Reception ACKs do not drive CircuitStart;
// the method exists because the interface requires it, and its empty
// body is what coverage reports as never run.
func (p *CircuitStart) OnAck(*Sender, int) {}

// exit applies the configured compensation when the delay signal trips.
func (p *CircuitStart) exit(s *Sender) {
	if p.Compensation == CompCounted {
		s.exitStartup(float64(s.roundFeedback()))
		return
	}
	s.beginExitMeasurement()
}

// OnFeedback implements Startup: if the queue estimate exceeds γ, begin
// the overshooting compensation — "the cwnd is set to the amount of
// data acknowledged within the current round so far".
func (p *CircuitStart) OnFeedback(s *Sender) {
	if s.vegasDiff() > p.Gamma {
		p.exit(s)
	}
}

// OnRoundComplete implements Startup: double the window and continue
// ramping (the γ check already ran per feedback batch). Two guards
// apply. While the exit measurement is open the window holds, so the
// count reflects the successor's drain rate at a stable offered load.
// And a round that was application-limited proved nothing about the
// network, so the window holds (RFC 2861-style validation) — this is
// what lets an upstream-throttled relay's window track its actual usage
// instead of doubling to the cap, preserving back-propagation.
func (p *CircuitStart) OnRoundComplete(s *Sender, diff float64) {
	if s.exitMeasuring {
		return
	}
	if diff > p.Gamma {
		p.exit(s)
		return
	}
	if !s.roundAppLimited() {
		s.setCwnd(s.Cwnd() * 2)
	}
}

// classicSlowStart is the baseline ("without CircuitStart"): continuous
// ACK-clocked exponential growth — cwnd grows by one cell per
// acknowledged cell — with the traditional halving when the delay signal
// says the ramp overshot.
type classicSlowStart struct {
	// Gamma is the Vegas-style exit threshold in cells.
	Gamma float64
}

// Name implements Startup.
func (p *classicSlowStart) Name() string { return "slowstart" }

// BurstMode implements Startup: traditional slow start is ACK-clocked
// and continuous.
func (p *classicSlowStart) BurstMode() bool { return false }

// OnAck implements Startup: one cell of growth per acknowledged cell —
// but only while the window is the binding constraint (the in-flight
// data before this acknowledgment filled the window). Growing while
// application-limited would inflate the window without probing anything.
func (p *classicSlowStart) OnAck(s *Sender, n int) {
	if s.inFlight()+n >= int(math.Floor(s.Cwnd())) {
		s.setCwnd(s.Cwnd() + float64(n))
	}
}

// OnFeedback implements Startup: the traditional scheme only evaluates
// the delay signal once per RTT. The interface requires the empty
// method, which coverage reports as never run.
func (p *classicSlowStart) OnFeedback(*Sender) {}

// OnRoundComplete implements Startup: exit by halving, as traditional
// start-up schemes do ("traditional start-up schemes would halve the
// cwnd before entering congestion avoidance").
func (p *classicSlowStart) OnRoundComplete(s *Sender, diff float64) {
	if diff > p.Gamma {
		s.exitStartup(s.Cwnd() / 2)
	}
}

// circuitStartHalve is an ablation: CircuitStart's feedback-clocked
// discrete rounds, but with the traditional halving instead of
// overshooting compensation. Comparing it against CircuitStart isolates
// the contribution of the compensation step.
type circuitStartHalve struct {
	Gamma float64
}

// Name implements Startup.
func (p *circuitStartHalve) Name() string { return "circuitstart-halve" }

// BurstMode implements Startup.
func (p *circuitStartHalve) BurstMode() bool { return true }

// OnAck implements Startup with the empty method the interface
// requires (coverage reports it as never run).
func (p *circuitStartHalve) OnAck(*Sender, int) {}

// OnFeedback implements Startup.
func (p *circuitStartHalve) OnFeedback(s *Sender) {
	if s.vegasDiff() > p.Gamma {
		s.exitStartup(s.Cwnd() / 2)
	}
}

// OnRoundComplete implements Startup.
func (p *circuitStartHalve) OnRoundComplete(s *Sender, diff float64) {
	if diff > p.Gamma {
		s.exitStartup(s.Cwnd() / 2)
		return
	}
	if !s.roundAppLimited() {
		s.setCwnd(s.Cwnd() * 2)
	}
}

// classicCompensated is an ablation: traditional ACK-clocked growth, but
// CircuitStart's overshooting compensation on exit. Comparing it against
// classicSlowStart isolates the contribution of feedback clocking.
type classicCompensated struct {
	Gamma float64
}

// Name implements Startup.
func (p *classicCompensated) Name() string { return "slowstart-compensated" }

// BurstMode implements Startup.
func (p *classicCompensated) BurstMode() bool { return false }

// OnAck implements Startup.
func (p *classicCompensated) OnAck(s *Sender, n int) {
	if s.inFlight()+n >= int(math.Floor(s.Cwnd())) {
		s.setCwnd(s.Cwnd() + float64(n))
	}
}

// OnFeedback implements Startup: begins the measured exit like
// CircuitStart.
func (p *classicCompensated) OnFeedback(s *Sender) {
	if s.vegasDiff() > p.Gamma {
		s.beginExitMeasurement()
	}
}

// OnRoundComplete implements Startup.
func (p *classicCompensated) OnRoundComplete(s *Sender, diff float64) {
	if !s.exitMeasuring && diff > p.Gamma {
		s.beginExitMeasurement()
	}
}

// vegasOnly is plain BackTap — the paper's "without CircuitStart"
// baseline: no dedicated start-up phase at all. The sender drops into
// delay-based congestion avoidance immediately, growing from the initial
// window by at most one cell per RTT. This is exactly the behaviour the
// paper motivates against: "Most tailored approaches, however, neglect
// the protocol dynamics, particularly the question of how to ramp-up the
// congestion window during the initial phase of a circuit."
type vegasOnly struct{}

// Name implements Startup.
func (vegasOnly) Name() string { return "backtap" }

// BurstMode implements Startup.
func (vegasOnly) BurstMode() bool { return false }

// OnAck implements Startup with the empty method the interface
// requires (coverage reports it as never run).
func (vegasOnly) OnAck(*Sender, int) {}

// OnFeedback implements Startup with the empty method the interface
// requires (coverage reports it as never run).
func (vegasOnly) OnFeedback(*Sender) {}

// OnRoundComplete implements Startup: hand over to congestion avoidance
// at the current window after the very first measurement round.
func (vegasOnly) OnRoundComplete(s *Sender, _ float64) {
	s.exitStartup(s.Cwnd())
}

// noStartup pins the window: no growth, no exit. Combined with
// Config.DisableAvoidance it yields a fixed-window sender (the
// Tor-SENDME-like static baseline).
type noStartup struct{}

// Name implements Startup.
func (noStartup) Name() string { return "fixed" }

// BurstMode implements Startup.
func (noStartup) BurstMode() bool { return false }

// OnAck implements Startup with the empty method the interface
// requires (coverage reports it as never run).
func (noStartup) OnAck(*Sender, int) {}

// OnFeedback implements Startup with the empty method the interface
// requires (coverage reports it as never run).
func (noStartup) OnFeedback(*Sender) {}

// OnRoundComplete implements Startup with the empty method the
// interface requires (coverage reports it as never run).
func (noStartup) OnRoundComplete(*Sender, float64) {}

// PolicyByName returns a startup policy from its Name string, with the
// given gamma (0 selects defaultGamma). It powers CLI flag parsing.
func PolicyByName(name string, gamma float64) (Startup, error) {
	if gamma == 0 {
		gamma = defaultGamma
	}
	switch name {
	case "circuitstart":
		return &CircuitStart{Gamma: gamma}, nil
	case "slowstart":
		return &classicSlowStart{Gamma: gamma}, nil
	case "circuitstart-halve":
		return &circuitStartHalve{Gamma: gamma}, nil
	case "slowstart-compensated":
		return &classicCompensated{Gamma: gamma}, nil
	case "backtap":
		return vegasOnly{}, nil
	case "fixed":
		return noStartup{}, nil
	default:
		return nil, fmt.Errorf("transport: unknown startup policy %q", name)
	}
}
