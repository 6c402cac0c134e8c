package transport

import (
	"fmt"
	"math"
	"slices"
	"time"

	"circuitstart/internal/cell"
	"circuitstart/internal/sim"
)

// Phase is the sender's congestion-control phase.
type Phase int

// Phases.
const (
	// PhaseStartup is the ramp-up phase governed by the Startup policy.
	PhaseStartup Phase = iota
	// PhaseAvoidance is delay-based congestion avoidance (TCP-Vegas
	// style, as in BackTap).
	PhaseAvoidance
)

func (p Phase) String() string {
	switch p {
	case PhaseStartup:
		return "startup"
	case PhaseAvoidance:
		return "avoidance"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// WindowClock selects which signal bounds the in-flight window.
type WindowClock int

// Window clock options.
const (
	// ClockFeedback bounds in-flight data by cells not yet confirmed
	// *forwarded* — BackTap's backpressure semantics, and the default.
	ClockFeedback WindowClock = iota
	// ClockAck bounds in-flight data by cells not yet *received* — the
	// semantics of a chained ("split TCP"-like) per-hop protocol. Used
	// by the feedback-clocking ablation.
	ClockAck
)

func (w WindowClock) String() string {
	if w == ClockAck {
		return "ack"
	}
	return "feedback"
}

// Vegas congestion-avoidance defaults (cells of queue estimate), as in
// TCP Vegas / BackTap.
const (
	DefaultAlpha = 2.0
	DefaultBeta  = 4.0
)

// DefaultInitialCwnd is the paper's initial window: "Each relay starts
// with an initial congestion window (cwnd) of two cells."
const DefaultInitialCwnd = 2.0

// DefaultMaxCwnd caps runaway windows (cells).
const DefaultMaxCwnd = 4096.0

// Config parameterizes a hop sender.
type Config struct {
	// Clock is the simulation clock. Required.
	Clock *sim.Clock
	// Circ is the circuit ID stamped on segments.
	Circ cell.CircID
	// Send transmits a segment toward the successor. Required. The
	// return value reports whether the network accepted the segment
	// (false = tail drop at the local queue).
	Send func(Segment) bool
	// Startup is the ramp-up policy. Defaults to NewCircuitStart().
	Startup Startup
	// Alpha, Beta are the Vegas congestion-avoidance thresholds.
	// Zero selects the defaults.
	Alpha, Beta float64
	// InitialCwnd is the starting window in cells (default 2).
	InitialCwnd float64
	// MinCwnd floors the window (default 2).
	MinCwnd float64
	// MaxCwnd caps the window (default DefaultMaxCwnd).
	MaxCwnd float64
	// WindowClock selects backpressure (feedback) or reception (ack)
	// window accounting.
	WindowClock WindowClock
	// DisableAvoidance freezes the window after startup exit (used with
	// NoStartup for fixed-window baselines).
	DisableAvoidance bool
	// RestartRounds, when positive, enables the paper's future-work
	// extension: after this many consecutive underutilized avoidance
	// rounds while data is waiting, the sender re-enters startup to
	// re-probe quickly for newly available capacity.
	RestartRounds int
	// SevereRemeasure is the downward counterpart of RestartRounds:
	// when an avoidance round's queue estimate exceeds Beta by this
	// factor (severe overshoot — e.g. the window was set from a
	// transient, or the bottleneck moved), the sender re-runs the
	// one-baseRtt drain measurement and shrinks straight to the result
	// instead of crawling down one cell per RTT. Zero disables it.
	SevereRemeasure float64
	// RTOMin, RTOMax bound the retransmission timeout (zero = default).
	RTOMin, RTOMax time.Duration
	// OnCwnd, if set, observes every window change.
	OnCwnd func(cwnd float64, phase Phase)
	// OnFirstTransmit, if set, observes the cumulative count of cells
	// transmitted for the first time. Relays wire this to the upstream
	// receiver's feedback ("this cell is moving").
	OnFirstTransmit func(count uint64)
	// OnHeld, if set, observes changes to the number of cells this
	// sender holds — queued awaiting first transmission plus retained
	// for retransmission. Relays wire it to the resource manager's
	// per-circuit memory accounting; Close reports the final release.
	OnHeld func(delta int)
	// Produce, if set, builds the next cell of the backlog announced with
	// Offer. The sender calls it at the instant it transmits the cell, so
	// an origin pays for a cell (pool Get, fill, onion wrap) only when the
	// window lets it leave. Required by Offer; relays leave it nil and
	// push with Enqueue.
	Produce func() *cell.Cell
	// BatchSignals defers OnFirstTransmit to pump-drain boundaries: one
	// call with the final cumulative count per burst instead of one per
	// cell. On a train-running network this collapses a burst's worth
	// of per-cell FEEDBACK segments into one (the count is cumulative,
	// so nothing is lost). Off by default — per-cell signalling is the
	// byte-identical baseline behavior.
	BatchSignals bool
}

// SenderStats counts sender activity.
type SenderStats struct {
	Transmitted   uint64 // first transmissions
	Retransmitted uint64
	WireRejected  uint64 // segments the local queue refused
	Acked         uint64 // cumulative cells acked
	Feedback      uint64 // cumulative cells feedback-confirmed
	Rounds        uint64 // completed measurement rounds
	RTOs          uint64
	Probes        uint64 // feedback window probes sent
	StartupExits  uint64
	Restarts      uint64   // dynamic re-probes (extension)
	ExitCwnd      float64  // cwnd chosen at the most recent startup exit
	ExitTime      sim.Time // when startup was most recently exited
}

// sentCell is what the sender keeps per transmitted sequence.
type sentCell struct {
	cell *cell.Cell // retained for retransmission; nil once acked
	at   sim.Time   // first-transmission time
	rtx  bool       // retransmitted and not yet acked (Karn)
}

// Sender is the per-hop window-based transmitter. It owns the congestion
// window, reliability (cumulative ACK + RTO), the round structure, and
// the Vegas queue estimator over DATA→FEEDBACK RTTs.
type Sender struct {
	cfg   Config
	clock *sim.Clock
	// pool stores the buffers below as they grow (see UseSegmentPool);
	// nil allocates them plainly.
	pool *SegmentPool

	// queue holds cells awaiting first transmission; qhead indexes the
	// next cell to leave. Dequeue advances the cursor instead of
	// shifting the slice (a large transfer front-loads thousands of
	// cells, and an O(n) shift per transmission made dequeue quadratic);
	// Enqueue rewinds the cursor whenever the queue drains.
	queue []*cell.Cell
	qhead int

	// backlog counts cells announced with Offer that cfg.Produce has not
	// built yet. They wait behind the local queue and count as queued
	// everywhere the sender asks how much data is waiting.
	backlog int

	// sent remembers every transmitted sequence the peer may still
	// report on: a power-of-two ring indexed by seq & (len-1) over the
	// contiguous range [min(acked, feedback), nextSeq), doubling when the
	// range outgrows it.
	sent []sentCell

	nextSeq  uint64 // next fresh sequence number
	acked    uint64 // cumulative count received by peer
	feedback uint64 // cumulative count forwarded by peer

	cwnd  float64
	phase Phase

	rtt     *RTTEstimator // over DATA→ACK, drives the RTO
	baseRtt time.Duration // minimum DATA→FEEDBACK sample ("baseRtt")

	// Round state. A round is delimited in sequence space: it completes
	// when feedback covers roundBoundary.
	roundActive   bool
	roundBoundary uint64        // one past the last sequence of the round
	roundStartFb  uint64        // feedback count when the round began
	roundBudget   int           // burst mode: cells still allowed this round
	roundRttSum   time.Duration // feedback RTT samples this round
	roundRttCnt   int
	roundFirstFb  sim.Time // arrival of the round's first feedback
	roundHasFb    bool
	// roundStartCwnd and roundMaxInFlight implement RFC 2861-style
	// "congestion window validation": a round only proves something
	// about the network if the in-flight data actually reached the
	// window at some point during it. Policies consult the verdict via
	// RoundAppLimited during OnRoundComplete: growing the window in an
	// application-limited round would let idle hops (e.g. a relay
	// throttled by its upstream) double forever without ever probing the
	// network, destroying the back-propagation property.
	roundStartCwnd      float64
	roundMaxInFlight    int
	lastRoundAppLimited bool

	// Accelerated re-probe state (the paper's future-work extension).
	// underuseRounds counts consecutive window-limited avoidance rounds
	// with diff < α; once it reaches restartThreshold the window grows
	// multiplicatively (×1.5 per round) instead of +1, so a capacity
	// jump is found in a handful of RTTs — and because each hop runs
	// the same law, the opening cascades along the circuit. A probe
	// phase that ends without having found meaningful capacity doubles
	// restartThreshold (bounded), so steady-state throughput is not
	// eaten by periodic futile probes; a successful one resets it.
	underuseRounds   int
	restartThreshold int
	accelPhase       bool
	accelStartCwnd   float64

	// Exit measurement: after the ramp's delay signal trips, the sender
	// counts feedback for exactly one baseRtt and exits with that count
	// as the window — the paper's packet-train analysis ("the length of
	// the packet train that could be forwarded by the successor without
	// additional delay is a good estimation for the optimal window").
	// The counting window opens only once feedback for a *post-trip*
	// cell arrives (exitAligned): counting from the trip instant would
	// span the dead time while the measurement train is still in flight
	// and grossly undercount the drain rate.
	exitMeasuring bool
	exitAligned   bool
	exitStarved   bool // sender went idle during the window: measurement void
	exitMarkSeq   uint64
	exitFbStart   uint64
	exitSpacings  []time.Duration // inter-feedback spacing inside the window
	exitLastFb    sim.Time
	exitTimer     *sim.Timer

	rtoTimer     *sim.Timer
	probeTimer   *sim.Timer
	probeBackoff time.Duration
	stats        SenderStats

	closed bool
}

// NewSender validates cfg and creates a sender.
func NewSender(cfg Config) *Sender {
	if cfg.Clock == nil {
		panic("transport: Config.Clock is required")
	}
	if cfg.Send == nil {
		panic("transport: Config.Send is required")
	}
	if cfg.Startup == nil {
		cfg.Startup = NewCircuitStart()
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = DefaultAlpha
	}
	if cfg.Beta == 0 {
		cfg.Beta = DefaultBeta
	}
	if cfg.InitialCwnd == 0 {
		cfg.InitialCwnd = DefaultInitialCwnd
	}
	if cfg.MinCwnd == 0 {
		cfg.MinCwnd = DefaultInitialCwnd
	}
	if cfg.MaxCwnd == 0 {
		cfg.MaxCwnd = DefaultMaxCwnd
	}
	if cfg.Alpha > cfg.Beta {
		panic(fmt.Sprintf("transport: alpha %v > beta %v", cfg.Alpha, cfg.Beta))
	}
	s := &Sender{
		cfg:   cfg,
		clock: cfg.Clock,
		cwnd:  cfg.InitialCwnd,
		phase: PhaseStartup,
		rtt:   NewRTTEstimator(cfg.RTOMin, cfg.RTOMax),
	}
	s.rtoTimer = sim.NewTimer(s.clock, s.onRTO)
	s.probeTimer = sim.NewTimer(s.clock, s.onProbe)
	s.exitTimer = sim.NewTimer(s.clock, s.onExitMeasured)
	s.restartThreshold = cfg.RestartRounds
	s.probeBackoff = 1
	s.notifyCwnd()
	return s
}

// UseSegmentPool wires the pool the sender's growable buffers come from
// — the retransmission ring, the local queue and the exit-measurement
// spacings — and Close returns them to. Relays and endpoints pass the
// segment pool they were wired with, so within a trial arena a fresh
// circuit's senders regrow into the buffers torn-down ones held. Must
// be set before traffic flows; nil allocates plainly.
func (s *Sender) UseSegmentPool(sp *SegmentPool) { s.pool = sp }

// Close shuts the sender down as part of a circuit teardown. All three
// timers are stopped, which returns their events to the clock's free
// list immediately; the unproduced backlog is forgotten; the sender's
// buffers go back to its pool; and every subsequent handler call is a
// no-op, so segments already in flight when the circuit died are
// absorbed silently.
//
// No cell is recycled here: the buffers go back emptied, and the cells
// they pointed to are abandoned. A queued or retained cell at a relay is
// also referenced by the upstream hop until the in-flight ACK lands, so
// recycling it could hand one cell to two circuits; an origin holds no
// cell it has not transmitted (see Offer). The garbage collector or the
// trial-boundary Pool.Reset reclaims them. See DESIGN.md, "Teardown
// ownership".
func (s *Sender) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.rtoTimer.Stop()
	s.probeTimer.Stop()
	s.exitTimer.Stop()
	if s.cfg.OnHeld != nil {
		if held := len(s.queue) - s.qhead + s.Unacked(); held > 0 {
			s.cfg.OnHeld(-held)
		}
	}
	s.backlog = 0
	s.releaseBuffers()
}

// releaseBuffers hands the queue, the retransmission ring and the
// spacings back to the pool, emptied, and forgets them.
func (s *Sender) releaseBuffers() {
	s.pool.queueStore().Put(s.queue)
	s.pool.sentStore().Put(s.sent)
	s.pool.spacingStore().Put(s.exitSpacings)
	s.queue, s.qhead = nil, 0
	s.sent = nil
	s.exitSpacings = nil
}

// Closed reports whether the sender has been shut down.
func (s *Sender) Closed() bool { return s.closed }

// --- accessors -------------------------------------------------------

// Cwnd returns the congestion window in cells.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// CwndBytes returns the window expressed in payload bytes (cells ×
// cell.Size), the unit of the paper's Figure 1 y-axis.
func (s *Sender) CwndBytes() float64 { return s.cwnd * cell.Size }

// Phase returns the current congestion-control phase.
func (s *Sender) Phase() Phase { return s.phase }

// QueueLen returns cells waiting for their first transmission: the
// local queue plus the offered backlog not yet produced.
func (s *Sender) QueueLen() int { return len(s.queue) - s.qhead + s.backlog }

// InFlight returns the window occupancy in cells under the configured
// window clock.
func (s *Sender) InFlight() int {
	if s.cfg.WindowClock == ClockAck {
		return int(s.nextSeq - s.acked)
	}
	return int(s.nextSeq - s.feedback)
}

// Unacked returns cells transmitted but not yet acknowledged.
func (s *Sender) Unacked() int { return int(s.nextSeq - s.acked) }

// BaseRTT returns the minimum DATA→FEEDBACK RTT observed.
func (s *Sender) BaseRTT() time.Duration { return s.baseRtt }

// SRTT returns the smoothed DATA→ACK RTT.
func (s *Sender) SRTT() time.Duration { return s.rtt.SRTT() }

// Stats returns a snapshot of the counters.
func (s *Sender) Stats() SenderStats {
	st := s.stats
	st.Acked = s.acked
	st.Feedback = s.feedback
	return st
}

// RoundFeedback returns the number of cells confirmed moving within the
// current round so far — the quantity CircuitStart's overshooting
// compensation sets the window to.
func (s *Sender) RoundFeedback() int { return int(s.feedback - s.roundStartFb) }

// RoundAppLimited reports whether the most recently completed round was
// constrained by available data rather than the congestion window. It is
// meaningful during Startup.OnRoundComplete; policies must not grow the
// window after an application-limited round.
func (s *Sender) RoundAppLimited() bool { return s.lastRoundAppLimited }

// DispersionWindow estimates the optimal window from the current
// round's packet-train dispersion: the successor's forwarding rate,
// measured as feedback spacing, times the base RTT. This is the
// "elaborate analysis of the timing information gathered" that the
// discrete rounds' packet trains enable — the train prefix the
// successor forwards back-to-back reveals its drain rate, and
// rate × baseRtt is the minimal window that fully utilizes it.
// ok is false until the round has at least two spaced feedback events.
func (s *Sender) DispersionWindow() (cells float64, ok bool) {
	n := s.RoundFeedback()
	if !s.roundHasFb || n < 2 || s.baseRtt <= 0 {
		return 0, false
	}
	elapsed := s.clock.Now().Sub(s.roundFirstFb)
	if elapsed <= 0 {
		return 0, false
	}
	rate := float64(n-1) / elapsed.Seconds() // cells per second
	return rate * s.baseRtt.Seconds(), true
}

// VegasDiff returns the live queue estimate of the current round:
// diff = cwnd·(currentRtt/baseRtt) − cwnd, with currentRtt the mean
// feedback RTT of the round so far. Zero until samples exist.
func (s *Sender) VegasDiff() float64 {
	if s.roundRttCnt == 0 || s.baseRtt <= 0 {
		return 0
	}
	current := time.Duration(int64(s.roundRttSum) / int64(s.roundRttCnt))
	return s.cwnd*(float64(current)/float64(s.baseRtt)) - s.cwnd
}

// --- window manipulation (used by Startup policies) -------------------

func (s *Sender) clampCwnd(v float64) float64 {
	if v < s.cfg.MinCwnd {
		v = s.cfg.MinCwnd
	}
	if v > s.cfg.MaxCwnd {
		v = s.cfg.MaxCwnd
	}
	return v
}

// SetCwnd sets the window, clamped to [MinCwnd, MaxCwnd].
func (s *Sender) SetCwnd(v float64) {
	v = s.clampCwnd(v)
	if v == s.cwnd {
		return
	}
	s.cwnd = v
	s.notifyCwnd()
}

// ExitStartup leaves the ramp-up phase with the given window and enters
// congestion avoidance. Calling it outside PhaseStartup is a no-op.
func (s *Sender) ExitStartup(newCwnd float64) {
	if s.phase != PhaseStartup {
		return
	}
	s.phase = PhaseAvoidance
	s.exitMeasuring = false
	s.exitTimer.Stop()
	s.stats.StartupExits++
	s.stats.ExitCwnd = s.clampCwnd(newCwnd)
	s.stats.ExitTime = s.clock.Now()
	s.cwnd = s.stats.ExitCwnd
	s.endRound()
	s.notifyCwnd()
}

// BeginExitMeasurement starts the overshooting-compensation measurement.
// The sender keeps transmitting (with headroom for the doubling this
// round would have performed, so the successor stays saturated), waits
// for the first feedback covering a post-trip cell, then counts feedback
// for exactly one baseRtt and leaves startup with the counted amount as
// its window. Redundant calls are no-ops.
func (s *Sender) BeginExitMeasurement() {
	if s.phase != PhaseStartup {
		return
	}
	s.beginMeasurement()
	s.pump() // the measurement headroom may admit more cells right away
}

// beginMeasurement arms the one-baseRtt drain measurement in either
// phase. In startup it ends with ExitStartup; in avoidance (severe
// remeasure) it shrinks the window to the measured drain.
func (s *Sender) beginMeasurement() {
	if s.exitMeasuring {
		return
	}
	s.exitMeasuring = true
	s.exitAligned = false
	s.exitStarved = false
	s.exitMarkSeq = s.nextSeq
	s.exitFbStart = s.feedback
	// Safety net: if no post-trip feedback ever arrives (stall, loss),
	// finish anyway with whatever was counted.
	s.exitTimer.Arm(4 * s.rtt.RTO())
}

// ExitMeasuring reports whether the exit measurement is in progress.
func (s *Sender) ExitMeasuring() bool { return s.exitMeasuring }

// observeExitFeedback feeds the measurement with a feedback batch that
// advanced the cumulative count by delta cells. It opens the counting
// window on the first feedback that covers a post-trip cell, and inside
// the window records inter-feedback spacings for the dispersion
// estimator.
func (s *Sender) observeExitFeedback(delta uint64) {
	if !s.exitMeasuring {
		return
	}
	now := s.clock.Now()
	if !s.exitAligned {
		if s.feedback <= s.exitMarkSeq {
			return
		}
		s.exitAligned = true
		s.exitFbStart = s.exitMarkSeq // count every post-trip cell covered so far
		s.exitSpacings = s.exitSpacings[:0]
		s.exitLastFb = now
		window := s.baseRtt
		if window <= 0 {
			window = s.rtt.RTO()
		}
		s.exitTimer.Arm(window)
		return
	}
	// A batch of delta cells at one instant is delta samples: one at the
	// observed spacing, the rest back-to-back (zero spacing).
	st := s.pool.spacingStore()
	s.exitSpacings = st.Append(s.exitSpacings, now.Sub(s.exitLastFb))
	for i := uint64(1); i < delta; i++ {
		s.exitSpacings = st.Append(s.exitSpacings, 0)
	}
	s.exitLastFb = now
}

// onExitMeasured closes the measurement window and performs the exit.
//
// Two estimators are combined, each an over-estimate in a failure mode
// the other does not share. The raw count of cells confirmed moving
// within one baseRtt over-estimates when the successor released queued
// backlog inside the window (a burst of "moving" cells that is not a
// sustainable rate); the dispersion estimate — baseRtt divided by the
// median inter-feedback spacing — over-estimates when the successor
// forwards in line-rate bursts separated by idle gaps. Their minimum is
// a safe window in both regimes, in line with the paper's stance that
// under-estimation is acceptable ("this is in line with our goal of
// being safe").
func (s *Sender) onExitMeasured() {
	if !s.exitMeasuring {
		return
	}
	if s.exitStarved {
		// The measurement is void: the sender idled, so the count says
		// nothing about the successor's capacity. Keep the window. In
		// startup, still hand over to avoidance — the delay signal that
		// opened the measurement was real, and the app-limited guard
		// plus re-probe govern the window from here.
		s.exitMeasuring = false
		if s.phase == PhaseStartup {
			s.ExitStartup(s.cwnd)
		} else {
			s.endRound()
			s.pump()
		}
		return
	}
	est := float64(s.feedback - s.exitFbStart)
	if len(s.exitSpacings) >= 4 && s.baseRtt > 0 {
		// The samples are spent once the window closes (the next
		// measurement starts over), so they are sorted in place.
		slices.Sort(s.exitSpacings)
		if med := s.exitSpacings[len(s.exitSpacings)/2]; med > 0 {
			if disp := float64(s.baseRtt) / float64(med); disp < est {
				est = disp
			}
		}
	}
	if s.phase == PhaseStartup {
		// If the count saturated the measurement's own in-flight
		// allowance (~2× the window), the probe hit its self-imposed
		// ceiling, not the network's: adopt the estimate and keep
		// ramping instead of exiting below capacity.
		if est >= 1.8*s.cwnd {
			s.exitMeasuring = false
			s.SetCwnd(est)
			s.endRound()
			s.pump()
			return
		}
		s.ExitStartup(est) // clears exitMeasuring
		return
	}
	// Severe remeasure in avoidance: only ever shrink — growth goes
	// through the re-probe path, which validates it against the network.
	s.exitMeasuring = false
	if est < s.cwnd {
		s.SetCwnd(est)
	}
	s.endRound()
	s.pump()
}

// enterStartup re-enters the ramp-up phase (RTO recovery or the dynamic
// re-probe extension), keeping the current window as the new ramp base.
func (s *Sender) enterStartup() {
	s.phase = PhaseStartup
	s.exitMeasuring = false
	s.exitTimer.Stop()
	s.underuseRounds = 0
	s.endRound()
	s.notifyCwnd()
}

func (s *Sender) notifyCwnd() {
	if s.cfg.OnCwnd != nil {
		s.cfg.OnCwnd(s.cwnd, s.phase)
	}
}

// --- data path --------------------------------------------------------

// Enqueue submits a cell for transmission. Cells leave in FIFO order
// when the window (or, in burst mode, the round budget) allows.
func (s *Sender) Enqueue(c *cell.Cell) {
	if c == nil {
		panic("transport: Enqueue(nil)")
	}
	if s.closed {
		panic("transport: Enqueue on a closed sender")
	}
	if s.qhead == len(s.queue) && s.qhead > 0 {
		s.queue = s.queue[:0]
		s.qhead = 0
	}
	if len(s.queue) == cap(s.queue) {
		s.growQueue()
	}
	s.queue = append(s.queue, c)
	if s.cfg.OnHeld != nil {
		s.cfg.OnHeld(1)
	}
	s.pump()
	s.updateProbeTimer()
}

// Offer announces n more cells of backlog for cfg.Produce to build, one
// at each transmission. To the window logic the backlog is queued data
// exactly as if the n cells had been Enqueued back to back; only the
// cells themselves do not exist until they leave.
func (s *Sender) Offer(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("transport: Offer(%d)", n))
	}
	if s.cfg.Produce == nil {
		panic("transport: Offer without Config.Produce")
	}
	if s.closed {
		panic("transport: Offer on a closed sender")
	}
	s.backlog += n
	s.pump()
	s.updateProbeTimer()
}

// burstMode reports whether transmission is currently governed by
// discrete round budgets. During the exit measurement the sender
// switches to continuous window refill: a train boundary would open a
// feedback gap of a full RTT inside the measurement window and starve
// the count.
func (s *Sender) burstMode() bool {
	return s.phase == PhaseStartup && s.cfg.Startup.BurstMode() && !s.exitMeasuring
}

// pump transmits as long as data and window allow.
func (s *Sender) pump() {
	first := s.nextSeq
	defer func() {
		// Batched signalling: one cumulative first-transmission report
		// for the whole drain (see Config.BatchSignals).
		if s.cfg.BatchSignals && s.nextSeq > first && s.cfg.OnFirstTransmit != nil {
			s.cfg.OnFirstTransmit(s.nextSeq)
		}
		// A drain measurement is only valid while the window is the
		// binding constraint. Running out of data mid-measurement means
		// the count reflects upstream supply, not successor capacity.
		if s.exitMeasuring && s.QueueLen() == 0 && s.InFlight() < int(math.Floor(s.cwnd)) {
			s.exitStarved = true
		}
	}()
	for s.QueueLen() > 0 {
		if s.burstMode() {
			if !s.roundActive {
				s.beginRound()
			}
			if s.roundBudget <= 0 {
				return // train sent; wait for the round's feedback
			}
		} else {
			limit := s.cwnd
			if s.exitMeasuring && s.phase == PhaseStartup {
				// The measurement needs the successor saturated: allow
				// the doubling this round would have performed anyway,
				// so the counted drain reflects capacity rather than
				// the (possibly still sub-optimal) tripped window. This
				// is the "temporary overshooting" the compensation then
				// cancels.
				limit = 2 * s.cwnd
			}
			if s.InFlight() >= int(math.Floor(limit)) {
				return
			}
			if !s.roundActive {
				s.beginRound()
			}
		}
		s.transmitNext()
	}
}

// beginRound opens a measurement round. In burst mode the budget is the
// whole window; in continuous mode the boundary is pinned after each
// transmission (see transmitNext) so a round spans roughly one RTT.
func (s *Sender) beginRound() {
	s.roundActive = true
	s.roundStartFb = s.feedback
	s.roundRttSum = 0
	s.roundRttCnt = 0
	s.roundHasFb = false
	s.roundStartCwnd = s.cwnd
	s.roundMaxInFlight = s.InFlight()
	// The round completes when feedback covers its boundary. In burst
	// mode the boundary grows to cover the whole train (see
	// transmitNext); in continuous mode it is pinned to the first cell
	// of the round, so a round spans roughly one RTT.
	s.roundBoundary = s.nextSeq + 1
	if s.burstMode() {
		s.roundBudget = int(math.Floor(s.cwnd))
	} else {
		s.roundBudget = 0
	}
}

func (s *Sender) endRound() {
	s.roundActive = false
	s.roundBudget = 0
}

// sentAt returns the ring slot of a sequence in the live range.
func (s *Sender) sentAt(seq uint64) *sentCell {
	return &s.sent[seq&uint64(len(s.sent)-1)]
}

// growSent doubles the ring in a buffer from the pool, moving each live
// sequence to its slot under the new mask, and hands the old buffer back.
func (s *Sender) growSent() {
	st := s.pool.sentStore()
	old := s.sent
	s.sent = st.Get(2 * len(old))
	for seq := min(s.acked, s.feedback); seq < s.nextSeq; seq++ {
		*s.sentAt(seq) = old[seq&uint64(len(old)-1)]
	}
	st.Put(old)
}

// growQueue makes room for one more queued cell: the waiting cells move
// to the front of a pool buffer twice their number, and the old buffer,
// consumed prefix and all, goes back.
func (s *Sender) growQueue() {
	st := s.pool.queueStore()
	old := s.queue
	buf := st.Get(2 * (len(old) - s.qhead))
	s.queue = buf[:copy(buf, old[s.qhead:])]
	s.qhead = 0
	st.Put(old)
}

// next dequeues the cell to transmit: the head of the local queue, or,
// once that is empty, the next cell of the offered backlog, built now.
func (s *Sender) next() *cell.Cell {
	if s.qhead < len(s.queue) {
		c := s.queue[s.qhead]
		s.queue[s.qhead] = nil
		s.qhead++
		return c
	}
	s.backlog--
	if s.cfg.OnHeld != nil {
		s.cfg.OnHeld(1)
	}
	return s.cfg.Produce()
}

func (s *Sender) transmitNext() {
	c := s.next()

	seq := s.nextSeq
	if int(seq-min(s.acked, s.feedback)) == len(s.sent) {
		s.growSent()
	}
	s.nextSeq++
	*s.sentAt(seq) = sentCell{cell: c, at: s.clock.Now()}
	if s.roundActive && s.burstMode() {
		s.roundBudget--
		if seq >= s.roundBoundary {
			s.roundBoundary = seq + 1
		}
	}
	if s.roundActive {
		if inf := s.InFlight(); inf > s.roundMaxInFlight {
			s.roundMaxInFlight = inf
		}
	}
	ok := s.cfg.Send(Segment{Kind: KindData, Circ: s.cfg.Circ, Seq: seq, Cell: c})
	if !ok {
		s.stats.WireRejected++
	}
	s.stats.Transmitted++
	if !s.rtoTimer.Armed() {
		s.rtoTimer.Arm(s.rtt.RTO())
	}
	if s.cfg.OnFirstTransmit != nil && !s.cfg.BatchSignals {
		s.cfg.OnFirstTransmit(s.nextSeq)
	}
}

// HandleAck processes a cumulative reception acknowledgment: count cells
// have been received in order by the peer.
func (s *Sender) HandleAck(count uint64) {
	if s.closed {
		return
	}
	if count > s.nextSeq {
		panic(fmt.Sprintf("transport: ack count %d beyond transmitted %d", count, s.nextSeq))
	}
	if count <= s.acked {
		return // stale or duplicate
	}
	newly := int(count - s.acked)
	// Sample only the newest covered sequence (and only if it was never
	// retransmitted — Karn's rule). Older cells in the batch were held
	// back by a gap, so now minus their first-transmission time would
	// grossly overestimate their RTT and pollute the RTO.
	if last := s.sentAt(count - 1); !last.rtx {
		s.rtt.Sample(s.clock.Now().Sub(last.at))
	}
	for seq := s.acked; seq < count; seq++ {
		sc := s.sentAt(seq)
		// Conservation: an unacked sequence still holds the cell it was
		// sent with. A ring that lost one (a buffer recycled before its
		// contents moved) would retransmit nothing.
		if sc.cell == nil {
			panic(fmt.Sprintf("transport: ack covers seq %d, which holds no cell", seq))
		}
		sc.cell, sc.rtx = nil, false
	}
	s.acked = count
	if s.cfg.OnHeld != nil {
		s.cfg.OnHeld(-newly)
	}

	if s.Unacked() == 0 {
		s.rtoTimer.Stop()
	} else {
		s.rtoTimer.Arm(s.rtt.RTO())
	}
	if s.phase == PhaseStartup {
		s.cfg.Startup.OnAck(s, newly)
	}
	s.pump()
	s.updateProbeTimer()
}

// HandleFeedback processes a cumulative feedback report: count cells
// have been forwarded onward by the peer.
func (s *Sender) HandleFeedback(count uint64) {
	if s.closed {
		return
	}
	if count > s.nextSeq {
		panic(fmt.Sprintf("transport: feedback count %d beyond transmitted %d", count, s.nextSeq))
	}
	if count <= s.feedback {
		return
	}
	now := s.clock.Now()
	if s.roundActive && !s.roundHasFb {
		s.roundHasFb = true
		s.roundFirstFb = now
	}
	// As with ACKs, sample only the newest covered sequence: a batch
	// report (after a lost FEEDBACK healed) covers cells whose
	// individual reports are long gone, and their apparent RTTs would
	// be inflated by the healing delay, not by queueing.
	if last := s.sentAt(count - 1); !last.rtx {
		rtt := now.Sub(last.at)
		if s.baseRtt == 0 || rtt < s.baseRtt {
			s.baseRtt = rtt
		}
		if s.roundActive {
			s.roundRttSum += rtt
			s.roundRttCnt++
		}
	}
	delta := count - s.feedback
	s.feedback = count
	s.observeExitFeedback(delta)

	if s.phase == PhaseStartup {
		s.cfg.Startup.OnFeedback(s)
	}
	// The policy may have exited startup and reset the round.
	if s.roundActive && s.feedback >= s.roundBoundary {
		s.completeRound()
	}
	s.pump()
	s.updateProbeTimer()
}

// completeRound closes the measurement round and lets the phase logic
// act on the Vegas diff.
func (s *Sender) completeRound() {
	diff := s.VegasDiff()
	// The round was application-limited if in-flight data never reached
	// the window that was in force when it began: the window was not the
	// binding constraint, so its size was not actually probed.
	s.lastRoundAppLimited = s.roundMaxInFlight < int(math.Floor(s.roundStartCwnd))
	s.stats.Rounds++
	s.endRound()

	switch s.phase {
	case PhaseStartup:
		s.cfg.Startup.OnRoundComplete(s, diff)
	case PhaseAvoidance:
		if s.cfg.DisableAvoidance {
			break
		}
		if s.exitMeasuring {
			break // a remeasure is in progress; let it conclude
		}
		switch {
		case diff < s.cfg.Alpha:
			if s.lastRoundAppLimited {
				break // a slack round proves nothing; hold the window
			}
			// Dynamic re-probe extension: after RestartRounds
			// consecutive window-limited underuse rounds with an
			// essentially empty queue estimate, conditions have
			// demonstrably improved — grow multiplicatively instead of
			// crawling one cell per RTT. diff ≥ α/2 means a queue is
			// already forming, so acceleration stops there.
			s.underuseRounds++
			if s.cfg.RestartRounds > 0 && s.underuseRounds >= s.restartThreshold && diff < s.cfg.Alpha/2 {
				if !s.accelPhase {
					s.accelPhase = true
					// Judge the previous probe by where the window
					// rests NOW, after any correction: a probe whose
					// gains were reverted was futile, so the next one
					// waits longer (bounded); a kept gain resets the
					// cadence.
					if s.accelStartCwnd > 0 {
						if s.cwnd < 1.5*s.accelStartCwnd {
							if s.restartThreshold < 32 {
								s.restartThreshold *= 2
							}
						} else {
							s.restartThreshold = s.cfg.RestartRounds
						}
					}
					s.accelStartCwnd = s.cwnd
				}
				s.stats.Restarts++
				s.SetCwnd(s.cwnd * 1.5)
			} else {
				s.SetCwnd(s.cwnd + 1)
			}
		case s.cfg.SevereRemeasure > 0 && diff > s.cfg.SevereRemeasure*s.cfg.Beta:
			s.endUnderuseStreak()
			s.beginMeasurement()
		case diff > s.cfg.Beta:
			s.endUnderuseStreak()
			s.SetCwnd(s.cwnd - 1)
		default:
			s.endUnderuseStreak()
		}
	}
	// A new round begins lazily with the next transmission.
}

// endUnderuseStreak closes an accelerated-growth phase; the phase's
// verdict (futile or successful) is judged when the next phase starts,
// after any correction has settled the window.
func (s *Sender) endUnderuseStreak() {
	s.underuseRounds = 0
	s.accelPhase = false
}

// updateProbeTimer arms the feedback probe when the sender is waiting
// purely on feedback (everything sent has been received) and stops it
// otherwise. A lost tail FEEDBACK report is unrecoverable without this:
// no retransmission will trigger a fresh one.
func (s *Sender) updateProbeTimer() {
	waitingOnFeedback := s.feedback < s.nextSeq && s.acked == s.nextSeq
	if waitingOnFeedback {
		if !s.probeTimer.Armed() {
			s.probeTimer.Arm(s.rtt.RTO() * s.probeBackoff)
		}
	} else {
		s.probeTimer.Stop()
		s.probeBackoff = 1
	}
}

// onProbe requests a fresh cumulative report from the peer.
func (s *Sender) onProbe() {
	if !(s.feedback < s.nextSeq && s.acked == s.nextSeq) {
		s.probeBackoff = 1
		return
	}
	s.stats.Probes++
	if !s.cfg.Send(Segment{Kind: KindProbe, Circ: s.cfg.Circ, Count: s.feedback}) {
		s.stats.WireRejected++
	}
	if s.probeBackoff < 32 {
		s.probeBackoff *= 2
	}
	s.probeTimer.Arm(s.rtt.RTO() * s.probeBackoff)
}

// onRTO fires when the oldest unacked cell's retransmission timer
// expires: retransmit it, back off, and restart the ramp from the
// initial window (loss means the estimate was wrong).
func (s *Sender) onRTO() {
	if s.closed {
		return
	}
	if s.Unacked() == 0 {
		return
	}
	seq := s.acked
	oldest := s.sentAt(seq)
	oldest.rtx = true
	s.stats.Retransmitted++
	s.stats.RTOs++
	if !s.cfg.Send(Segment{Kind: KindData, Circ: s.cfg.Circ, Seq: seq, Cell: oldest.cell}) {
		s.stats.WireRejected++
	}
	s.rtt.Backoff()
	s.rtoTimer.Arm(s.rtt.RTO())

	s.SetCwnd(s.cfg.InitialCwnd)
	if s.phase != PhaseStartup && !s.cfg.DisableAvoidance {
		s.enterStartup()
	} else {
		s.endRound()
	}
}

// Idle reports whether the sender has nothing queued and nothing in
// flight (transfer drained through this hop).
func (s *Sender) Idle() bool {
	return s.QueueLen() == 0 && s.nextSeq == s.acked && s.nextSeq == s.feedback
}

// DebugState renders internal sender state for diagnostics.
func (s *Sender) DebugState() string {
	return fmt.Sprintf("phase=%v cwnd=%.1f measuring=%v aligned=%v starved=%v roundActive=%v budget=%d boundary=%d sent=%d acked=%d fb=%d queue=%d inflight=%d exitTimerArmed=%v rtoArmed=%v",
		s.phase, s.cwnd, s.exitMeasuring, s.exitAligned, s.exitStarved, s.roundActive, s.roundBudget, s.roundBoundary,
		s.nextSeq, s.acked, s.feedback, s.QueueLen(), s.InFlight(), s.exitTimer.Armed(), s.rtoTimer.Armed())
}
