package scenario

import (
	"errors"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/transport"
	"circuitstart/internal/units"
)

// This file is the endpoint-side recovery engine: with
// Faults.Recovery.Enabled, every download runs a progress watchdog that
// detects transport stalls the overlay's scripted churn machinery
// cannot see (hung relays, flapped links, partitioned trunks), tears
// the dead circuit down, and rebuilds around the failure with capped
// exponential backoff.
//
// The state machine per download:
//
//	running --(no progress for StallRTOs×RTO)--> stalled
//	stalled --(backoff, rebuild ok)--> running   (recovery recorded on
//	                                              first byte received)
//	stalled --(rebuild failed)--> stalled        (backoff doubles)
//	stalled --(MaxRetries exhausted)--> abandoned
//
// Re-entering onStall while already stalled (a rebuilt circuit stalling
// again before any progress) neither re-records the stall instant nor
// counts a new stall: the downtime span covers the whole outage.

// recoveryOn reports whether the trial runs the stall detector.
func (e *churnEngine) recoveryOn() bool { return e.sc.Faults.Recovery.Enabled }

// ensureEst lazily creates download d's recovery RTT estimator, clamped
// by the plan's RTO bounds.
func (e *churnEngine) ensureEst(d *download) {
	if d.est == nil {
		rec := e.sc.Faults.Recovery
		d.est = transport.NewRTTEstimator(rec.RTOMin, rec.RTOMax)
	}
}

// progressOf folds every signal that the download's transport is moving
// into one counter: forward ACK/FEEDBACK progress, bytes landed at the
// receiving endpoint (either direction), and backward-sender progress
// for download-direction transfers. Any frame surviving the faulted
// path bumps at least one term.
func (e *churnEngine) progressOf(d *download) uint64 {
	c := d.circuit
	st := c.SourceSender().Stats()
	p := st.Acked + st.Feedback
	p += uint64(c.Sink().Received())
	p += uint64(c.Source().Downloaded())
	if bs := c.Sink().BackwardSender(); bs != nil {
		bst := bs.Stats()
		p += bst.Acked + bst.Feedback
	}
	return p
}

// receivedOn returns the bytes the transfer's receiving endpoint got on
// this circuit — the goodput contribution of a circuit being discarded.
func (e *churnEngine) receivedOn(c *core.Circuit) units.DataSize {
	if c == nil {
		return 0
	}
	if e.sc.Circuits.Download {
		return c.Source().Downloaded()
	}
	return c.Sink().Received()
}

// armWatchdog schedules the next progress check, bound to the current
// watchdog generation so chains armed before a rebuild die silently.
func (e *churnEngine) armWatchdog(d *download) {
	gen := d.wgen
	deadline := time.Duration(e.sc.Faults.Recovery.StallRTOs) * d.est.RTO()
	e.n.Clock().After(deadline, func() { e.checkProgress(d, gen) })
}

// checkProgress is the watchdog body: progress since the last check
// re-arms (and closes any open stall); none declares a stall.
func (e *churnEngine) checkProgress(d *download, gen uint64) {
	if gen != d.wgen || d.done || d.aborted {
		return
	}
	if d.circuit == nil || d.circuit.Closed() {
		// Torn down by a scripted event between checks; the event's own
		// handling (abort, rebuild) owns the download now.
		return
	}
	if p := e.progressOf(d); p != d.lastProgress {
		d.lastProgress = p
		// A stalled download runs on a rebuilt circuit, so its first
		// byte at the receiving endpoint is the recovery; acks from the
		// near hops of a still-dead path are not.
		if d.stalled && e.receivedOn(d.circuit) > 0 {
			e.recordRecovery(d)
		}
		// Feed the live path's RTT so the stall deadline tracks the
		// network (Sample also resets the backoff ladder).
		if srtt := d.circuit.SourceSender().SRTT(); srtt > 0 {
			d.est.Sample(srtt)
		}
		e.armWatchdog(d)
		return
	}
	e.onStall(d)
}

// onStall declares the download stalled, banks the dead circuit's
// delivered bytes, tears it down and enters the rebuild ladder.
func (e *churnEngine) onStall(d *download) {
	if !d.stalled {
		d.stalled = true
		d.stalledAt = e.n.Now()
		e.resil.Stalls++
	}
	d.delivered += e.receivedOn(d.circuit)
	e.teardown(d.circuit)
	e.tryRebuild(d)
}

// tryRebuild spends one retry from the budget: back off, then rebuild.
func (e *churnEngine) tryRebuild(d *download) {
	if d.retries >= e.sc.Faults.Recovery.MaxRetries {
		e.abandon(d)
		return
	}
	d.retries++
	e.resil.Retries++
	e.ensureEst(d)
	d.est.Backoff()
	gen := d.wgen
	e.n.Clock().After(d.est.RTO(), func() { e.rebuildAfterStall(d, gen) })
}

// rebuildAfterStall attempts the circuit rebuild a backoff delay after
// a stall (or failed build): a fresh path avoiding both scripted-failed
// and currently-suspect relays, sampled from the recovery engine's own
// RNG stream so arming recovery never perturbs churn path draws. A
// failed build re-enters the ladder — circuit-build timeouts get the
// same retry/backoff treatment as stalls.
func (e *churnEngine) rebuildAfterStall(d *download, gen uint64) {
	if gen != d.wgen || d.done || d.aborted {
		return
	}
	d.rebuild++
	if err := e.buildOn(d, e.recovRNG, e.inj.ExcludedWith(e.failed)); err != nil {
		if errors.Is(err, core.ErrCircuitRejected) {
			e.churn.Rejected++
		}
		e.tryRebuild(d)
		return
	}
	e.churn.Rebuilt++
	if !d.started {
		// A churn arrival whose very first build failed: it starts now.
		d.started = true
		d.startAt = e.n.Now()
	}
	e.startTransfer(d)
}

// recordRecovery closes an open stall: time-to-recovery is the span
// from the stall declaration to the first byte the receiving endpoint
// gets on the rebuilt circuit (or to completion, whichever lands
// first).
func (e *churnEngine) recordRecovery(d *download) {
	span := e.n.Now().Sub(d.stalledAt).Seconds()
	e.resil.Recoveries++
	e.resil.TTR.Add(span)
	e.resil.Downtime += span
	d.stalled = false
}

// abandon gives up on a download after the retry budget is spent.
func (e *churnEngine) abandon(d *download) {
	d.aborted = true
	e.churn.Aborted++
	e.resil.Abandoned++
	e.endActive(d)
}

// endActive closes the download's availability accounting exactly once,
// at its terminal transition (completion, abort, abandonment, or the
// horizon). Active time spans first start to the terminal instant;
// any still-open stall is charged to downtime through the same instant.
func (e *churnEngine) endActive(d *download) {
	if !e.recoveryOn() || d.ended {
		return
	}
	d.ended = true
	now := e.n.Now()
	if d.started {
		e.resil.Active += now.Sub(d.startAt).Seconds()
	}
	if d.stalled {
		d.stalled = false
		e.resil.Downtime += now.Sub(d.stalledAt).Seconds()
	}
}
