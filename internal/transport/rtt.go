package transport

import "time"

// RTTEstimator maintains a smoothed round-trip estimate and a
// retransmission timeout per Jacobson/Karels (RFC 6298): on the first
// sample SRTT = R and RTTVAR = R/2; afterwards RTTVAR is blended with
// |SRTT − R| (factor 1/4) and SRTT with R (factor 1/8).
type RTTEstimator struct {
	srtt   time.Duration
	rttvar time.Duration
	valid  bool

	// rtoMin and rtoMax clamp the computed RTO.
	rtoMin, rtoMax time.Duration
	// backoff multiplies the RTO after a timeout (Karn's exponential
	// backoff); it resets to 1 on the next valid sample.
	backoff time.Duration
}

// Default RTO bounds. The minimum is far below TCP's 1s: the protocol
// runs between overlay neighbours where spurious timeouts are cheap and
// interactivity matters.
const (
	defaultRTOMin = 10 * time.Millisecond
	defaultRTOMax = 10 * time.Second
)

// NewRTTEstimator creates an estimator with the given RTO bounds; zero
// values select the defaults.
func NewRTTEstimator(rtoMin, rtoMax time.Duration) *RTTEstimator {
	if rtoMin <= 0 {
		rtoMin = defaultRTOMin
	}
	if rtoMax <= 0 {
		rtoMax = defaultRTOMax
	}
	return &RTTEstimator{rtoMin: rtoMin, rtoMax: rtoMax, backoff: 1}
}

// Sample folds a new RTT measurement into the estimate.
func (e *RTTEstimator) Sample(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if !e.valid {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.valid = true
	} else {
		d := e.srtt - rtt
		if d < 0 {
			d = -d
		}
		e.rttvar = (3*e.rttvar + d) / 4
		e.srtt = (7*e.srtt + rtt) / 8
	}
	e.backoff = 1
}

// RTO returns the current retransmission timeout, including any backoff.
func (e *RTTEstimator) RTO() time.Duration {
	rto := e.rtoMin
	if e.valid {
		rto = e.srtt + 4*e.rttvar
		// Floor at twice the smoothed RTT: with low RTT variance (a
		// deterministic network, or a long stable path) srtt + 4·rttvar
		// degenerates toward srtt itself, which cannot even cover one
		// round trip and guarantees spurious timeouts.
		if rto < 2*e.srtt {
			rto = 2 * e.srtt
		}
		if rto < e.rtoMin {
			rto = e.rtoMin
		}
	} else {
		// No sample yet: start conservatively at 10× the floor.
		rto = 10 * e.rtoMin
	}
	rto *= e.backoff
	if rto > e.rtoMax {
		rto = e.rtoMax
	}
	return rto
}

// Backoff doubles the RTO after a retransmission timeout.
func (e *RTTEstimator) Backoff() {
	if e.backoff < 64 {
		e.backoff *= 2
	}
}
