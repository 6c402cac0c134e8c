// Package resource implements the per-relay resource manager: caps on
// concurrent circuits and buffered cell memory, with deterministic
// admission and kill policies. The paper measures CircuitStart on
// relays with unbounded state; this package makes overload — the regime
// a deployed network actually lives in — expressible as configuration.
//
// Determinism: victims are selected by a total order (the policy's
// criterion, then the circuit's admission sequence), never map order,
// and memory-triggered kills are deferred through the simulation clock
// (delay 0), so a kill never re-enters the transport machinery that
// reported the breach mid-callback and every run replays identically.
package resource

import (
	"fmt"

	"circuitstart/internal/cell"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// Policy selects what happens when a limit is hit.
type Policy int

const (
	// RejectNew refuses new circuits at the circuit cap; a memory
	// breach kills the circuit whose buffered cell pushed it over.
	RejectNew Policy = iota
	// KillOldest evicts the longest-admitted circuit to make room (or
	// shed memory), admitting the newcomer.
	KillOldest
	// KillHeaviest evicts the circuit holding the most buffered cells.
	KillHeaviest
)

// PolicyByName maps the configuration names to policies ("" selects
// RejectNew).
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "reject-new":
		return RejectNew, nil
	case "kill-oldest":
		return KillOldest, nil
	case "kill-heaviest":
		return KillHeaviest, nil
	default:
		return 0, fmt.Errorf("resource: unknown policy %q (want reject-new, kill-oldest or kill-heaviest)", name)
	}
}

func (p Policy) String() string {
	switch p {
	case RejectNew:
		return "reject-new"
	case KillOldest:
		return "kill-oldest"
	case KillHeaviest:
		return "kill-heaviest"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Limits caps a relay's resources. The zero value is unlimited — a
// relay configured with it behaves byte-identically to one with no
// manager at all.
type Limits struct {
	// MaxCircuits bounds concurrently admitted circuits (0 = unlimited).
	MaxCircuits int
	// MaxMemory bounds the cell memory buffered across all of the
	// relay's transport senders — queued plus retained-for-retransmit,
	// at cell.Size bytes each (0 = unlimited).
	MaxMemory units.DataSize
	// Policy selects the admission/kill behaviour at the caps.
	Policy Policy
}

// Enabled reports whether any cap is set.
func (l Limits) Enabled() bool {
	return l.MaxCircuits > 0 || l.MaxMemory > 0
}

// Validate rejects negative caps.
func (l Limits) Validate() error {
	if l.MaxCircuits < 0 {
		return fmt.Errorf("resource: MaxCircuits %d", l.MaxCircuits)
	}
	if l.MaxMemory < 0 {
		return fmt.Errorf("resource: MaxMemory %v", l.MaxMemory)
	}
	if l.Policy < RejectNew || l.Policy > KillHeaviest {
		return fmt.Errorf("resource: unknown policy %d", int(l.Policy))
	}
	return nil
}

// Label renders the limits compactly for sweep axes and tables
// ("unlimited", "c64/m256.00kB/kill-oldest", …).
func (l Limits) Label() string {
	if !l.Enabled() {
		return "unlimited"
	}
	s := ""
	if l.MaxCircuits > 0 {
		s += fmt.Sprintf("c%d/", l.MaxCircuits)
	}
	if l.MaxMemory > 0 {
		s += fmt.Sprintf("m%v/", l.MaxMemory)
	}
	return s + l.Policy.String()
}

// Stats counts what the manager did. Counters are cumulative.
type Stats struct {
	Admitted     uint64         // circuits admitted
	Rejected     uint64         // circuits refused at admission
	Killed       uint64         // circuits evicted by a kill policy
	MemHighWater units.DataSize // peak buffered cell memory
}

// Merge accumulates another snapshot: counters add, the high-water
// mark takes the maximum (relays and replications pool this way).
func (s *Stats) Merge(o Stats) {
	s.Admitted += o.Admitted
	s.Rejected += o.Rejected
	s.Killed += o.Killed
	if o.MemHighWater > s.MemHighWater {
		s.MemHighWater = o.MemHighWater
	}
}

// entry is one admitted circuit's accounting.
type entry struct {
	seq  uint64 // admission order
	held int    // buffered cells (queued + retained), both directions
}

// Manager tracks one relay's admitted circuits and buffered memory
// and enforces the limits. The relay calls Admit/Release around hop
// setup/teardown and Held from its transport senders' OnHeld hooks;
// kills are delivered through the callback installed with OnKill
// (typically core.Network's circuit teardown).
type Manager struct {
	clock  *sim.Clock
	limits Limits
	kill   func(circ cell.CircID)

	circuits  map[cell.CircID]*entry
	nextSeq   uint64
	heldCells int
	stats     Stats

	killPending bool
	breacher    cell.CircID // circuit whose cell caused the pending breach
}

// NewManager returns a manager enforcing limits on the given clock.
func NewManager(clock *sim.Clock, limits Limits) *Manager {
	if clock == nil {
		panic("resource: NewManager with nil clock")
	}
	if err := limits.Validate(); err != nil {
		panic(err)
	}
	return &Manager{
		clock:    clock,
		limits:   limits,
		circuits: make(map[cell.CircID]*entry),
	}
}

// OnKill installs the eviction callback. The callback must tear the
// circuit down end to end (releasing the relay's hop via Release);
// without one, kill policies degrade to rejecting/ignoring.
func (m *Manager) OnKill(fn func(circ cell.CircID)) { m.kill = fn }

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// heldMemory returns the currently buffered cell memory.
func (m *Manager) heldMemory() units.DataSize {
	return units.DataSize(m.heldCells) * cell.Size
}

// Admit asks to admit a circuit. At the circuit cap, RejectNew refuses
// it; the kill policies synchronously evict victims until there is
// room (admission never runs inside a transport callback, so an
// immediate kill is safe), and only refuse if no victim can be evicted.
func (m *Manager) Admit(circ cell.CircID) bool {
	if _, dup := m.circuits[circ]; dup {
		panic(fmt.Sprintf("resource: circuit %d admitted twice", circ))
	}
	for m.limits.MaxCircuits > 0 && len(m.circuits) >= m.limits.MaxCircuits {
		if m.limits.Policy == RejectNew || m.kill == nil {
			m.stats.Rejected++
			return false
		}
		victim, ok := m.victim(m.limits.Policy)
		if !ok {
			m.stats.Rejected++
			return false
		}
		m.stats.Killed++
		m.kill(victim)
		if _, still := m.circuits[victim]; still {
			// The kill callback failed to release the hop; refuse the
			// newcomer rather than spin.
			m.stats.Rejected++
			return false
		}
	}
	m.nextSeq++
	m.circuits[circ] = &entry{seq: m.nextSeq}
	m.stats.Admitted++
	return true
}

// Release drops an admitted circuit's accounting (hop teardown). A
// circuit the manager does not know is ignored.
func (m *Manager) Release(circ cell.CircID) {
	e := m.circuits[circ]
	if e == nil {
		return
	}
	m.heldCells -= e.held
	delete(m.circuits, circ)
}

// Held adjusts a circuit's buffered-cell count by delta. Crossing the
// memory cap schedules a deferred kill pass (clock delay 0): the
// breach is reported from inside a transport callback, and tearing the
// breacher down mid-callback would free state the caller still holds.
func (m *Manager) Held(circ cell.CircID, delta int) {
	e := m.circuits[circ]
	if e == nil {
		return
	}
	e.held += delta
	m.heldCells += delta
	if mem := m.heldMemory(); mem > m.stats.MemHighWater {
		m.stats.MemHighWater = mem
	}
	if m.limits.MaxMemory <= 0 || m.kill == nil || m.killPending {
		return
	}
	if m.heldMemory() > m.limits.MaxMemory {
		m.killPending = true
		m.breacher = circ
		m.clock.After(0, m.memoryKills)
	}
}

// memoryKills evicts circuits until buffered memory is back under the
// cap: the breacher first under RejectNew, then by the kill policy's
// criterion (falling back to heaviest when RejectNew's breacher is
// already gone).
func (m *Manager) memoryKills() {
	m.killPending = false
	breacher := m.breacher
	for m.heldMemory() > m.limits.MaxMemory && len(m.circuits) > 0 {
		victim, ok := breacher, false
		if m.limits.Policy == RejectNew {
			_, ok = m.circuits[breacher]
		}
		if !ok {
			policy := m.limits.Policy
			if policy == RejectNew {
				policy = KillHeaviest
			}
			if victim, ok = m.victim(policy); !ok {
				return
			}
		}
		breacher = 0
		m.stats.Killed++
		m.kill(victim)
		if _, still := m.circuits[victim]; still {
			return // kill callback did not release; avoid spinning
		}
	}
}

// victim picks the circuit a kill policy evicts: the lowest admission
// sequence for KillOldest, the most buffered cells (ties to the oldest)
// for KillHeaviest. The scan is over a map, but the (criterion, seq)
// order is total, so the result is independent of iteration order.
func (m *Manager) victim(policy Policy) (cell.CircID, bool) {
	var (
		best  cell.CircID
		bestE *entry
		found bool
	)
	for circ, e := range m.circuits {
		if !found {
			best, bestE, found = circ, e, true
			continue
		}
		switch policy {
		case KillOldest:
			if e.seq < bestE.seq {
				best, bestE = circ, e
			}
		case KillHeaviest:
			if e.held > bestE.held || (e.held == bestE.held && e.seq < bestE.seq) {
				best, bestE = circ, e
			}
		}
	}
	return best, found
}
