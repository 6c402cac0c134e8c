// Package directory models the overlay's view of available relays: a
// consensus of relay descriptors with capacity and position flags, and
// bandwidth-weighted path selection as Tor performs it.
//
// The paper's aggregate experiment transfers data "over a randomly
// generated network of Tor relays"; this package is where those networks
// are described and circuits' relay sequences are chosen.
package directory

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// Flag marks the positions a relay may occupy, mirroring Tor's
// Guard/Exit consensus flags.
type Flag uint8

// Position flags. A relay may hold several.
const (
	FlagGuard Flag = 1 << iota
	FlagExit
	FlagMiddle
)

// Has reports whether all bits of q are set in f.
func (f Flag) Has(q Flag) bool { return f&q == q }

func (f Flag) String() string {
	s := ""
	if f.Has(FlagGuard) {
		s += "Guard|"
	}
	if f.Has(FlagExit) {
		s += "Exit|"
	}
	if f.Has(FlagMiddle) {
		s += "Middle|"
	}
	if s == "" {
		return "none"
	}
	return s[:len(s)-1]
}

// Descriptor is one relay's consensus entry.
type Descriptor struct {
	// ID is the relay's network identity.
	ID netem.NodeID
	// Bandwidth is the advertised (access link) capacity.
	Bandwidth units.DataRate
	// Latency is the relay's access propagation delay.
	Latency time.Duration
	// Flags lists positions the relay may serve in.
	Flags Flag
}

// Consensus is the set of relays available for path selection.
type Consensus struct {
	relays []Descriptor
	byID   map[netem.NodeID]int
}

// Errors from consensus operations.
var (
	ErrDuplicateRelay = errors.New("directory: duplicate relay ID")
	ErrNoCandidates   = errors.New("directory: no candidate relay for position")
	ErrPathTooLong    = errors.New("directory: path longer than distinct candidate relays")
)

// NewConsensus builds a consensus from descriptors.
func NewConsensus(relays []Descriptor) (*Consensus, error) {
	c := &Consensus{byID: make(map[netem.NodeID]int, len(relays))}
	for _, d := range relays {
		if _, dup := c.byID[d.ID]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateRelay, d.ID)
		}
		if d.Bandwidth <= 0 {
			return nil, fmt.Errorf("directory: relay %q with non-positive bandwidth", d.ID)
		}
		c.byID[d.ID] = len(c.relays)
		c.relays = append(c.relays, d)
	}
	return c, nil
}

// Len returns the number of relays.
func (c *Consensus) Len() int { return len(c.relays) }

// Relay returns the descriptor for id.
func (c *Consensus) Relay(id netem.NodeID) (Descriptor, bool) {
	i, ok := c.byID[id]
	if !ok {
		return Descriptor{}, false
	}
	return c.relays[i], true
}

// Relays returns all descriptors sorted by ID (deterministic order).
func (c *Consensus) Relays() []Descriptor {
	out := make([]Descriptor, len(c.relays))
	copy(out, c.relays)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TotalBandwidth sums all relay bandwidths.
func (c *Consensus) TotalBandwidth() units.DataRate {
	var sum units.DataRate
	for _, d := range c.relays {
		sum += d.Bandwidth
	}
	return sum
}

// PickWeighted selects one relay holding all bits of flag,
// bandwidth-weighted as Tor does, excluding IDs in excl. It walks the
// consensus twice — once to sum the eligible weight, once to spend one
// draw over it — and allocates nothing.
func (c *Consensus) PickWeighted(rng *sim.RNG, flag Flag, excl map[netem.NodeID]bool) (Descriptor, error) {
	eligible := func(d *Descriptor) bool { return d.Flags.Has(flag) && !excl[d.ID] }
	var total int64
	last := -1
	for i := range c.relays {
		if eligible(&c.relays[i]) {
			total += c.relays[i].Bandwidth.BitsPerSecond()
			last = i
		}
	}
	if last < 0 {
		return Descriptor{}, ErrNoCandidates
	}
	x := rng.Int63n(total)
	for i := range c.relays[:last] {
		if d := &c.relays[i]; eligible(d) {
			if x -= d.Bandwidth.BitsPerSecond(); x < 0 {
				return *d, nil
			}
		}
	}
	return c.relays[last], nil
}

// SelectPath chooses a circuit path of nHops distinct relays: the first
// hop from Guard-flagged relays, the last from Exit-flagged, and the
// rest from Middle-flagged, all bandwidth-weighted.
func (c *Consensus) SelectPath(rng *sim.RNG, nHops int) ([]Descriptor, error) {
	return c.SelectPathExcluding(rng, nHops, nil)
}

// SelectPathExcluding is SelectPath with an additional exclusion set:
// no relay whose entry in excl is true is considered for any position
// (false-valued and non-consensus entries are ignored). Churn engines
// use it to rebuild circuits around failed relays.
func (c *Consensus) SelectPathExcluding(rng *sim.RNG, nHops int, excl map[netem.NodeID]bool) ([]Descriptor, error) {
	if nHops < 1 {
		return nil, errors.New("directory: path needs at least one hop")
	}
	used := make(map[netem.NodeID]bool, nHops+len(excl))
	excluded := 0
	for id, on := range excl {
		if !on {
			continue
		}
		used[id] = true
		if _, member := c.byID[id]; member {
			excluded++
		}
	}
	if nHops > len(c.relays)-excluded {
		return nil, ErrPathTooLong
	}
	path := make([]Descriptor, nHops)

	posFlag := func(i int) Flag {
		switch {
		case nHops == 1:
			return FlagExit
		case i == 0:
			return FlagGuard
		case i == nHops-1:
			return FlagExit
		default:
			return FlagMiddle
		}
	}
	// Choose exit first, as Tor does: exits are the scarce position.
	order := make([]int, 0, nHops)
	order = append(order, nHops-1)
	for i := 0; i < nHops-1; i++ {
		order = append(order, i)
	}
	for _, i := range order {
		d, err := c.PickWeighted(rng, posFlag(i), used)
		if err != nil {
			return nil, fmt.Errorf("directory: position %d (%v): %w", i, posFlag(i), err)
		}
		path[i] = d
		used[d.ID] = true
	}
	return path, nil
}
