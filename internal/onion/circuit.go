package onion

import (
	"errors"
	"fmt"
	"io"

	"circuitstart/internal/cell"
)

// CircuitCrypto is the client-side view of a circuit's layered keys:
// one HopKeys per relay, ordered from the first hop (guard) to the last
// (exit). The client encrypts forward cells with every layer (innermost
// = exit) and peels backward cells one layer per hop.
type CircuitCrypto struct {
	hops []*HopKeys
}

// errNotRecognized is returned when a backward cell fails to become
// recognized at any hop — in a healthy circuit this means corruption.
var errNotRecognized = errors.New("onion: backward cell not recognized at any hop")

// newCircuitCrypto assembles the client's layered state from per-hop
// keys (guard first).
func newCircuitCrypto(hops []*HopKeys) *CircuitCrypto {
	if len(hops) == 0 {
		panic("onion: circuit with zero hops")
	}
	return &CircuitCrypto{hops: hops}
}

// WrapForward seals a plaintext relay cell for the exit hop and applies
// every layer of forward encryption, outermost last. After WrapForward
// the cell is ready for the first hop.
func (cc *CircuitCrypto) WrapForward(c *cell.Cell) {
	exit := cc.hops[len(cc.hops)-1]
	exit.SealForward(c)
	for i := len(cc.hops) - 1; i >= 0; i-- {
		cc.hops[i].EncryptForward(c)
	}
}

// UnwrapBackward peels backward layers from a cell received from the
// first hop, one per hop, until it becomes recognized (recognized field
// zero and digest valid). It returns the index of the hop that
// originated the cell. In this implementation only the exit originates
// backward data, but the API supports leaky-pipe circuits as in Tor.
func (cc *CircuitCrypto) UnwrapBackward(c *cell.Cell) (int, error) {
	for i := 0; i < len(cc.hops); i++ {
		cc.hops[i].DecryptBackward(c)
		hdr, _, err := c.Relay()
		if err == nil && hdr.Recognized == 0 && cc.hops[i].VerifyBackward(c) {
			return i, nil
		}
	}
	return 0, errNotRecognized
}

// BuildCircuit performs the client side of key establishment with each
// relay identity in path order and returns the client's circuit crypto
// plus each relay's derived keys.
//
// The exchange itself is synchronous here: network cost of circuit
// construction is accounted separately by the simulation (see
// core.Config.BuildDelay), because the paper's evaluation starts from
// established circuits.
func BuildCircuit(rand io.Reader, relays []*Identity) (*CircuitCrypto, []*HopKeys, error) {
	if len(relays) == 0 {
		return nil, nil, errors.New("onion: BuildCircuit with empty path")
	}
	clientHops := make([]*HopKeys, len(relays))
	relayHops := make([]*HopKeys, len(relays))
	for i, id := range relays {
		ck, create, err := ClientHandshake(rand, id.Public())
		if err != nil {
			return nil, nil, fmt.Errorf("onion: hop %d handshake: %w", i, err)
		}
		rk, err := id.RelayHandshake(create)
		if err != nil {
			return nil, nil, fmt.Errorf("onion: hop %d responder: %w", i, err)
		}
		clientHops[i] = ck
		relayHops[i] = rk
	}
	return newCircuitCrypto(clientHops), relayHops, nil
}
