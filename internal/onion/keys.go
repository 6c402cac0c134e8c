// Package onion implements the cryptographic core of onion routing:
// per-hop key establishment (X25519), key derivation (SHA-256 based,
// after Tor's KDF-TOR), layered AES-CTR encryption, and the per-hop
// running digest that lets the final hop recognize and authenticate
// fully-peeled relay cells.
//
// Congestion behaviour — the paper's subject — does not depend on
// cryptography, but the data path of a faithful reproduction does: every
// cell a relay forwards is really decrypted/encrypted one layer, and the
// exit verifies integrity. This keeps the simulated relays honest about
// per-cell work and makes the substrate reusable.
package onion

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"

	"circuitstart/internal/cell"
)

// Key sizes.
const (
	// KeyLen is the AES-128 key length used for layer ciphers.
	KeyLen = 16
	// IVLen is the AES-CTR IV length.
	IVLen = aes.BlockSize
	// DigestSeedLen seeds each direction's running digest.
	DigestSeedLen = 20
)

// Identity is a relay's long-term X25519 identity used in handshakes.
type Identity struct {
	priv *ecdh.PrivateKey
}

// newPrivateKey builds an X25519 key from exactly 32 bytes of rand, so a
// seeded reader yields the same key on every run. ecdh's GenerateKey
// does not: it first consumes a byte from the reader at random
// (randutil.MaybeReadByte), shifting a deterministic stream.
func newPrivateKey(rand io.Reader) (*ecdh.PrivateKey, error) {
	var seed [32]byte
	if _, err := io.ReadFull(rand, seed[:]); err != nil {
		return nil, err
	}
	return ecdh.X25519().NewPrivateKey(seed[:])
}

// NewIdentity generates a relay identity from the given entropy source.
func NewIdentity(rand io.Reader) (*Identity, error) {
	priv, err := newPrivateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("onion: generating identity: %w", err)
	}
	return &Identity{priv: priv}, nil
}

// Public returns the identity's public key bytes (32 bytes).
func (id *Identity) Public() []byte { return id.priv.PublicKey().Bytes() }

// HopKeys is one side's directional key material for a single hop:
// a forward cipher (client → exit direction), a backward cipher, and
// running digests for each direction.
//
// The scratch fields make the per-cell operations (Seal*, Verify*)
// allocation-free in steady state: sum receives hash.Sum output, snap
// holds the serialized running-digest state a verification must be able
// to roll back to. Both retain their capacity across cells.
type HopKeys struct {
	fwd, bwd cipher.Stream
	fwdDig   hash.Hash
	bwdDig   hash.Hash

	sum  []byte // scratch for hash.Sum (cap sha256.Size after first use)
	snap []byte // scratch for the pre-verify digest-state snapshot
}

// kdf expands a shared secret plus context into derived key material,
// following the spirit of Tor's KDF-TOR: K = H(secret | ctx | 0) |
// H(secret | ctx | 1) | ...
func kdf(secret, ctx []byte, n int) []byte {
	out := make([]byte, 0, n)
	var counter byte
	for len(out) < n {
		h := sha256.New()
		h.Write(secret)
		h.Write(ctx)
		h.Write([]byte{counter})
		out = h.Sum(out)
		counter++
	}
	return out[:n]
}

// deriveHopKeys builds the directional ciphers and digests from a shared
// secret. Both sides of a handshake call this with identical inputs and
// obtain identical state.
func deriveHopKeys(secret, ctx []byte) (*HopKeys, error) {
	const need = 2*KeyLen + 2*IVLen + 2*DigestSeedLen
	km := kdf(secret, ctx, need)
	fk, km := km[:KeyLen], km[KeyLen:]
	bk, km := km[:KeyLen], km[KeyLen:]
	fiv, km := km[:IVLen], km[IVLen:]
	biv, km := km[:IVLen], km[IVLen:]
	fds, km := km[:DigestSeedLen], km[DigestSeedLen:]
	bds := km[:DigestSeedLen]

	fc, err := aes.NewCipher(fk)
	if err != nil {
		return nil, err
	}
	bc, err := aes.NewCipher(bk)
	if err != nil {
		return nil, err
	}
	hk := &HopKeys{
		fwd:    cipher.NewCTR(fc, fiv),
		bwd:    cipher.NewCTR(bc, biv),
		fwdDig: sha256.New(),
		bwdDig: sha256.New(),
	}
	hk.fwdDig.Write(fds)
	hk.bwdDig.Write(bds)
	return hk, nil
}

// Handshake errors.
var (
	ErrBadHandshake = errors.New("onion: malformed handshake message")
)

// ClientHandshake initiates key establishment with a relay identified by
// relayPub. It returns the client's hop keys and the CREATE payload to
// send to the relay (the client's ephemeral public key).
func ClientHandshake(rand io.Reader, relayPub []byte) (*HopKeys, []byte, error) {
	eph, err := newPrivateKey(rand)
	if err != nil {
		return nil, nil, fmt.Errorf("onion: ephemeral key: %w", err)
	}
	rp, err := ecdh.X25519().NewPublicKey(relayPub)
	if err != nil {
		return nil, nil, fmt.Errorf("onion: relay public key: %w", err)
	}
	secret, err := eph.ECDH(rp)
	if err != nil {
		return nil, nil, fmt.Errorf("onion: ECDH: %w", err)
	}
	ctx := append(append([]byte{}, eph.PublicKey().Bytes()...), relayPub...)
	keys, err := deriveHopKeys(secret, ctx)
	if err != nil {
		return nil, nil, err
	}
	return keys, eph.PublicKey().Bytes(), nil
}

// RelayHandshake is the responder side: given the CREATE payload
// (client's ephemeral public key), it derives the same hop keys.
func (id *Identity) RelayHandshake(createPayload []byte) (*HopKeys, error) {
	if len(createPayload) != 32 {
		return nil, ErrBadHandshake
	}
	cp, err := ecdh.X25519().NewPublicKey(createPayload)
	if err != nil {
		return nil, ErrBadHandshake
	}
	secret, err := id.priv.ECDH(cp)
	if err != nil {
		return nil, fmt.Errorf("onion: ECDH: %w", err)
	}
	ctx := append(append([]byte{}, createPayload...), id.Public()...)
	return deriveHopKeys(secret, ctx)
}

// EncryptForward applies this hop's forward cipher to the cell payload
// in place (one onion layer).
func (k *HopKeys) EncryptForward(c *cell.Cell) { k.fwd.XORKeyStream(c.Payload[:], c.Payload[:]) }

// DecryptForward removes this hop's forward layer in place. AES-CTR is
// an involution under the same keystream, but the relay and client hold
// independent stream states, so encrypt/decrypt are distinct calls that
// must each observe every cell exactly once, in order.
func (k *HopKeys) DecryptForward(c *cell.Cell) { k.fwd.XORKeyStream(c.Payload[:], c.Payload[:]) }

// EncryptBackward applies this hop's backward cipher in place.
func (k *HopKeys) EncryptBackward(c *cell.Cell) { k.bwd.XORKeyStream(c.Payload[:], c.Payload[:]) }

// DecryptBackward removes this hop's backward layer in place.
func (k *HopKeys) DecryptBackward(c *cell.Cell) { k.bwd.XORKeyStream(c.Payload[:], c.Payload[:]) }

// SealForward computes and stores the running digest for a plaintext
// relay payload about to be sent forward by the endpoint that owns the
// innermost layer relationship with this hop (the sender side of the
// forward digest). Must be called before encryption, on the plaintext.
func (k *HopKeys) SealForward(c *cell.Cell) {
	k.seal(k.fwdDig, c)
}

// VerifyForward checks a fully-decrypted forward cell's digest at the
// recognizing hop. It must be called on the plaintext, and it advances
// the running digest state on success. On failure the digest state is
// unchanged and false is returned.
func (k *HopKeys) VerifyForward(c *cell.Cell) bool {
	return k.verify(k.fwdDig, c)
}

// SealBackward is SealForward for the backward direction.
func (k *HopKeys) SealBackward(c *cell.Cell) {
	k.seal(k.bwdDig, c)
}

// VerifyBackward is VerifyForward for the backward direction.
func (k *HopKeys) VerifyBackward(c *cell.Cell) bool {
	return k.verify(k.bwdDig, c)
}

// seal computes the digest of the payload (with a zeroed digest field)
// under the running hash, stores it, and advances the running state.
// The sum lands in the reusable scratch, so sealing allocates nothing.
func (k *HopKeys) seal(h hash.Hash, c *cell.Cell) {
	c.ZeroDigest()
	h.Write(c.Payload[:])
	k.sum = h.Sum(k.sum[:0])
	var d [4]byte
	copy(d[:], k.sum[:4])
	c.SetDigest(d)
}

// verify recomputes the digest the sender would have stored. The running
// state is snapshotted into the reusable scratch first; the payload
// (digest field zeroed) then advances the real state, which is rolled
// back from the snapshot if the digest does not match. Steady state
// (matching digests, a Go 1.24+ runtime) allocates nothing.
func (k *HopKeys) verify(h hash.Hash, c *cell.Cell) bool {
	want := c.PayloadDigestField()
	c.ZeroDigest()

	k.snap = snapshotHash(h, k.snap[:0])
	h.Write(c.Payload[:])
	k.sum = h.Sum(k.sum[:0])
	var got [4]byte
	copy(got[:], k.sum[:4])
	if got != want {
		// Roll back the running state.
		type restorer interface{ UnmarshalBinary([]byte) error }
		if err := h.(restorer).UnmarshalBinary(k.snap); err != nil {
			panic(fmt.Sprintf("onion: restoring digest state: %v", err))
		}
		c.SetDigest(want) // leave the cell as we found it
		return false
	}
	c.SetDigest(want)
	return true
}

// snapshotHash serializes a hash's running state into buf. It prefers
// the allocation-free AppendBinary (encoding.BinaryAppender, implemented
// by the SHA-256 state from Go 1.24) and falls back to MarshalBinary on
// older runtimes.
func snapshotHash(h hash.Hash, buf []byte) []byte {
	if a, ok := h.(interface {
		AppendBinary([]byte) ([]byte, error)
	}); ok {
		out, err := a.AppendBinary(buf)
		if err != nil {
			panic(fmt.Sprintf("onion: digest state not serializable: %v", err))
		}
		return out
	}
	m, ok := h.(interface{ MarshalBinary() ([]byte, error) })
	if !ok {
		panic("onion: digest state not serializable")
	}
	out, err := m.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("onion: digest state not serializable: %v", err))
	}
	return append(buf, out...)
}
