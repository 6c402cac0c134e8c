package cell

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestConstantsConsistent(t *testing.T) {
	if headerSize+payloadSize != Size {
		t.Errorf("header %d + payload %d != %d", headerSize, payloadSize, Size)
	}
	if relayHeaderSize+MaxRelayData != payloadSize {
		t.Errorf("relay header %d + max data %d != payload %d",
			relayHeaderSize, MaxRelayData, payloadSize)
	}
	if Size != 512 {
		t.Errorf("cell size %d, want 512 (the paper's fixed cell size)", Size)
	}
}

func TestRelayRoundTrip(t *testing.T) {
	c := &Cell{Circ: 7}
	data := bytes.Repeat([]byte{0xAB}, 100)
	hdr := RelayHeader{
		Cmd:      RelayData,
		StreamID: 42,
		Digest:   [4]byte{1, 2, 3, 4},
	}
	if err := c.SetRelay(hdr, data); err != nil {
		t.Fatal(err)
	}
	if c.Cmd != CmdRelay {
		t.Errorf("Cmd = %v, want RELAY", c.Cmd)
	}
	got, gotData, err := c.Relay()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmd != RelayData || got.StreamID != 42 || got.Digest != hdr.Digest {
		t.Errorf("header = %+v", got)
	}
	if got.Length != 100 || !bytes.Equal(gotData, data) {
		t.Error("data mismatch")
	}
	if got.Recognized != 0 {
		t.Errorf("Recognized = %d, want 0", got.Recognized)
	}
}

func TestSetRelayZeroesTail(t *testing.T) {
	c := &Cell{}
	for i := range c.Payload {
		c.Payload[i] = 0xFF
	}
	if err := c.SetRelay(RelayHeader{Cmd: RelayData}, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	for i := relayHeaderSize + 2; i < payloadSize; i++ {
		if c.Payload[i] != 0 {
			t.Fatalf("payload[%d] = %#x, tail not zeroed", i, c.Payload[i])
		}
	}
}

func TestSetRelayTooLarge(t *testing.T) {
	c := &Cell{}
	err := c.SetRelay(RelayHeader{Cmd: RelayData}, make([]byte, MaxRelayData+1))
	if err != errDataTooLarge {
		t.Errorf("err = %v, want errDataTooLarge", err)
	}
}

func TestSetRelayMaxData(t *testing.T) {
	c := &Cell{}
	data := bytes.Repeat([]byte{9}, MaxRelayData)
	if err := c.SetRelay(RelayHeader{Cmd: RelayData}, data); err != nil {
		t.Fatal(err)
	}
	_, gotData, err := c.Relay()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotData, data) {
		t.Error("max-size data mismatch")
	}
}

func TestRelayBadLength(t *testing.T) {
	c := &Cell{}
	c.Payload[9] = 0xFF // length field high byte: way beyond MaxRelayData
	c.Payload[10] = 0xFF
	if _, _, err := c.Relay(); err != errBadRelayLen {
		t.Errorf("err = %v, want errBadRelayLen", err)
	}
}

func TestDigestFieldAccessors(t *testing.T) {
	c := &Cell{}
	c.SetRelay(RelayHeader{Cmd: RelayData, Digest: [4]byte{9, 8, 7, 6}}, nil)
	if got := c.PayloadDigestField(); got != [4]byte{9, 8, 7, 6} {
		t.Errorf("digest field = %v", got)
	}
	c.ZeroDigest()
	if got := c.PayloadDigestField(); got != [4]byte{} {
		t.Errorf("digest after ZeroDigest = %v", got)
	}
	c.SetDigest([4]byte{1, 1, 2, 3})
	if got := c.PayloadDigestField(); got != [4]byte{1, 1, 2, 3} {
		t.Errorf("digest after SetDigest = %v", got)
	}
}

func TestCommandStrings(t *testing.T) {
	cases := map[string]string{
		CmdRelay.String():         "RELAY",
		Command(99).String():      "Command(99)",
		RelayData.String():        "RELAY_DATA",
		RelaySendme.String():      "RELAY_SENDME",
		RelayCommand(77).String(): "RelayCommand(77)",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestCellString(t *testing.T) {
	c := &Cell{Circ: 3, Cmd: CmdRelay}
	if got := c.String(); got != "cell{circ=3 cmd=RELAY}" {
		t.Errorf("String() = %q", got)
	}
}

// Property: SetRelay → Relay returns exactly the data that was stored.
func TestPropertyRelayRoundTrip(t *testing.T) {
	f := func(cmd uint8, stream uint16, data []byte) bool {
		if len(data) > MaxRelayData {
			data = data[:MaxRelayData]
		}
		c := &Cell{}
		if err := c.SetRelay(RelayHeader{Cmd: RelayCommand(cmd), StreamID: stream}, data); err != nil {
			return false
		}
		hdr, got, err := c.Relay()
		if err != nil {
			return false
		}
		return hdr.Cmd == RelayCommand(cmd) && hdr.StreamID == stream && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
