package resource

import (
	"testing"

	"circuitstart/internal/cell"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

func TestPolicyByName(t *testing.T) {
	cases := []struct {
		name string
		want Policy
		ok   bool
	}{
		{"", RejectNew, true},
		{"reject-new", RejectNew, true},
		{"kill-oldest", KillOldest, true},
		{"kill-heaviest", KillHeaviest, true},
		{"banish", 0, false},
	}
	for _, c := range cases {
		got, err := PolicyByName(c.name)
		if c.ok != (err == nil) {
			t.Fatalf("PolicyByName(%q) err = %v, want ok=%v", c.name, err, c.ok)
		}
		if err == nil && got != c.want {
			t.Fatalf("PolicyByName(%q) = %v, want %v", c.name, got, c.want)
		}
		if err == nil && got.String() != c.name && c.name != "" {
			t.Fatalf("Policy %v round-trips to %q, want %q", got, got.String(), c.name)
		}
	}
}

func TestLimitsValidateAndLabel(t *testing.T) {
	if (Limits{}).Enabled() {
		t.Fatal("zero Limits reports enabled")
	}
	if got := (Limits{}).Label(); got != "unlimited" {
		t.Fatalf("zero Limits label %q", got)
	}
	l := Limits{MaxCircuits: 64, MaxMemory: 256 * units.Kilobyte, Policy: KillOldest}
	if !l.Enabled() {
		t.Fatal("capped Limits reports disabled")
	}
	if got := l.Label(); got != "c64/m256.00kB/kill-oldest" {
		t.Fatalf("label = %q", got)
	}
	bad := []Limits{
		{MaxCircuits: -1},
		{MaxMemory: -1},
		{Policy: Policy(9)},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Fatalf("case %d: %+v validated", i, l)
		}
	}
}

func TestStatsMerge(t *testing.T) {
	s := Stats{Admitted: 1, Rejected: 2, Killed: 3, MemHighWater: 100}
	s.Merge(Stats{Admitted: 10, Rejected: 20, Killed: 30, MemHighWater: 50})
	want := Stats{Admitted: 11, Rejected: 22, Killed: 33, MemHighWater: 100}
	if s != want {
		t.Fatalf("merged = %+v, want %+v", s, want)
	}
	s.Merge(Stats{MemHighWater: 500})
	if s.MemHighWater != 500 {
		t.Fatalf("high-water after merge = %v, want 500", s.MemHighWater)
	}
}

// killLog installs a kill callback that records victims in order and
// releases them, the way core.Network's teardown does.
func killLog(m *Manager) *[]cell.CircID {
	var killed []cell.CircID
	m.OnKill(func(circ cell.CircID) {
		killed = append(killed, circ)
		m.Release(circ)
	})
	return &killed
}

func TestAdmitRejectNew(t *testing.T) {
	m := NewManager(sim.NewClock(), Limits{MaxCircuits: 2})
	if !m.Admit(1) || !m.Admit(2) {
		t.Fatal("admission under the cap refused")
	}
	if m.Admit(3) {
		t.Fatal("admission at the cap accepted under reject-new")
	}
	if got := m.Stats(); got.Admitted != 2 || got.Rejected != 1 || got.Killed != 0 {
		t.Fatalf("stats = %+v", got)
	}
	m.Release(1)
	if !m.Admit(3) {
		t.Fatal("admission refused after a release made room")
	}
	if len(m.circuits) != 2 {
		t.Fatalf("%d circuits admitted, want 2", len(m.circuits))
	}
}

func TestAdmitKillOldest(t *testing.T) {
	m := NewManager(sim.NewClock(), Limits{MaxCircuits: 2, Policy: KillOldest})
	killed := killLog(m)
	m.Admit(1)
	m.Admit(2)
	if !m.Admit(3) {
		t.Fatal("kill-oldest refused the newcomer")
	}
	if len(*killed) != 1 || (*killed)[0] != 1 {
		t.Fatalf("killed %v, want [1]", *killed)
	}
	if !m.Admit(4) {
		t.Fatal("second newcomer refused")
	}
	if len(*killed) != 2 || (*killed)[1] != 2 {
		t.Fatalf("killed %v, want [1 2]", *killed)
	}
	if got := m.Stats(); got.Killed != 2 || got.Rejected != 0 || got.Admitted != 4 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestAdmitKillHeaviest(t *testing.T) {
	m := NewManager(sim.NewClock(), Limits{MaxCircuits: 2, Policy: KillHeaviest})
	killed := killLog(m)
	m.Admit(1)
	m.Admit(2)
	m.Held(2, 5)
	m.Held(1, 3)
	if !m.Admit(3) {
		t.Fatal("kill-heaviest refused the newcomer")
	}
	if len(*killed) != 1 || (*killed)[0] != 2 {
		t.Fatalf("killed %v, want [2] (heaviest)", *killed)
	}
	// Ties break to the oldest admission: 1 (3 cells) vs 3 (3 cells).
	m.Held(3, 3)
	if !m.Admit(4) {
		t.Fatal("tied newcomer refused")
	}
	if len(*killed) != 2 || (*killed)[1] != 1 {
		t.Fatalf("killed %v, want [2 1] (tie to oldest)", *killed)
	}
}

func TestAdmitKillPolicyWithoutCallbackRejects(t *testing.T) {
	m := NewManager(sim.NewClock(), Limits{MaxCircuits: 1, Policy: KillOldest})
	m.Admit(1)
	if m.Admit(2) {
		t.Fatal("kill policy with no OnKill callback admitted past the cap")
	}
	if got := m.Stats(); got.Rejected != 1 || got.Killed != 0 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestHeldTracksHighWater(t *testing.T) {
	m := NewManager(sim.NewClock(), Limits{MaxMemory: 100 * cell.Size})
	m.Admit(1)
	m.Held(1, 7)
	if got := m.heldMemory(); got != 7*cell.Size {
		t.Fatalf("held = %v, want %v", got, units.DataSize(7*cell.Size))
	}
	m.Held(1, -4)
	if got := m.Stats().MemHighWater; got != 7*cell.Size {
		t.Fatalf("high-water = %v after drain, want %v", got, units.DataSize(7*cell.Size))
	}
	m.Release(1)
	if got := m.heldMemory(); got != 0 {
		t.Fatalf("held = %v after release, want 0", got)
	}
}

// TestMemoryKillDeferred pins the re-entrancy contract: a breach
// reported through Held does not kill synchronously — the eviction
// fires through the clock at delay 0.
func TestMemoryKillDeferred(t *testing.T) {
	clock := sim.NewClock()
	m := NewManager(clock, Limits{MaxMemory: 2 * cell.Size})
	killed := killLog(m)
	m.Admit(1)
	m.Held(1, 3) // breach: 3 cells > 2-cell cap
	if len(*killed) != 0 {
		t.Fatalf("kill fired synchronously inside Held: %v", *killed)
	}
	clock.Run()
	if len(*killed) != 1 || (*killed)[0] != 1 {
		t.Fatalf("killed %v after clock run, want [1]", *killed)
	}
	if got := m.Stats(); got.Killed != 1 {
		t.Fatalf("stats = %+v", got)
	}
}

// TestMemoryKillRejectNewKillsBreacher: under reject-new the circuit
// whose cell caused the breach is the victim, not the heaviest.
func TestMemoryKillRejectNewKillsBreacher(t *testing.T) {
	clock := sim.NewClock()
	m := NewManager(clock, Limits{MaxMemory: 5 * cell.Size})
	killed := killLog(m)
	m.Admit(1)
	m.Admit(2)
	m.Held(1, 4) // heaviest, but under the cap
	m.Held(2, 2) // pushes the total to 6 cells: circuit 2 is the breacher
	clock.Run()
	if len(*killed) != 1 || (*killed)[0] != 2 {
		t.Fatalf("killed %v, want breacher [2]", *killed)
	}
	if got := m.heldMemory(); got != 4*cell.Size {
		t.Fatalf("held = %v after kill, want %v", got, units.DataSize(4*cell.Size))
	}
}

// TestMemoryKillPolicyEvictsUntilUnderCap: a kill policy sheds the
// heaviest/oldest circuits until memory is back under the cap, even
// when one eviction is not enough.
func TestMemoryKillPolicyEvictsUntilUnderCap(t *testing.T) {
	clock := sim.NewClock()
	m := NewManager(clock, Limits{MaxMemory: 3 * cell.Size, Policy: KillHeaviest})
	killed := killLog(m)
	m.Admit(1)
	m.Admit(2)
	m.Admit(3)
	m.Held(1, 3)
	m.Held(2, 3)
	m.Held(3, 2) // total 8 cells > 3-cell cap
	clock.Run()
	// Heaviest first (1 and 2 tie at 3 cells, oldest wins), then 2;
	// circuit 3's 2 cells fit the cap.
	if len(*killed) != 2 || (*killed)[0] != 1 || (*killed)[1] != 2 {
		t.Fatalf("killed %v, want [1 2]", *killed)
	}
	if len(m.circuits) != 1 || m.heldMemory() != 2*cell.Size {
		t.Fatalf("left %d circuits holding %v", len(m.circuits), m.heldMemory())
	}
}

func TestReleaseUnknownCircuitIgnored(t *testing.T) {
	m := NewManager(sim.NewClock(), Limits{MaxCircuits: 1})
	m.Release(99)
	m.Held(99, 3)
	if m.heldMemory() != 0 || len(m.circuits) != 0 {
		t.Fatal("unknown circuit affected accounting")
	}
}
