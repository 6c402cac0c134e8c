// Package spec is the one versioned JSON wire schema for everything
// submittable to the simulator: a base scenario (trace or generated
// population, including relay-population shape, workload size
// distribution, fault plan and relay scheduler/resource configuration)
// crossed with sweep dimensions. `circuitsim sweep -spec`, `circuitsim
// spec -validate` and the `circuitsim serve` HTTP body all parse
// through this package, so a grid means exactly the same thing on the
// command line and over the wire.
//
// The codec follows the faults.ParseSpec contract, promoted to the
// whole surface: a version field (omitted = 1), DisallowUnknownFields
// so typos fail loudly, and eager validation that names the offending
// entry — a bad spec is rejected at parse time, never inside a worker.
// Parse canonicalizes in place (defaults filled, fault plans re-encoded
// through faults.MarshalSpec), which makes Marshal a fixed point:
// Marshal(Parse(x)) == Marshal(Parse(Marshal(Parse(x)))) for every
// valid x — the property the serve daemon's content-addressed point
// cache is keyed on.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"circuitstart/internal/faults"
	"circuitstart/internal/relay"
	"circuitstart/internal/resource"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// Version is the current (and only) spec schema version. A spec that
// omits the field gets it; any other value is rejected.
const Version = 1

// File is one complete submittable grid: a versioned envelope around a
// base scenario and its sweep dimensions.
type File struct {
	// Version is the schema version (omitted = 1).
	Version int `json:"version"`
	// Name labels the sweep in summaries and row metadata.
	Name string `json:"name"`
	// Seed is nullable so an explicit 0 is honoured; omitting the
	// field selects the default 42.
	Seed       *int64 `json:"seed"`
	Base       Base   `json:"base"`
	Dimensions []Dim  `json:"dimensions"`
	// Sample caps the grid to a seeded sample of this many points.
	Sample     int   `json:"sample,omitempty"`
	SampleSeed int64 `json:"sample_seed,omitempty"`
}

// Base describes the scenario every grid point starts from. Kind
// selects the family; fields that do not apply to the selected kind are
// rejected by name.
type Base struct {
	// Kind selects the base scenario: "trace" (default; the paper's
	// single-circuit bottleneck topology) or "population" (a generated
	// Tor-like relay population).
	Kind string `json:"kind"`
	// Arms are the base policy arms (default ["circuitstart"]).
	Arms []string `json:"arms"`
	// Hops is the relays per circuit (trace: also the path length).
	Hops int `json:"hops"`
	// Distance is the trace base's bottleneck distance in hops.
	Distance int `json:"distance,omitempty"`
	// HorizonSec bounds each trial's virtual time (population default
	// 600; trace default: the trace preset's own horizon).
	HorizonSec float64 `json:"horizon_sec,omitempty"`

	// Population shape (kind "population" only).
	Relays     int         `json:"relays,omitempty"`
	Population *Population `json:"population,omitempty"`
	Circuits   int         `json:"circuits,omitempty"`
	// Switches homes the population behind a backbone ring of this
	// many switches (0 = star).
	Switches  int   `json:"switches,omitempty"`
	SizeBytes int64 `json:"size_bytes,omitempty"`
	// SizeDist draws per-circuit transfer sizes from a distribution
	// instead of the scalar SizeBytes (workload.ParseSizeDist form,
	// e.g. "lognormal:500000:0.8"). Mutually exclusive with SizeBytes.
	SizeDist string `json:"size_dist,omitempty"`
	// Download runs transfers server → client through the onion.
	Download bool `json:"download,omitempty"`
	// SpreadMs is the uniform start stagger window; nullable so an
	// explicit 0 (simultaneous arrivals) is honoured; omitting the
	// field selects the default 200 ms stagger.
	SpreadMs *float64 `json:"spread_ms,omitempty"`
	// PoissonRate switches to open-loop Poisson arrivals at this mean
	// rate per second. Mutually exclusive with a nonzero SpreadMs.
	PoissonRate float64 `json:"poisson_rate,omitempty"`

	// Engine shape (either kind).
	Train  int `json:"train,omitempty"`
	Shards int `json:"shards,omitempty"`

	// Relay configuration, applied to every arm (either kind).
	Scheduler      string `json:"scheduler,omitempty"`
	MaxCircuits    int    `json:"max_circuits,omitempty"`
	MaxMemoryBytes int64  `json:"max_memory_bytes,omitempty"`
	// KillPolicy selects the behaviour at the caps ("reject-new",
	// "kill-oldest" or "kill-heaviest").
	KillPolicy string `json:"kill_policy,omitempty"`

	// Faults names a fault preset (see faults.PresetNames), rendered
	// against each point's own topology. FaultPlan embeds an explicit
	// plan in the faults.ParseSpec wire form instead. At most one.
	Faults    string          `json:"faults,omitempty"`
	FaultPlan json.RawMessage `json:"fault_plan,omitempty"`
}

// Population overrides the generated relay population's shape
// (defaults: workload.DefaultRelayParams).
type Population struct {
	MedianMbps    float64 `json:"median_mbps,omitempty"`
	Sigma         float64 `json:"sigma,omitempty"`
	MinMbps       float64 `json:"min_mbps,omitempty"`
	MaxMbps       float64 `json:"max_mbps,omitempty"`
	DelayMinMs    float64 `json:"delay_min_ms,omitempty"`
	DelayMaxMs    float64 `json:"delay_max_ms,omitempty"`
	QueueCapBytes int64   `json:"queue_cap_bytes,omitempty"`
	GuardFrac     float64 `json:"guard_frac,omitempty"`
	ExitFrac      float64 `json:"exit_frac,omitempty"`
}

// Dim is one sweep axis. Exactly one list must be set per block; the
// grid is the cross product of the blocks in order (last varies
// fastest).
type Dim struct {
	Gammas         []float64 `json:"gammas,omitempty"`
	Policies       []string  `json:"policies,omitempty"`
	BandwidthsMbps []float64 `json:"bandwidths_mbps,omitempty"`
	HopCounts      []int     `json:"hopcounts,omitempty"`
	SizesBytes     []int64   `json:"sizes_bytes,omitempty"`
	SizeDists      []string  `json:"size_dists,omitempty"`
	Counts         []int     `json:"counts,omitempty"`
	Trains         []int     `json:"trains,omitempty"`
	ShardCounts    []int     `json:"shardcounts,omitempty"`
	Faults         []string  `json:"faults,omitempty"`
	Schedulers     []string  `json:"schedulers,omitempty"`
	Seeds          []int64   `json:"seeds,omitempty"`
}

// Parse decodes, validates and canonicalizes a spec. Unknown fields,
// version mismatches, fields that do not apply to the base kind,
// malformed distributions / fault plans / dimension values are all
// rejected here with errors naming the offending entry. The returned
// File has every default filled, so Marshal of it is canonical.
func Parse(data []byte) (*File, error) {
	var f File
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing content after the grid object")
	}
	if err := f.normalize(); err != nil {
		return nil, err
	}
	// Eagerly render the sweep: the fully composed base scenario and
	// then every dimension value are validated now, not inside a worker.
	base, err := f.Base.scenario(f.Name, *f.Seed)
	if err != nil {
		return nil, err
	}
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("spec: base: %w", err)
	}
	sw, err := f.grid(base)
	if err != nil {
		return nil, err
	}
	if err := sw.Validate(); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := f.checkSharded(base, sw); err != nil {
		return nil, err
	}
	return &f, nil
}

// Marshal renders a parsed File in canonical indented form. For any
// valid input x, Marshal(Parse(x)) is a fixed point of Parse∘Marshal.
func Marshal(f *File) ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return append(data, '\n'), nil
}

// normalize fills defaults in place and validates everything that does
// not require rendering the sweep.
func (f *File) normalize() error {
	if f.Version == 0 {
		f.Version = Version
	}
	if f.Version != Version {
		return fmt.Errorf("spec: unsupported version %d (this build speaks version %d)", f.Version, Version)
	}
	if f.Name == "" {
		f.Name = "spec-sweep"
	}
	if f.Seed == nil {
		seed := int64(42)
		f.Seed = &seed
	}
	if f.Sample < 0 {
		return fmt.Errorf("spec: negative sample %d", f.Sample)
	}
	if err := f.Base.normalize(); err != nil {
		return err
	}
	// A sampled path needs as many distinct relays as it has hops; a
	// hopcounts axis replaces base.hops on every point, and its row
	// checks its own values.
	hopAxis := slices.ContainsFunc(f.Dimensions, func(d Dim) bool { return len(d.HopCounts) > 0 })
	if b := f.Base; b.Kind == "population" && b.Relays > 0 && b.Hops > b.Relays && !hopAxis {
		return fmt.Errorf("spec: base.hops %d exceeds base.relays %d", b.Hops, b.Relays)
	}
	return nil
}

func (b *Base) normalize() error {
	if b.Kind == "" {
		b.Kind = "trace"
	}
	if len(b.Arms) == 0 {
		b.Arms = []string{"circuitstart"}
	}
	if b.Hops == 0 {
		b.Hops = 3
	}
	switch b.Kind {
	case "trace":
		for field, set := range map[string]bool{
			"relays":       b.Relays != 0,
			"population":   b.Population != nil,
			"circuits":     b.Circuits != 0,
			"switches":     b.Switches != 0,
			"size_bytes":   b.SizeBytes != 0,
			"size_dist":    b.SizeDist != "",
			"download":     b.Download,
			"spread_ms":    b.SpreadMs != nil,
			"poisson_rate": b.PoissonRate != 0,
		} {
			if set {
				return fmt.Errorf("spec: base.%s does not apply to the trace base", field)
			}
		}
		if b.Distance == 0 {
			b.Distance = 3
			if b.Distance > b.Hops {
				b.Distance = b.Hops
			}
		}
		if b.Distance < 1 || b.Distance > b.Hops {
			return fmt.Errorf("spec: base.distance %d outside 1..%d", b.Distance, b.Hops)
		}
	case "population":
		if b.Distance != 0 {
			return fmt.Errorf("spec: base.distance applies only to the trace base")
		}
		if b.Relays == 0 {
			b.Relays = 40
		}
		if b.Circuits == 0 {
			b.Circuits = 50
		}
		if b.SizeDist != "" {
			if b.SizeBytes != 0 {
				return fmt.Errorf("spec: base.size_bytes and base.size_dist are mutually exclusive")
			}
			d, err := workload.ParseSizeDist(b.SizeDist)
			if err != nil {
				return fmt.Errorf("spec: base.size_dist: %w", err)
			}
			b.SizeDist = d.Label()
		} else if b.SizeBytes == 0 {
			b.SizeBytes = 500_000
		}
		if b.HorizonSec == 0 {
			b.HorizonSec = 600
		}
		if b.PoissonRate < 0 {
			return fmt.Errorf("spec: negative base.poisson_rate %g", b.PoissonRate)
		}
		if b.PoissonRate > 0 {
			if b.SpreadMs != nil && *b.SpreadMs != 0 {
				return fmt.Errorf("spec: base.spread_ms and base.poisson_rate are mutually exclusive")
			}
			b.SpreadMs = nil
		} else if b.SpreadMs == nil {
			spread := 200.0
			b.SpreadMs = &spread
		}
		if b.SpreadMs != nil && *b.SpreadMs < 0 {
			return fmt.Errorf("spec: negative base.spread_ms %g", *b.SpreadMs)
		}
	default:
		return fmt.Errorf("spec: unknown base.kind %q (want trace or population)", b.Kind)
	}
	if b.HorizonSec < 0 {
		return fmt.Errorf("spec: negative base.horizon_sec %g", b.HorizonSec)
	}
	if b.Train < 0 {
		return fmt.Errorf("spec: negative base.train %d", b.Train)
	}
	if b.Shards < 0 {
		return fmt.Errorf("spec: negative base.shards %d", b.Shards)
	}
	if _, err := b.relayConfig(); err != nil {
		return err
	}
	if b.Faults != "" && len(b.FaultPlan) > 0 {
		return fmt.Errorf("spec: base.faults and base.fault_plan are mutually exclusive")
	}
	if b.Faults != "" {
		if _, err := faults.Preset(b.Faults, nil); err != nil {
			return fmt.Errorf("spec: base.faults: %w", err)
		}
	}
	if len(b.FaultPlan) > 0 {
		plan, err := faults.ParseSpec(b.FaultPlan)
		if err != nil {
			return fmt.Errorf("spec: base.fault_plan: %w", err)
		}
		canonical, err := faults.MarshalSpec(plan)
		if err != nil {
			return fmt.Errorf("spec: base.fault_plan: %w", err)
		}
		b.FaultPlan = canonical
	}
	return nil
}

// relayConfig renders the base's scheduler/resource fields into the
// per-arm relay configuration, validating the names.
func (b *Base) relayConfig() (relay.Config, error) {
	policy, err := resource.PolicyByName(b.KillPolicy)
	if err != nil {
		return relay.Config{}, fmt.Errorf("spec: base.kill_policy: %w", err)
	}
	if b.MaxCircuits < 0 {
		return relay.Config{}, fmt.Errorf("spec: negative base.max_circuits %d", b.MaxCircuits)
	}
	if b.MaxMemoryBytes < 0 {
		return relay.Config{}, fmt.Errorf("spec: negative base.max_memory_bytes %d", b.MaxMemoryBytes)
	}
	cfg := relay.Config{
		Scheduler: b.Scheduler,
		Limits: resource.Limits{
			MaxCircuits: b.MaxCircuits,
			MaxMemory:   units.DataSize(b.MaxMemoryBytes),
			Policy:      policy,
		},
	}
	if err := cfg.Validate(); err != nil {
		return relay.Config{}, fmt.Errorf("spec: base.scheduler: %w", err)
	}
	return cfg, nil
}

// relayParams renders the population block over the workload defaults.
func (b *Base) relayParams() workload.RelayParams {
	p := workload.DefaultRelayParams(b.Relays)
	if pop := b.Population; pop != nil {
		if pop.MedianMbps > 0 {
			p.BandwidthMedian = units.Mbps(pop.MedianMbps)
		}
		if pop.Sigma > 0 {
			p.BandwidthSigma = pop.Sigma
		}
		if pop.MinMbps > 0 {
			p.MinBandwidth = units.Mbps(pop.MinMbps)
		}
		if pop.MaxMbps > 0 {
			p.MaxBandwidth = units.Mbps(pop.MaxMbps)
		}
		if pop.DelayMinMs > 0 {
			p.DelayMin = millis(pop.DelayMinMs)
		}
		if pop.DelayMaxMs > 0 {
			p.DelayMax = millis(pop.DelayMaxMs)
		}
		if pop.QueueCapBytes > 0 {
			p.QueueCap = units.DataSize(pop.QueueCapBytes)
		}
		if pop.GuardFrac > 0 {
			p.GuardFrac = pop.GuardFrac
		}
		if pop.ExitFrac > 0 {
			p.ExitFrac = pop.ExitFrac
		}
	}
	return p
}

// BaseHash is the canonical content hash of the fully-resolved base —
// the sweep identity with the grid stripped: name, dimensions and
// sampling do not contribute, so two sweeps over the same base share
// cached points no matter how their grids differ. Call only on a
// parsed (canonicalized) File.
func (f *File) BaseHash() (string, error) {
	stripped := *f
	stripped.Name = ""
	stripped.Dimensions = nil
	stripped.Sample = 0
	stripped.SampleSeed = 0
	data, err := json.Marshal(&stripped)
	if err != nil {
		return "", fmt.Errorf("spec: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// PointKey is the content-addressed identity of one grid point: the
// base hash plus the ordered (dimension, coordinate) pairs. Two
// submissions whose grids overlap produce identical keys for the
// shared points — the serve daemon's cache is keyed on exactly this.
func PointKey(baseHash string, dims, coords []string) string {
	h := sha256.New()
	h.Write([]byte(baseHash))
	for i, d := range dims {
		h.Write([]byte{0})
		h.Write([]byte(d))
		h.Write([]byte{'='})
		if i < len(coords) {
			h.Write([]byte(coords[i]))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
