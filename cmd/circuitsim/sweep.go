package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"circuitstart/internal/spec"
	"circuitstart/internal/sweep"
)

// runSweep drives the declarative grid engine from the command line: a
// base scenario (the single-circuit trace topology or a generated
// relay population) crossed with the dimension flags, or an arbitrary
// grid from a versioned spec file (internal/spec — the same schema the
// serve daemon accepts). Per-point rows stream to -out (CSV or JSON
// lines, by extension); the in-memory table's summary prints to
// stdout. Grid order — and therefore the output bytes — is identical
// for any -workers value. With -remote the sweep executes on a
// `circuitsim serve` daemon instead, with byte-identical outputs.
func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	specPath := fs.String("spec", "", "JSON grid spec file (overrides the flag-built grid; see DESIGN.md)")
	gridSpec := defineGridFlags(fs)
	resume := fs.Int("resume", 0, "skip grid points with index below this (append to a prior -out)")
	workers := fs.Int("workers", 0, "concurrent grid points (0 = one per CPU)")
	pointWorkers := fs.Int("point-workers", 0, "worker pool per point's runner (0 = 1)")
	remote := fs.String("remote", "", "run on a circuitsim serve daemon at this base URL instead of in-process")
	outPath := fs.String("out", "", "stream per-point rows to this file (.csv or .jsonl)")
	format := fs.String("format", "", "output format: csv | jsonl (default: by -out extension)")
	stopProfiles, err := parseProfiled(fs, args)
	if err != nil {
		return err
	}
	defer stopProfiles()

	var file *spec.File
	if *specPath != "" {
		data, rerr := os.ReadFile(*specPath)
		if rerr != nil {
			return rerr
		}
		file, err = spec.Parse(data)
	} else {
		file, err = gridSpec()
	}
	if err != nil {
		return err
	}

	fmtName := ""
	if *outPath != "" {
		fmtName = pickFormat(*format, *outPath)
		if fmtName != "csv" && fmtName != "jsonl" {
			if *format != "" {
				return fmt.Errorf("unknown -format %q (want csv or jsonl)", *format)
			}
			return fmt.Errorf("cannot infer output format from %q; pass -format csv|jsonl", *outPath)
		}
	}

	if *remote != "" {
		if *resume > 0 {
			return fmt.Errorf("-resume is local-only (the daemon's point cache already skips completed points)")
		}
		return runSweepRemote(*remote, file, *outPath, fmtName)
	}

	sw, err := file.Sweep()
	if err != nil {
		return err
	}

	var sinks []sweep.Sink
	if *outPath != "" {
		// Resuming into an existing file appends the remaining rows
		// after the completed prefix (no second header); everything
		// else starts a fresh file.
		appendRows := false
		if *resume > 0 {
			if fi, err := os.Stat(*outPath); err == nil && fi.Size() > 0 {
				appendRows = true
			}
		}
		flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if appendRows {
			flags = os.O_WRONLY | os.O_APPEND
		}
		f, ferr := os.OpenFile(*outPath, flags, 0o644)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		switch {
		case fmtName == "csv" && appendRows:
			sinks = append(sinks, sweep.NewCSVAppendSink(f))
		case fmtName == "csv":
			sinks = append(sinks, sweep.NewCSVSink(f))
		case appendRows:
			sinks = append(sinks, sweep.NewJSONLAppendSink(f))
		default:
			sinks = append(sinks, sweep.NewJSONLSink(f))
		}
	}

	eng := sweep.Engine{Workers: *workers, PointWorkers: *pointWorkers, Resume: *resume}
	tbl, err := eng.Run(sw, sinks...)
	if err != nil {
		return err
	}

	if err := tbl.WriteSummary(os.Stdout); err != nil {
		return err
	}
	if *outPath != "" {
		fmt.Printf("rows written to %s\n", *outPath)
	}
	return nil
}

// defineGridFlags declares on fs the flags that build a grid — -base,
// the shared base flags, -distance, -sizedist, the dimension flags and
// -sample — and returns a function that, once fs is parsed, renders
// them into the same spec.File a spec file or HTTP body parses to: one
// code path from either front door to the engine.
func defineGridFlags(fs *flag.FlagSet) func() (*spec.File, error) {
	kind := fs.String("base", "trace", "flag-built grid base: trace | population")
	fillBase := defineBaseFlags(fs, "circuitstart")
	distance := fs.Int("distance", 3, "bottleneck distance in hops (trace base)")
	sizeDist := fs.String("sizedist", "", "transfer-size distribution (population base; overrides -size; e.g. pareto:100000:1.2:10000000)")
	dimNames, dims := spec.DimFlags(fs)
	sample := fs.Int("sample", 0, "cap the grid to a seeded sample of this many points (0 = full)")
	return func() (*spec.File, error) {
		f := &spec.File{Version: spec.Version, Name: "cli-sweep", Base: spec.Base{Kind: *kind}, Sample: *sample}
		if err := fillBase(f); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		if *kind != "population" {
			f.Base.Distance = *distance
		}
		if *sizeDist != "" {
			if *kind != "population" {
				return nil, fmt.Errorf("sweep: -sizedist applies only to -base population")
			}
			f.Base.SizeDist, f.Base.SizeBytes = *sizeDist, 0
		}

		var err error
		if f.Dimensions, err = dims(); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		if len(f.Dimensions) == 0 {
			return nil, fmt.Errorf("sweep: no dimensions (pass at least one of -%s, or a -spec file)", strings.Join(dimNames, ", -"))
		}

		// Round-trip through the canonical codec: the flag grid gets the
		// identical validation and defaults a spec file or HTTP body gets.
		data, err := spec.Marshal(f)
		if err != nil {
			return nil, err
		}
		return spec.Parse(data)
	}
}

// defineBaseFlags declares on fs the ten flags scenario and sweep
// share: -seed, -arms (defaulting to arms) and the population base. The
// returned fill, called once fs is parsed, writes them into f's seed
// and base as the spec spells them; f.Base.Kind must be set. A base
// other than population takes only the seed, the arms, -hops and a set
// -horizon, and refuses the population flags by name. A zero the user
// set is refused by name too: the spec reads a zero as omitted and
// would run its default instead.
func defineBaseFlags(fs *flag.FlagSet, arms string) (fill func(f *spec.File) error) {
	seed := fs.Int64("seed", 42, "experiment seed")
	armList := fs.String("arms", arms, "comma-separated policy arms")
	hops := fs.Int("hops", 3, "relays per circuit (trace base: also the path length)")
	relays := fs.Int("relays", 40, "relay population size")
	circuits := fs.Int("circuits", 50, "concurrent circuits")
	switches := fs.Int("switches", 0, "home the relays behind a backbone ring of this many switches (0 = star topology)")
	size := fs.Int64("size", 500_000, "transfer size per circuit [bytes]")
	download := fs.Bool("download", false, "run transfers in the download (server → client) direction")
	horizon := fs.Duration("horizon", 600*time.Second, "per-trial virtual time bound")
	spread := fs.Duration("spread", 200*time.Millisecond, "uniform start stagger window")
	return func(f *spec.File) error {
		set := make(map[string]bool)
		fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
		for _, name := range []string{"hops", "relays", "circuits", "size", "horizon"} {
			if v := fs.Lookup(name).Value.String(); set[name] && (v == "0" || v == "0s") {
				return fmt.Errorf("-%s %s: want at least 1", name, v)
			}
		}
		f.Seed = seed
		if f.Base.Arms = splitList(*armList); set["arms"] && len(f.Base.Arms) == 0 {
			return fmt.Errorf("-arms named no policies")
		}
		f.Base.Hops = *hops
		if f.Base.Kind != "population" {
			for _, name := range []string{"relays", "circuits", "switches", "size", "download", "spread"} {
				if set[name] {
					return fmt.Errorf("-%s applies only to -base population", name)
				}
			}
			if set["horizon"] {
				f.Base.HorizonSec = horizon.Seconds()
			}
			return nil
		}
		spreadMs := float64(*spread) / float64(time.Millisecond)
		f.Base.Relays, f.Base.Circuits, f.Base.Switches = *relays, *circuits, *switches
		f.Base.SizeBytes, f.Base.Download = *size, *download
		f.Base.HorizonSec, f.Base.SpreadMs = horizon.Seconds(), &spreadMs
		return nil
	}
}

// pickFormat resolves the output format from -format or the extension.
func pickFormat(format, path string) string {
	if format != "" {
		return format
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		return "csv"
	case ".jsonl", ".ndjson":
		return "jsonl"
	}
	return ""
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}
