package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// parseProfiled is fs.Parse for the subcommands that simulate: it adds
// -cpuprofile and -memprofile to the flag set, parses, and starts the
// CPU profile. The returned stop ends the CPU profile and writes the
// heap profile; defer it. A profile that cannot be written is reported
// on stderr and does not fail the run it was measuring.
func parseProfiled(fs *flag.FlagSet, args []string) (stop func(), err error) {
	cpuPath := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memPath := fs.String("memprofile", "", "write a heap profile, taken after the run, to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var cpu *os.File
	if *cpuPath != "" {
		if cpu, err = os.Create(*cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "circuitsim: -cpuprofile:", err)
			}
		}
		if *memPath != "" {
			if err := writeHeapProfile(*memPath); err != nil {
				fmt.Fprintln(os.Stderr, "circuitsim: -memprofile:", err)
			}
		}
	}, nil
}

// writeHeapProfile writes the allocation profile (pprof's alloc_space
// covers the whole run, inuse_space what survived it).
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize the final statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
