package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestProfileFlagsWriteProfiles drives one simulating subcommand with
// both flags and checks each file holds a profile.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if err := runFig1Cwnd([]string{"-distance", "1", "-horizon", "300ms", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		// Profiles are gzip streams, so even an empty one has a header.
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s: no profile written (%v)", filepath.Base(path), err)
		}
	}
	if err := runFig1Cwnd([]string{"-cpuprofile", filepath.Join(dir, "missing", "cpu.prof")}); err == nil {
		t.Error("-cpuprofile into a missing directory did not fail before the run")
	}
}

// TestSimulatingCommandsTakeProfileFlags pins which subcommands carry
// the two flags: every one in the commands table except spec, which
// only parses a file. Each must reject an unwritable -cpuprofile before
// doing any work — a subcommand that did not register the flag would
// fail on the unknown flag instead, through its FlagSet's ExitOnError.
func TestSimulatingCommandsTakeProfileFlags(t *testing.T) {
	unwritable := filepath.Join(t.TempDir(), "missing", "cpu.prof")
	for _, cmd := range commands {
		if cmd.name == "spec" {
			continue
		}
		if err := cmd.run([]string{"-cpuprofile", unwritable}); err == nil {
			t.Errorf("%s: an unwritable -cpuprofile did not fail the command", cmd.name)
		}
	}
}
