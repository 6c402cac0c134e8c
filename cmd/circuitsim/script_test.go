package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite each testdata/script stdout section, and testdata/golden_axes.txt, from this build")

// stdoutMarker opens a script's expected output, which runs to the end
// of the file.
const stdoutMarker = "-- stdout --\n"

// script is one testdata/script file, a txtar-style layout: "#" comment
// lines saying why the check exists, then one or more "circuitsim
// <command> <args>" lines, then the stdout every one of them must
// print. A "# slow:" comment line makes -short skip the script.
type script struct {
	head     string     // everything before the stdout section, kept by -update
	commands [][]string // each command line's words after "circuitsim"
	slow     bool
	stdout   string
}

// readScript parses the script at path.
func readScript(t *testing.T, path string) script {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, stdout, ok := strings.Cut(string(src), "\n"+stdoutMarker)
	if !ok {
		t.Fatalf("%s has no %q line", path, strings.TrimSpace(stdoutMarker))
	}
	s := script{head: head + "\n" + stdoutMarker, stdout: stdout}
	for _, line := range strings.Split(head, "\n") {
		switch words := strings.Fields(line); {
		case strings.HasPrefix(line, "# slow:"):
			s.slow = true
		case strings.HasPrefix(line, "#"):
		case len(words) > 1 && words[0] == "circuitsim":
			s.commands = append(s.commands, words[1:])
		default:
			t.Fatalf("%s: %q is neither a comment nor a circuitsim command line", path, line)
		}
	}
	if len(s.commands) == 0 {
		t.Fatalf("%s runs no command", path)
	}
	return s
}

// scriptPaths lists the testdata/script files in name order.
func scriptPaths(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob("testdata/script/*.txt")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scripts under testdata/script: %v", err)
	}
	return paths
}

// TestScripts runs every command line of every testdata/script file
// through the commands table main dispatches from and compares its
// stdout with the file's stdout section byte for byte, so a seeded
// table, a fixture or an invariance across workers or shards cannot move
// unnoticed. -update rewrites each section from the file's first
// command and still fails when a later command prints something else.
func TestScripts(t *testing.T) {
	for _, path := range scriptPaths(t) {
		s := readScript(t, path)
		t.Run(strings.TrimSuffix(filepath.Base(path), ".txt"), func(t *testing.T) {
			if s.slow && testing.Short() {
				t.Skip("slow script")
			}
			for i, args := range s.commands {
				cmd, ok := lookup(args[0])
				if !ok {
					t.Fatalf("%s: unknown command %q", path, args[0])
				}
				got := captureStdout(t, func() error { return cmd.run(args[1:]) })
				if i == 0 && *update && got != s.stdout {
					s.stdout = got
					if err := os.WriteFile(path, []byte(s.head+got), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				if got != s.stdout {
					t.Errorf("circuitsim %s: stdout differs from %s\n--- got ---\n%s--- want ---\n%s",
						strings.Join(args, " "), path, got, s.stdout)
				}
			}
		})
	}
}

// captureStdout runs fn with os.Stdout redirected into a buffer.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}
