package circuitstart_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testFunc matches the declaration of a function `go test -run` selects.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)

// TestRunPatternsMatchTests keeps the CI workflow and the verify notes
// honest. Every `go test … -run P <packages>` command they carry must
// select something in each package it lists: every listed package (a
// `/...` pattern counts as the whole tree below it) must hold a Test,
// Fuzz or Example function that P selects, and every alternative of P
// must select one in some listed package. An alternative or a package
// that matches nothing passes silently, so a renamed, deleted or moved
// test would otherwise drop out of its gate unnoticed. `-run=NONE`,
// which deliberately selects nothing, is exempt.
func TestRunPatternsMatchTests(t *testing.T) {
	tests := map[string][]string{} // package directory → test names
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			tests[filepath.Dir(path)] = append(tests[filepath.Dir(path)], string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, doc := range []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range goTestCommands(string(src)) {
			pattern, pkgs := runPattern(cmd)
			if pattern == "" || pattern == "NONE" {
				continue
			}
			var alts []*regexp.Regexp
			for _, alt := range strings.Split(pattern, "|") {
				// -run matches subtests after a slash; the test itself is
				// named by what precedes it.
				alt, _, _ = strings.Cut(alt, "/")
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -run %s: %v", doc, pattern, err)
					continue
				}
				alts = append(alts, re)
			}
			checked++
			var all []string
			for _, pkg := range pkgs {
				names := packageTests(tests, pkg)
				all = append(all, names...)
				if !anyMatch(alts, names) {
					t.Errorf("%s: -run %s selects no test in %s", doc, pattern, pkg)
				}
			}
			for _, re := range alts {
				if !anyMatch([]*regexp.Regexp{re}, all) {
					t.Errorf("%s: -run %s: %q matches no test in %s", doc, pattern, re, strings.Join(pkgs, " "))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run patterns to check")
	}
}

// goTestCommands returns the words of every `go test` command in src.
// A command ends at the end of its line (after joining the YAML's
// backslash continuations), at a backtick, or at a shell separator
// outside quotes (`&&`, `;`, a pipe or a redirect); quotes are dropped
// from the words.
func goTestCommands(src string) [][]string {
	src = strings.ReplaceAll(src, "\\\n", " ")
	var cmds [][]string
	for {
		i := strings.Index(src, "go test ")
		if i < 0 {
			return cmds
		}
		src = src[i:]
		var words []string
		var word strings.Builder
		quote := rune(0)
		end := len(src)
	scan:
		for j, r := range src {
			switch {
			case quote != 0 && r == quote:
				quote = 0
			case quote != 0:
				word.WriteRune(r)
			case r == '\'' || r == '"':
				quote = r
			case strings.ContainsRune("\n`;&|<>", r):
				end = j
				break scan
			case r == ' ' || r == '\t':
				if word.Len() > 0 {
					words = append(words, word.String())
					word.Reset()
				}
			default:
				word.WriteRune(r)
			}
		}
		if word.Len() > 0 {
			words = append(words, word.String())
		}
		cmds = append(cmds, words)
		src = src[end:]
	}
}

// runPattern returns a `go test` command's -run pattern and the
// packages it lists, relative to the repository root; a command that
// lists none tests the package in its directory.
func runPattern(cmd []string) (pattern string, pkgs []string) {
	dir := "."
	for i := 2; i < len(cmd); i++ {
		switch w := cmd[i]; {
		case (w == "-run" || w == "-C") && i+1 < len(cmd):
			if w == "-run" {
				pattern = cmd[i+1]
			} else {
				dir = cmd[i+1]
			}
			i++
		case strings.HasPrefix(w, "-run="):
			pattern = strings.TrimPrefix(w, "-run=")
		case w == "." || strings.HasPrefix(w, "./"):
			pkgs = append(pkgs, w)
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	for i, pkg := range pkgs {
		root, recursive := strings.CutSuffix(pkg, "/...")
		pkgs[i] = filepath.Join(dir, root)
		if recursive {
			pkgs[i] += "/..."
		}
	}
	return pattern, pkgs
}

// packageTests returns the tests in pkg's directory, or in every
// directory below it for a `/...` pattern.
func packageTests(tests map[string][]string, pkg string) []string {
	root, recursive := strings.CutSuffix(pkg, "/...")
	var names []string
	for dir, n := range tests {
		if dir == root || recursive && (root == "." || strings.HasPrefix(dir, root+"/")) {
			names = append(names, n...)
		}
	}
	return names
}

func anyMatch(res []*regexp.Regexp, names []string) bool {
	for _, re := range res {
		for _, n := range names {
			if re.MatchString(n) {
				return true
			}
		}
	}
	return false
}
