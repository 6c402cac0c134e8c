package circuitstart_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFlag matches a `go test -run` argument: quoted, or up to the next
// space or backtick. The flag follows white space, so prose such as
// "never-run" is not one.
var runFlag = regexp.MustCompile("(?:^|\\s)-run[= ]('[^']*'|\"[^\"]*\"|[^ `]+)")

// testFunc matches the declaration of a function `go test -run` selects.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)

// TestRunPatternsMatchTests keeps the CI workflow and the verify notes
// honest: every alternative of every `go test -run` pattern they carry
// must still select a Test, Fuzz or Example function somewhere in the
// tree. An alternative that matches nothing passes silently, so a
// renamed or deleted test would otherwise drop out of its gate
// unnoticed. `-run=NONE`, which deliberately selects nothing, is
// exempt.
func TestRunPatternsMatchTests(t *testing.T) {
	var names []string
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
			names = append(names, string(m[1]))
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
		for _, m := range runFlag.FindAllStringSubmatch(string(src), -1) {
			pattern := strings.Trim(m[1], `'"`)
			if pattern == "NONE" {
				continue
			}
			for _, alt := range strings.Split(pattern, "|") {
				// -run matches subtests after a slash; the test itself is
				// named by what precedes it.
				alt, _, _ = strings.Cut(alt, "/")
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -run %s: %v", doc, pattern, err)
					continue
				}
				checked++
				if !matchesAny(re, names) {
					t.Errorf("%s: -run %s: %q matches no test", doc, pattern, alt)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run patterns to check")
	}
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
