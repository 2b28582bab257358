package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatternsSelectTests: every alternative of every `go test -run`
// pattern in the CI workflow selects at least one test of the packages its
// step names, so a renamed or deleted test cannot leave a CI step quietly
// running less than it says.  Steps that run benchmarks (-bench) deselect
// the tests on purpose and are not checked.
func TestCIRunPatternsSelectTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run[ =]('[^']*'|"[^"]*"|\S+)`)
	checked := 0
	for n, line := range strings.Split(string(ci), "\n") {
		m := runFlag.FindStringSubmatch(line)
		if m == nil || !strings.Contains(line, "go test") || strings.Contains(line, "-bench") {
			continue
		}
		var pkgs, tests []string
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
				tests = append(tests, testsIn(t, f)...)
			}
		}
		for _, alt := range topLevelAlternatives(strings.Trim(m[1], `'"`)) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Fatalf("ci.yml:%d: -run alternative %q: %v", n+1, alt, err)
			}
			if !slices.ContainsFunc(tests, re.MatchString) {
				t.Errorf("ci.yml:%d: -run alternative %q matches no test in %v", n+1, alt, pkgs)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no go test -run pattern in ci.yml")
	}
}

// TestCIRunsNoCrashSweep: no CI step sweeps or soaks through cmd/rdacrash.
// Every crash family and its gate is a row of rda/crashcheck's families
// table, which `go test ./...` runs whole; a sweep in the workflow would be a
// second gate written another way.  Replaying one schedule (-sched) is not a
// sweep.
func TestCIRunsNoCrashSweep(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for n, line := range strings.Split(string(ci), "\n") {
		if strings.Contains(line, "rdacrash") && !strings.Contains(line, "-sched") {
			t.Errorf("ci.yml:%d runs a crash sweep or soak outside the families table: %s", n+1, strings.TrimSpace(line))
		}
	}
}

// testsIn returns the names of the Test functions of a package directory
// ("./rda").
func testsIn(t *testing.T, pkg string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	testFunc := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// topLevelAlternatives splits the part of a -run pattern that matches
// top-level test names (before the first unbracketed '/', which starts a
// subtest pattern) at its unbracketed '|'s.
func topLevelAlternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range pattern {
		switch {
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case depth == 0 && c == '/':
			return append(alts, pattern[start:i])
		case depth == 0 && c == '|':
			alts = append(alts, pattern[start:i])
			start = i + 1
		}
	}
	return append(alts, pattern[start:])
}
