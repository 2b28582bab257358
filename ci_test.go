package repro

import (
	"encoding/json"
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

// TestBenchCountGoldensNameBenchmarkMetrics: every exact-count golden of
// .github/bench-counts.json names a workload BENCHMARK.json runs and an
// end-to-end metric it gates, and a step of the CI workflow compares that
// workload's run against it, so a renamed workload or metric cannot leave a
// golden that gates nothing.
func TestBenchCountGoldensNameBenchmarkMetrics(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	var golden map[string]map[string]float64
	for file, v := range map[string]any{"BENCHMARK.json": &spec, ".github/bench-counts.json": &golden} {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	listed := func(names []struct{ Name string }, name string) bool {
		return slices.ContainsFunc(names, func(n struct{ Name string }) bool { return n.Name == name })
	}
	if len(golden) == 0 {
		t.Fatal(".github/bench-counts.json holds no golden")
	}
	for w, metrics := range golden {
		if !listed(spec.Workloads, w) {
			t.Errorf("bench-counts.json: %q is not a workload of BENCHMARK.json", w)
		}
		if len(metrics) == 0 {
			t.Errorf("bench-counts.json: %q records no metric", w)
		}
		for m := range metrics {
			if !listed(spec.EndToEnd, m) {
				t.Errorf("bench-counts.json: %s's %q is not an end-to-end metric of BENCHMARK.json", w, m)
			}
		}
		if !strings.Contains(string(ci), "--arg w "+w+" ") {
			t.Errorf("ci.yml compares no run of %s against bench-counts.json", w)
		}
	}
}

// TestPipedStepsKeepExitStatus: a job with a `run:` line that pipes one
// command into another (tee, grep, awk) runs its steps under `shell: bash`,
// which sets -eo pipefail, so a command on the left that fails (bench/run.sh
// on a failed op, a benchmark that no longer builds) still fails its step —
// without pipefail the pipe's status is the last command's.
func TestPipedStepsKeepExitStatus(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	piped, unsafe := pipedSteps(string(ci))
	if piped == 0 {
		t.Fatal("ci.yml pipes no run: line")
	}
	for _, line := range unsafe {
		t.Errorf("ci.yml: a job pipes without `defaults: run: shell: bash`: %s", line)
	}

	// The scan itself, on a workflow of every shape it must tell apart.
	sample := `
jobs:
  plain:
    runs-on: ubuntu-latest
    steps:
      - run: go test -run 'A|B' ./x || true
      - name: piped, one line
        run: go run ./cmd/x | tee out.txt
      - name: piped, in a block
        run: |
          go test ./...
          go test -bench . ./y | grep '^Benchmark'
  guarded:
    runs-on: ubuntu-latest
    defaults:
      run:
        shell: bash
    steps:
      - run: bash bench/run.sh | tee out.txt
`
	piped, unsafe = pipedSteps(sample)
	want := []string{"go run ./cmd/x | tee out.txt", "go test -bench . ./y | grep '^Benchmark'"}
	if piped != 3 || !slices.Equal(unsafe, want) {
		t.Errorf("pipedSteps(sample) = %d, %q; want 3, %q", piped, unsafe, want)
	}
}

// pipedSteps scans a workflow's jobs for shell lines of `run:` steps that
// pipe one command into another — a '|' outside quotes that is not half of
// '||' — and returns how many there are and those of jobs that do not run
// their steps under `defaults: run: shell: bash`.
func pipedSteps(ci string) (piped int, unsafe []string) {
	jobs := strings.SplitN(ci, "\njobs:\n", 2)
	if len(jobs) != 2 {
		return 0, nil
	}
	runKey := regexp.MustCompile(`^(\s*)(?:- )?run:\s*(.*)$`)
	block := regexp.MustCompile(`^[|>][-+]?$`)
	quoted := regexp.MustCompile(`'[^']*'|"[^"]*"`)
	pipe := regexp.MustCompile(`(^|[^|])\|([^|]|$)`)
	bash := regexp.MustCompile(`(?m)^    defaults:\n      run:\n        (#.*\n\s*)*shell: bash\s*$`)
	for _, job := range regexp.MustCompile(`(?m)^  (\S+):\s*$`).Split(jobs[1], -1) {
		lines := strings.Split(job, "\n")
		for i := 0; i < len(lines); i++ {
			m := runKey.FindStringSubmatch(lines[i])
			if m == nil {
				continue
			}
			cmds := []string{m[2]}
			if block.MatchString(m[2]) {
				// A block scalar: the lines indented past the key.
				for cmds = nil; i+1 < len(lines); i++ {
					next := lines[i+1]
					if strings.TrimSpace(next) != "" && len(next)-len(strings.TrimLeft(next, " ")) <= len(m[1]) {
						break
					}
					cmds = append(cmds, next)
				}
			}
			for _, c := range cmds {
				if !pipe.MatchString(quoted.ReplaceAllString(c, "")) {
					continue
				}
				piped++
				if !bash.MatchString(job) {
					unsafe = append(unsafe, strings.TrimSpace(c))
				}
			}
		}
	}
	return piped, unsafe
}

// TestCIFuzzesEveryTarget: every fuzz target of the module is named by a
// `go test -fuzz=` line of the CI workflow that names its package, so a new
// target cannot be left running only its seeds.
func TestCIFuzzesEveryTarget(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	fuzzFlag := regexp.MustCompile(`-fuzz=(\S+)`)
	fuzzed := map[string]bool{} // "./pkg FuzzName"
	for _, line := range strings.Split(string(ci), "\n") {
		m := fuzzFlag.FindStringSubmatch(line)
		if m == nil || !strings.Contains(line, "go test") {
			continue
		}
		re, err := regexp.Compile(m[1])
		if err != nil {
			t.Fatalf("ci.yml: -fuzz=%s: %v", m[1], err)
		}
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") {
				for _, name := range funcsIn(t, f, "Fuzz") {
					fuzzed[f+" "+name] = fuzzed[f+" "+name] || re.MatchString(name)
				}
			}
		}
	}
	targets := 0
	err = filepath.WalkDir(".", func(path string, e os.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if path != "." {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir // another module (bench/), test data, or a hidden directory
			}
		}
		pkg := "./" + filepath.ToSlash(path)
		for _, name := range funcsIn(t, pkg, "Fuzz") {
			targets++
			if !fuzzed[pkg+" "+name] {
				t.Errorf("no ci.yml line runs go test -fuzz=%s %s", name, pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if targets == 0 {
		t.Fatal("found no fuzz target in the module")
	}
}

// testsIn returns the names of the Test functions of a package directory
// ("./rda").
func testsIn(t *testing.T, pkg string) []string { return funcsIn(t, pkg, "Test") }

// funcsIn returns the names of the test files' functions of a package
// directory whose names start with kind (Test, Fuzz).
func funcsIn(t *testing.T, pkg, kind string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	testFunc := regexp.MustCompile(`(?m)^func (` + kind + `\w+)\(`)
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
