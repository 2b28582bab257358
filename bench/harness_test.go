package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testScale shrinks every workload to a few hundred transactions.
const testScale = 0.01

func runAt(t *testing.T, w workload, seed int64, traced bool) result {
	t.Helper()
	res, err := runWorkload(w, options{seed: seed, scale: testScale, traced: traced, spanDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if res.failed != 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed", w.name, seed, res.failed, res.attempted)
	}
	return res
}

// The count metrics of a single-driver workload are a function of the
// seed alone: the same seed repeats them to the last bit, another seed
// changes them.
func TestCountsRepeat(t *testing.T) {
	for _, w := range workloads() {
		if w.drivers != 1 {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // counts do not depend on timing
			a, b, c := runAt(t, w, 1, false), runAt(t, w, 1, false), runAt(t, w, 2, false)
			if a.attempted != b.attempted {
				t.Errorf("attempted %d then %d with one seed", a.attempted, b.attempted)
			}
			changed := false
			for _, m := range countMetrics {
				if math.Float64bits(a.metrics[m]) != math.Float64bits(b.metrics[m]) {
					t.Errorf("%s = %v then %v with one seed", m, a.metrics[m], b.metrics[m])
				}
				changed = changed || a.metrics[m] != c.metrics[m]
			}
			if !changed {
				t.Error("another seed left every count metric unchanged")
			}
		})
	}
}

// A traced run reports every per-layer metric, and the time shares of
// the rda calls plus the loop's own share account for the traced wall
// time.
func TestSharesSumToOne(t *testing.T) {
	for _, w := range workloads() {
		if w.drivers != 1 {
			continue
		}
		res := runAt(t, w, 1, true)
		sum := 0.0
		for _, d := range perLayer {
			v, ok := res.metrics[d.name]
			if !ok {
				t.Errorf("%s: traced run did not report %s", w.name, d.name)
			}
			if strings.HasPrefix(d.name, "rda.") && strings.HasSuffix(d.name, "_share") {
				sum += v
			}
		}
		if math.Abs(sum-1) > 0.02 {
			t.Errorf("%s: rda.*_share sum to %.4f, want 1 ± 0.02", w.name, sum)
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics the code
// reports, with the same units.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the code %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, file []boundedMetric, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(file), len(code))
			return
		}
		for i, d := range code {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], the code %s [%s]",
					kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// spread uses the quartiles of Python's statistics.quantiles(v, n=4),
// which is what the driver computes.
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quantiles: 2.75, 5.5, 8.25
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	// Two values: the quartiles extrapolate past both, to 0.75 and 2.25.
	if got := spread([]float64{1, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1, 2) = %v, want 1", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func writeRuns(t *testing.T, recs ...runRecord) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	for _, r := range recs {
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// -agree fails when a result set lacks a workload or an end-to-end
// metric that BENCHMARK.json names, and calls the count metrics of a
// single-driver workload exact only when they repeat bit for bit per
// seed.
func TestAgree(t *testing.T) {
	const bf = "../BENCHMARK.json"
	full := func(seed int64, transfers float64) []runRecord {
		var recs []runRecord
		for _, w := range workloads() {
			r := runRecord{Workload: w.name, Seed: seed, report: report{Correct: true, Attempted: 1, Metrics: map[string]metricJSON{}}}
			for _, d := range endToEnd {
				r.Metrics[d.name] = metricJSON{Value: 1, Unit: d.unit}
			}
			r.Metrics["transfers_per_commit"] = metricJSON{Value: transfers, Unit: "count"}
			recs = append(recs, r)
		}
		return recs
	}
	a := writeRuns(t, full(1, 92)...)
	if ok, err := agreeFiles(bf, a, a); err != nil || !ok {
		t.Errorf("a result set does not agree with itself: ok=%v err=%v", ok, err)
	}
	if ok, err := agreeFiles(bf, a, writeRuns(t, full(1, 92)[1:]...)); err != nil || ok {
		t.Errorf("a result set without the first workload passed: ok=%v err=%v", ok, err)
	}
	if ok, err := agreeFiles(bf, a, writeRuns(t, full(1, 99)...)); err != nil || ok {
		t.Errorf("7.6 %% more transfers per commit passed: ok=%v err=%v", ok, err)
	}
	one, other := []sample{{1, 92}, {2, 93}}, []sample{{2, 93}, {3, 94}}
	if !sameBySeed(one, other) {
		t.Error("equal values on the shared seed are not exact")
	}
	if sameBySeed(one, []sample{{2, 93.0000001}}) || sameBySeed(one, []sample{{4, 92}}) {
		t.Error("a differing value, or no shared seed, is exact")
	}
}
