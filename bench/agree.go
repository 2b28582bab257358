package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 on per-layer metrics: reported, not judged
}

// sample is one run's value of one metric.
type sample struct {
	seed  int64
	value float64
}

// readRuns groups an -out file's values by workload and metric.
func readRuns(path string) (map[string]map[string][]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]sample{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s line %d: run of %s was not correct", path, n, r.Workload)
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]sample{}
		}
		for name, m := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], sample{r.Seed, m.Value})
		}
	}
	return runs, sc.Err()
}

func values(ss []sample) []float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = s.value
	}
	return v
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(v,
// n=4) so the figure matches the driver's; 0 for fewer than two values.
func spread(v []float64) float64 {
	n := len(v)
	med := median(v)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4) // after clamping j: the ends extrapolate
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs((q(3) - q(1)) / med)
}

// sameBySeed reports whether a and b share at least one seed and hold
// bit-identical values for every seed they share.
func sameBySeed(a, b []sample) bool {
	bySeed := map[int64][]float64{}
	for _, s := range a {
		bySeed[s.seed] = append(bySeed[s.seed], s.value)
	}
	shared := false
	for _, s := range b {
		for _, v := range bySeed[s.seed] {
			shared = true
			if math.Float64bits(v) != math.Float64bits(s.value) {
				return false
			}
		}
	}
	return shared
}

// agreeFiles compares result set b with result set a, metric by metric,
// against the bounds in the BENCHMARK.json at benchFile, and prints one row per
// (workload, metric).  A pair fails when b's median is worse than a's by
// more than the bound, is unresolved when either side's run-to-run
// spread is wider than the bound, and is missing — which also fails the
// comparison — when a file has no run of that workload with that metric.
// The count metrics of a single-driver workload are a function of the
// seed alone, so there the verdict is "exact" when the two files agree
// to the last bit on every seed they share.  Per-layer metrics carry no
// bound and are listed without a verdict when both files have them.  It
// reports whether nothing failed.
func agreeFiles(benchFile, pathA, pathB string) (bool, error) {
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchFile, err)
	}
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	singleDriver := map[string]bool{}
	for _, w := range workloads() {
		singleDriver[w.name] = w.drivers == 1
	}
	ok := true
	fmt.Printf("%-18s %-36s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "a", "b", "b worse", "spread", "bound", "verdict")
	for _, w := range bf.Workloads {
		for _, m := range append(append([]boundedMetric(nil), bf.EndToEnd...), bf.PerLayer...) {
			sa, sb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(sa) == 0 || len(sb) == 0 {
				if m.Bound != 0 {
					fmt.Printf("%-18s %-36s %66s\n", w.Name, m.Name, "missing")
					ok = false
				}
				continue
			}
			va, vb := values(sa), values(sb)
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, math.Abs(ma))
			if m.Better == "higher" {
				worse = -worse
			}
			sp := math.Max(spread(va), spread(vb))
			verdict := "-"
			switch {
			case m.Bound == 0:
			case singleDriver[w.Name] && isCount(m.Name) && sameBySeed(sa, sb):
				verdict = "exact"
			case sp > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "FAIL"
				ok = false
			default:
				verdict = "pass"
			}
			fmt.Printf("%-18s %-36s %14.4f %14.4f %+8.2f%% %7.2f%% %7.2f%%  %s\n",
				w.Name, m.Name, ma, mb, worse*100, sp*100, m.Bound*100, verdict)
		}
	}
	return ok, nil
}
