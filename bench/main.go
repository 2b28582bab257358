// Command bench is the repository's one benchmark: four long,
// fixed-count workloads replayed against the rda facade, ten
// end-to-end metrics from an untraced run and the per-layer numbers from
// a traced one.  README.md defines every metric and workload.
//
//	bash bench/run.sh                                  every workload, untraced
//	bash bench/run.sh -workload oltp_force -trace 1    one traced run
//	bash bench/run.sh -agree a.jsonl b.jsonl           compare two result sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// nominalSeconds is the steady-phase length the workloads' transaction
// counts are sized for; -seconds scales the counts, never a deadline, so
// that counts repeat exactly.
const nominalSeconds = 10

// metricJSON is one metric in the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a -workload run prints.
type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// runRecord is one line of an -out file: a report plus what produced it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	report
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all four, one after the other)")
	seed := flag.Int64("seed", 1, "seed of the generated traces and payloads")
	seconds := flag.Float64("seconds", 0, "nominal steady-phase length: the same as -scale seconds/10 (default 10)")
	scale := flag.Float64("scale", 0, "multiplies transaction and cycle counts (default 1); not together with -seconds")
	traced := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	out := flag.String("out", "", "append each run's result to this file, one JSON object per line")
	agree := flag.Bool("agree", false, "compare two -out files: bench -agree a.jsonl b.jsonl")
	flag.Parse()

	if *agree {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -agree a.jsonl b.jsonl")
			os.Exit(2)
		}
		ok, err := agreeFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	// One value under two names: the driver passes -seconds, people pass
	// -scale.
	switch {
	case *seconds != 0 && *scale != 0:
		fmt.Fprintln(os.Stderr, "bench: give -seconds or -scale, not both")
		os.Exit(2)
	case *seconds != 0:
		*scale = *seconds / nominalSeconds
	case *scale == 0:
		*scale = 1
	}
	if *scale <= 0 || (*traced != 0 && *traced != 1) || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	var todo []workload
	for _, w := range workloads() {
		if *name == "" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	correct := true
	var last []byte
	for _, w := range todo {
		res, err := runWorkload(w, options{
			seed: *seed, scale: *scale, traced: *traced == 1, spanDir: filepath.Join("bench", "out"),
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		defs := endToEnd
		if *traced == 1 {
			defs = perLayer
		}
		rep := report{
			Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
			Metrics: map[string]metricJSON{},
		}
		fmt.Printf("# %s seed=%d scale=%g trace=%d ops_attempted=%d ops_failed=%d %s\n",
			w.name, *seed, *scale, *traced, res.attempted, res.failed, res.phases)
		for _, d := range defs {
			v := res.metrics[d.name]
			rep.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
			line := fmt.Sprintf("%-18s %-36s %14.4f %s", w.name, d.name, v, d.unit)
			if n := res.samples[d.name]; n > 0 {
				line += fmt.Sprintf("  (n=%d)", n)
			}
			fmt.Println(line)
		}
		correct = correct && rep.Correct
		if last, err = json.Marshal(rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if *out != "" {
			if err := appendRecord(*out, runRecord{Workload: w.name, Seed: *seed, Trace: *traced, report: rep}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}
	}
	// The contract's result line; with several workloads it is the last
	// one's.
	fmt.Println(string(last))
	if !correct {
		os.Exit(1)
	}
}

func appendRecord(path string, r runRecord) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
