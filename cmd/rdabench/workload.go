package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/workload"
	"repro/rda"
	"repro/rda/model"
	"repro/rda/trace"
)

// The workload sweep is the Section 5 model validation harness: it
// generates one trace per (workload spec, logging mode), replays it on
// every requested array geometry under every algorithm family the paper
// analyzes, and writes measured and model-predicted throughput side by
// side — the model evaluated at the communality the engine actually
// measured, so the comparison isolates the model's cost equations from
// its locality assumption.

// geometry is one array organization under test.
type geometry struct {
	Name      string     `json:"name"`
	Layout    rda.Layout `json:"-"`
	DataDisks int        `json:"data_disks"`
}

// parseGeometries parses "raid5:8,paritystripe:8,mirror" — a comma list
// of name[:datadisks], where mirror is group width 1 (the parity page of
// a single-page group is a copy of it, so every block is mirrored).
func parseGeometries(s string) ([]geometry, error) {
	var out []geometry
	for _, tok := range strings.Split(s, ",") {
		name, arg, hasArg := strings.Cut(strings.TrimSpace(tok), ":")
		g := geometry{Name: strings.TrimSpace(tok), DataDisks: 8}
		if hasArg {
			n, err := strconv.Atoi(arg)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad geometry %q: want name[:datadisks]", tok)
			}
			g.DataDisks = n
		}
		switch name {
		case "raid5":
			g.Layout = rda.DataStriping
		case "paritystripe":
			g.Layout = rda.ParityStriping
		case "mirror":
			g.Layout, g.DataDisks = rda.DataStriping, 1
			if hasArg {
				return nil, fmt.Errorf("bad geometry %q: mirror takes no group width", tok)
			}
		default:
			return nil, fmt.Errorf("unknown geometry %q (want raid5, paritystripe or mirror)", name)
		}
		out = append(out, g)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no geometries")
	}
	return out, nil
}

// familyShape maps an algorithm family onto the engine knobs it names.
func familyShape(a model.Algorithm) (trace.Mode, rda.EOTDiscipline) {
	switch a {
	case model.AlgoPageForceTOC:
		return trace.ModePage, rda.Force
	case model.AlgoPageNoForceACC:
		return trace.ModePage, rda.NoForce
	case model.AlgoRecordForceTOC:
		return trace.ModeRecord, rda.Force
	default:
		return trace.ModeRecord, rda.NoForce
	}
}

// workloadCell is one (workload, geometry, algorithm family) measurement.
type workloadCell struct {
	Workload  string `json:"workload"`
	Algorithm string `json:"algorithm"`
	Geometry  string `json:"geometry"`
	DataDisks int    `json:"data_disks"`

	Committed int64 `json:"committed"`
	Aborted   int64 `json:"aborted"`
	Transfers int64 `json:"transfers"`
	// MeasuredC is the buffer hit rate the run saw; the model prediction
	// is evaluated at this communality.
	MeasuredC float64 `json:"measured_c"`
	// CheckpointEvery is the model-derived checkpoint interval the
	// replay used (¬FORCE families; 0 for FORCE/TOC).
	CheckpointEvery int64 `json:"checkpoint_every,omitempty"`

	// Throughputs in transactions per availability interval of T page
	// transfers: measured = committed·T/transfers.
	MeasuredThroughput float64 `json:"measured_throughput"`
	ModelThroughput    float64 `json:"model_throughput"`
	// Ratio is measured/model — 1.0 would be a perfect prediction.
	Ratio float64 `json:"ratio"`
}

// workloadBenchOutput is the BENCH_workloads.json schema.
type workloadBenchOutput struct {
	Benchmark string  `json:"benchmark"`
	Seed      int64   `json:"seed"`
	TraceSeed int64   `json:"trace_seed"`
	Interval  float64 `json:"interval_transfers"`
	Streams   int     `json:"streams"`
	NumPages  int     `json:"num_pages"`
	PageSize  int     `json:"page_size"`
	Frames    int     `json:"buffer_frames"`
	Txns      int     `json:"transactions_per_trace"`

	Geometries []geometry     `json:"geometries"`
	Workloads  []string       `json:"workloads"`
	Cells      []workloadCell `json:"cells"`
}

// benchWorkloads runs the sweep: for every workload spec, one trace per
// logging mode, replayed under every geometry × algorithm family, with
// the model's prediction (at measured communality) beside each
// measurement.  The whole sweep is a pure function of its flags: the
// harness seed feeds the workload substream of a shared seeded source,
// traces are generated once and replayed deterministically.
func benchWorkloads(specs []string, geoms []geometry, txns int, seed int64, outPath string) error {
	const (
		numPages   = 480
		pageSize   = 256
		frames     = 96
		recordSize = 16
		streams    = 6
		intervalT  = 5e6
	)
	src := workload.NewSource(seed)
	traceSeed := src.Stream("workload")

	out := workloadBenchOutput{
		Benchmark:  "workload-sweep",
		Seed:       seed,
		TraceSeed:  traceSeed,
		Interval:   intervalT,
		Streams:    streams,
		NumPages:   numPages,
		PageSize:   pageSize,
		Frames:     frames,
		Txns:       txns,
		Geometries: geoms,
		Workloads:  specs,
	}

	base := workload.Profile{
		Streams:        streams,
		Transactions:   txns,
		PagesPerTx:     10,
		UpdateFraction: 0.8,
		UpdateProb:     0.9,
		AbortProb:      0.01,
		Hot:            0.6,
		Window:         frames,
		NumPages:       numPages,
		PageSize:       pageSize,
		Seed:           traceSeed,
	}

	for _, spec := range specs {
		fmt.Printf("== Workload %s: measured vs Section 5 model (RDA, %d tx, seed %d) ==\n", spec, txns, seed)
		fmt.Printf("%-14s %-22s %10s %10s %12s %12s %7s\n",
			"algorithm", "geometry", "committed", "C", "measured", "model", "ratio")

		// One trace per logging mode; both ¬FORCE and FORCE families of a
		// mode replay the same trace, so EOT discipline is the only
		// variable between them.
		traces := map[trace.Mode]*trace.Trace{}
		profiles := map[trace.Mode]workload.Profile{}
		for _, mode := range []trace.Mode{trace.ModePage, trace.ModeRecord} {
			p := base
			p.Mode = mode
			if mode == trace.ModeRecord {
				p.RecordSize = recordSize
			}
			prof, pl, err := workload.FromSpec(spec, p)
			if err != nil {
				return err
			}
			t, err := workload.Generate(prof, pl)
			if err != nil {
				return fmt.Errorf("generating %s (%s mode): %w", spec, mode, err)
			}
			traces[mode], profiles[mode] = t, prof
		}

		for _, algo := range model.Algorithms {
			mode, eot := familyShape(algo)
			t, prof := traces[mode], profiles[mode]
			shape := model.Shape{
				PagesPerTx:     float64(prof.PagesPerTx),
				UpdateFraction: prof.UpdateFraction,
				UpdateProb:     prof.UpdateProb,
				AbortProb:      prof.AbortProb,
			}
			for _, g := range geoms {
				sys := model.System{
					BufferFrames: frames,
					NumPages:     numPages,
					GroupWidth:   g.DataDisks,
					Concurrency:  streams,
					Interval:     intervalT,
				}

				// ¬FORCE replays checkpoint at the model's optimal interval,
				// pre-computed at the generator's locality knob (measured C
				// is only known after the run).
				var ckptEvery int64
				if eot == rda.NoForce {
					pre := model.Evaluate(algo, model.Compose(sys, model.Shape{
						PagesPerTx:     shape.PagesPerTx,
						UpdateFraction: shape.UpdateFraction,
						UpdateProb:     shape.UpdateProb,
						AbortProb:      shape.AbortProb,
						Communality:    prof.Hot,
					}), true)
					ckptEvery = int64(pre.Interval)
				}

				cfg := rda.DefaultConfig()
				cfg.Layout = g.Layout
				cfg.DataDisks = g.DataDisks
				cfg.EOT = eot
				cfg.RDA = true
				cfg.BufferFrames = frames
				cfg.PackedLog = mode == trace.ModeRecord
				cfg = t.Config(cfg)
				db, err := rda.Open(cfg)
				if err != nil {
					return err
				}
				res, err := trace.Replay(db, t, trace.Options{CheckpointEvery: ckptEvery})
				if err != nil {
					return fmt.Errorf("%s on %s: %w", algo.Key(), g.Name, err)
				}

				measuredC := hitRate(res.Stats)
				measured := float64(res.Committed) * intervalT / float64(res.Transfers)
				shape.Communality = measuredC
				params := model.Compose(sys, shape)
				pred := model.Evaluate(algo, params, true)
				if algo == model.AlgoPageForceTOC {
					// The engine's page FORCE commits log no after-images.
					pred = model.PageForceTOCNoAfterImages(params, true)
				}

				cell := workloadCell{
					Workload:           spec,
					Algorithm:          algo.Key(),
					Geometry:           g.Name,
					DataDisks:          g.DataDisks,
					Committed:          res.Committed,
					Aborted:            res.Aborted,
					Transfers:          res.Transfers,
					MeasuredC:          measuredC,
					CheckpointEvery:    ckptEvery,
					MeasuredThroughput: measured,
					ModelThroughput:    pred.Throughput,
					Ratio:              measured / pred.Throughput,
				}
				out.Cells = append(out.Cells, cell)
				fmt.Printf("%-14s %-22s %10d %10.3f %12.0f %12.0f %7.2f\n",
					cell.Algorithm, cell.Geometry, cell.Committed, cell.MeasuredC,
					cell.MeasuredThroughput, cell.ModelThroughput, cell.Ratio)
			}
		}
		fmt.Println()
	}

	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(outPath, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cells)\n", outPath, len(out.Cells))
	return nil
}
