// Command rdatrace records, inspects and replays workload traces — the
// workload plane's capture/replay driver.
//
// Record a trace (the spec names the generator; see internal/workload):
//
//	rdatrace -record -workload zipfian:theta=0.99 -o zipf.rdatrc \
//	         -mode record -txns 2000 -streams 6 -seed 42
//
// Inspect it:
//
//	rdatrace -info zipf.rdatrc
//
// Replay it against a chosen array geometry, twice, verifying the two
// runs produce identical digests (the determinism contract: a trace plus
// a configuration fully determines the commit history, the transfer
// counts and the final database image):
//
//	rdatrace -replay zipf.rdatrc -runs 2 -layout raid5 -disks 8 -rda
//
// Geometries: -layout raid5 (rotated parity), paritystripe (Gray's
// organization) or mirror (group width 1: the parity page of a
// single-page group is a copy, so the array is N pairs of mirrored
// blocks); -disks sets the group width for the striped layouts.
//
// Everything rdatrace does is deterministic: recording is a pure
// function of (spec, profile flags, seed), and replay of a given trace
// file on a given configuration always produces the same digest.  Two
// -runs that disagree exit nonzero — that is a bug, not noise.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/workload"
	"repro/rda"
	"repro/rda/trace"
)

func main() {
	record := flag.Bool("record", false, "record a trace from -workload into -o")
	spec := flag.String("workload", "uniform", "workload spec: uniform|zipfian|banking|scan[:k=v,...] (see internal/workload)")
	out := flag.String("o", "trace.rdatrc", "record: output trace path")
	mode := flag.String("mode", "page", "record: trace granularity, page or record")
	seed := flag.Int64("seed", 42, "record: generator seed; (workload, seed) names the trace exactly")
	txns := flag.Int("txns", 1000, "record: transactions to generate")
	streams := flag.Int("streams", 6, "record: concurrent transaction streams (1-255)")
	pages := flag.Int("pages", 480, "record: database size in pages the trace addresses")
	pageSize := flag.Int("pagesize", 256, "record: page size in bytes")
	recSize := flag.Int("recsize", 16, "record: record size in bytes (record mode)")
	hot := flag.Float64("hot", 0.6, "record: probability a page pick re-references the recency window (communality knob)")
	window := flag.Int("window", 64, "record: recency window size in pages")

	replay := flag.String("replay", "", "replay the trace file at this path")
	runs := flag.Int("runs", 1, "replay: repeat on a fresh database this many times and compare digests; any mismatch exits 1")
	layout := flag.String("layout", "raid5", "replay: array geometry, raid5|paritystripe|mirror")
	disks := flag.Int("disks", 8, "replay: data disks per parity group (ignored by mirror)")
	useRDA := flag.Bool("rda", true, "replay: enable RDA recovery (twin parity)")
	eot := flag.String("eot", "force", "replay: EOT discipline, force or noforce")
	frames := flag.Int("frames", 96, "replay: buffer frames")
	ckpt := flag.Int64("ckpt", 0, "replay: checkpoint every n transfers (noforce; 0 = none)")
	crash := flag.Bool("crash", false, "replay: crash and recover at end of trace instead of draining")
	packed := flag.Bool("packedlog", true, "replay: packed log accounting for record-mode traces")

	info := flag.String("info", "", "print the header and op summary of the trace file at this path")
	flag.Parse()

	switch {
	case *record:
		// The base mix is the paper's high-update environment (s=10,
		// f_u=0.8, p_u=0.9, p_b=0.01); spec keys (s=, fu=, pu=, pb=)
		// override it.
		prof := workload.Profile{
			Streams:        *streams,
			Transactions:   *txns,
			PagesPerTx:     10,
			UpdateFraction: 0.8,
			UpdateProb:     0.9,
			AbortProb:      0.01,
			Hot:            *hot,
			Window:         *window,
			NumPages:       *pages,
			PageSize:       *pageSize,
			Seed:           *seed,
		}
		switch *mode {
		case "page":
			prof.Mode = trace.ModePage
		case "record":
			prof.Mode = trace.ModeRecord
			prof.RecordSize = *recSize
		default:
			fatal(2, "unknown mode %q (want page or record)", *mode)
		}
		if err := doRecord(*spec, prof, *out); err != nil {
			fatal(1, "record: %v", err)
		}
	case *replay != "":
		t, err := load(*replay)
		if err != nil {
			fatal(1, "replay: %v", err)
		}
		cfg, err := engineConfig(t, *layout, *disks, *useRDA, *eot, *frames, *packed)
		if err != nil {
			fatal(2, "replay: %v", err)
		}
		if err := doReplay(t, cfg, *runs, *crash, *ckpt); err != nil {
			fatal(1, "replay: %v", err)
		}
	case *info != "":
		t, err := load(*info)
		if err != nil {
			fatal(1, "info: %v", err)
		}
		printInfo(*info, t)
	default:
		fatal(2, "nothing to do: pass -record, -replay or -info")
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rdatrace: "+format+"\n", args...)
	os.Exit(code)
}

func load(path string) (*trace.Trace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return trace.Decode(b)
}

func doRecord(spec string, base workload.Profile, out string) error {
	prof, pl, err := workload.FromSpec(spec, base)
	if err != nil {
		return err
	}
	t, err := workload.Generate(prof, pl)
	if err != nil {
		return err
	}
	enc := t.Encode()
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	fmt.Printf("recorded %s: %s, %d ops, %d tx, %d stream(s), %d bytes -> %s\n",
		t.Header.Spec, t.Header.Mode, len(t.Ops), countTx(t), t.Header.Streams, len(enc), out)
	return nil
}

func countTx(t *trace.Trace) int {
	n := 0
	for _, op := range t.Ops {
		if op.Kind.IsEOT() {
			n++
		}
	}
	return n
}

// engineConfig builds the replay configuration from the trace's shape
// fields plus the geometry flags.
func engineConfig(t *trace.Trace, layout string, disks int, useRDA bool, eot string, frames int, packed bool) (rda.Config, error) {
	cfg := rda.DefaultConfig()
	switch layout {
	case "raid5":
		cfg.Layout = rda.DataStriping
		cfg.DataDisks = disks
	case "paritystripe":
		cfg.Layout = rda.ParityStriping
		cfg.DataDisks = disks
	case "mirror":
		cfg.Layout = rda.DataStriping
		cfg.DataDisks = 1
	default:
		return cfg, fmt.Errorf("unknown layout %q (want raid5, paritystripe or mirror)", layout)
	}
	switch eot {
	case "force":
		cfg.EOT = rda.Force
	case "noforce":
		cfg.EOT = rda.NoForce
	default:
		return cfg, fmt.Errorf("unknown EOT discipline %q (want force or noforce)", eot)
	}
	cfg.RDA = useRDA
	cfg.BufferFrames = frames
	cfg.PackedLog = packed && t.Header.Mode == trace.ModeRecord
	return t.Config(cfg), nil
}

func doReplay(t *trace.Trace, cfg rda.Config, runs int, crash bool, ckpt int64) error {
	if runs < 1 {
		runs = 1
	}
	opts := trace.Options{CheckpointEvery: ckpt, CrashAtEnd: crash}
	var first trace.Result
	for i := 0; i < runs; i++ {
		db, err := rda.Open(cfg)
		if err != nil {
			return err
		}
		res, err := trace.Replay(db, t, opts)
		if err != nil {
			return err
		}
		fmt.Printf("run %d: %d committed, %d aborted, %d ops, %d transfers (%d recovery), digest %s\n",
			i+1, res.Committed, res.Aborted, res.OpsApplied, res.Transfers, res.RecoveryTransfers, res.Digest[:16])
		if i == 0 {
			first = res
			continue
		}
		if res.Digest != first.Digest {
			return fmt.Errorf("determinism violation: run %d digest %s != run 1 digest %s", i+1, res.Digest[:16], first.Digest[:16])
		}
	}
	if runs > 1 {
		fmt.Printf("deterministic: %d runs, identical digests\n", runs)
	}
	return nil
}

func printInfo(path string, t *trace.Trace) {
	h := t.Header
	fmt.Printf("%s:\n", path)
	fmt.Printf("  format     : %s v%d\n", trace.Magic, h.Version)
	fmt.Printf("  spec       : %s (seed %d)\n", h.Spec, h.Seed)
	fmt.Printf("  mode       : %s\n", h.Mode)
	fmt.Printf("  streams    : %d\n", h.Streams)
	fmt.Printf("  database   : %d pages x %d bytes", h.NumPages, h.PageSize)
	if h.Mode == trace.ModeRecord {
		fmt.Printf(", %d-byte records", h.RecordSize)
	}
	fmt.Println()
	var reads, writes int
	for _, op := range t.Ops {
		switch op.Kind {
		case trace.OpReadPage, trace.OpReadRecord:
			reads++
		case trace.OpWritePage, trace.OpWriteRecord:
			writes++
		}
	}
	fmt.Printf("  ops        : %d (%d tx, %d reads, %d writes)\n", len(t.Ops), countTx(t), reads, writes)
}
