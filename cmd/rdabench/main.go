// Command rdabench regenerates every evaluation artifact of the paper —
// Figures 9 through 13 — from the analytical model, and optionally
// cross-checks the ordering on the live engine by replaying the paper's
// workload for a budget of page transfers.
//
// Usage:
//
//	rdabench [-fig 9|10|11|12|13|overhead|nsweep|reliability|all] [-live] [-budget N] [-seed N]
//
// The self-healing flags measure the live engine under injected faults —
// a background transient-error rate and/or a disk death mid-run —
// against a fault-free baseline of the same workload, and print the
// retry, degraded-serving and rebuild counters:
//
//	rdabench -fig 9 -transient-rate 50 -faildisk-at 2000
//
// The integrity flag measures the verified-read/scrub plane the same
// way: a background bit-flip rate on block writes, online scrubbing
// beside the workload, and the repair counters plus transfer overhead
// against the fault-free baseline:
//
//	rdabench -fig 9 -bitflip-rate 200
//
// The P+Q flag measures the dual-failure-tolerant array: the small-write
// transfer overhead of the second redundancy page against single parity,
// and the rebuild bill for one- and two-drive losses, written to
// BENCH_pq.json:
//
//	rdabench -qparity
//
// The output is a table per figure with one row per x value (communality
// C, or transaction size s for Figure 13), giving the throughput without
// and with RDA recovery and the percentage gain — the same series the
// paper plots.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/workload"
	"repro/rda"
	"repro/rda/model"
	"repro/rda/trace"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 9, 10, 11, 12, 13, overhead, nsweep, reliability or all")
	live := flag.Bool("live", false, "also measure the live engine (slower)")
	budget := flag.Int64("budget", 150000, "transfer budget per live measurement point")
	seed := flag.Int64("seed", 42, "harness seed; one seed feeds named substreams (workload generation, fault placement) through a shared seeded source, so any run with the same flags and seed is bit-reproducible")
	workloadSpecs := flag.String("workload", "", "workload sweep: semicolon-separated workload specs (uniform|zipfian|banking|scan[:k=v,...]); replays each over -geometries under all four algorithm families, prints measured vs model throughput, writes -workload-out, then exits")
	geometries := flag.String("geometries", "raid5:8,paritystripe:8,mirror", "workload sweep: comma-separated array geometries name[:datadisks] (raid5, paritystripe, mirror)")
	workloadTxns := flag.Int("workload-txns", 1200, "workload sweep: transactions per generated trace")
	workloadOut := flag.String("workload-out", "BENCH_workloads.json", "workload sweep: output JSON path")
	transientRate := flag.Int64("transient-rate", 0, "self-healing run: fail every n-th disk access with a transient error (0 = off)")
	bitflipRate := flag.Int64("bitflip-rate", 0, "integrity run: silently flip one payload bit on every n-th block write (0 = off); measures the verified-read and scrub repair overhead (aggressive rates can exceed single-parity redundancy)")
	faildiskAt := flag.Int64("faildisk-at", -1, "self-healing run: fail-stop disk 0 after this many block writes (-1 = off)")
	workersList := flag.String("workers", "", "concurrency bench: comma-separated worker counts (e.g. 1,8); runs the group-striped throughput bench and exits")
	ioDelay := flag.Duration("iodelay", 150*time.Microsecond, "concurrency bench: simulated per-transfer disk service time")
	benchOut := flag.String("bench-out", "BENCH_concurrency.json", "concurrency bench: output JSON path")
	queueDepth := flag.Int("queue-depth", 8, "concurrency bench: per-drive request queue depth for the pipeline curve (<= 1 skips the pipeline curve)")
	queueWindow := flag.Int("queue-window", 8, "concurrency bench: elevator aging window for the pipeline curve")
	groupCommit := flag.Duration("group-commit", 200*time.Microsecond, "concurrency bench: group-commit window for the pipeline curve (0 disables batched EOT forces)")
	qparity := flag.Bool("qparity", false, "P+Q bench: measure the second redundancy page's small-write overhead vs single parity, and the one- vs two-drive rebuild cost; writes -pq-out and exits")
	pqOut := flag.String("pq-out", "BENCH_pq.json", "P+Q bench: output JSON path")
	flag.Parse()

	if *qparity {
		if err := benchQParity(*budget, *seed, *pqOut); err != nil {
			fmt.Fprintf(os.Stderr, "rdabench: p+q bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *workloadSpecs != "" {
		geoms, err := parseGeometries(*geometries)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rdabench: %v\n", err)
			os.Exit(2)
		}
		var specs []string
		for _, s := range strings.Split(*workloadSpecs, ";") {
			if s = strings.TrimSpace(s); s != "" {
				specs = append(specs, s)
			}
		}
		if err := benchWorkloads(specs, geoms, *workloadTxns, *seed, *workloadOut); err != nil {
			fmt.Fprintf(os.Stderr, "rdabench: workload sweep: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *workersList != "" {
		levels, err := parseWorkersList(*workersList)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rdabench: %v\n", err)
			os.Exit(2)
		}
		pipe := pipelineKnobs{QueueDepth: *queueDepth, QueueWindow: *queueWindow, GroupCommit: *groupCommit}
		if err := benchConcurrency(levels, *ioDelay, *seed, *benchOut, pipe); err != nil {
			fmt.Fprintf(os.Stderr, "rdabench: concurrency bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	switch *fig {
	case "9":
		printFigure("Figure 9: page logging, FORCE/TOC", model.Figure9(model.DefaultCommunalities))
	case "10":
		printFigure("Figure 10: page logging, NOFORCE/ACC", model.Figure10(model.DefaultCommunalities))
	case "11":
		printFigure("Figure 11: record logging, FORCE/TOC", model.Figure11(model.DefaultCommunalities))
	case "12":
		printFigure("Figure 12: record logging, NOFORCE/ACC", model.Figure12(model.DefaultCommunalities))
	case "13":
		printFigure13()
	case "overhead":
		printOverhead()
	case "nsweep":
		printNSweep()
	case "reliability":
		printReliability()
	case "all":
		printFigure("Figure 9: page logging, FORCE/TOC", model.Figure9(model.DefaultCommunalities))
		printFigure("Figure 10: page logging, NOFORCE/ACC", model.Figure10(model.DefaultCommunalities))
		printFigure("Figure 11: record logging, FORCE/TOC", model.Figure11(model.DefaultCommunalities))
		printFigure("Figure 12: record logging, NOFORCE/ACC", model.Figure12(model.DefaultCommunalities))
		printFigure13()
		printOverhead()
		printNSweep()
		printReliability()
	default:
		fmt.Fprintf(os.Stderr, "rdabench: unknown figure %q\n", *fig)
		os.Exit(2)
	}

	if *live {
		if err := liveCrossCheck(*budget, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "rdabench: live measurement: %v\n", err)
			os.Exit(1)
		}
	}
	if *transientRate > 0 || *faildiskAt >= 0 {
		if err := selfHealBench(*transientRate, *faildiskAt, *budget, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "rdabench: self-healing measurement: %v\n", err)
			os.Exit(1)
		}
	}
	if *bitflipRate > 0 {
		if err := integrityBench(*bitflipRate, *budget, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "rdabench: integrity measurement: %v\n", err)
			os.Exit(1)
		}
	}
}

func printFigure(title string, series []model.Series) {
	fmt.Printf("== %s ==\n", title)
	for _, s := range series {
		fmt.Printf("-- %s environment --\n", s.Label)
		fmt.Printf("%6s %12s %12s %8s\n", "C", "no-RDA", "RDA", "gain")
		for _, pt := range s.Points {
			fmt.Printf("%6.2f %12.0f %12.0f %7.1f%%\n", pt.X, pt.NoRDA, pt.RDA, pt.GainPct)
		}
	}
	fmt.Println()
}

func printFigure13() {
	s := model.Figure13(model.DefaultSizes)
	fmt.Println("== Figure 13: RDA benefit vs transaction size (record logging, NOFORCE/ACC, high update, C=0.9) ==")
	fmt.Printf("%6s %12s %12s %8s\n", "s", "no-RDA", "RDA", "gain")
	for _, pt := range s.Points {
		fmt.Printf("%6.0f %12.0f %12.0f %7.1f%%\n", pt.X, pt.NoRDA, pt.RDA, pt.GainPct)
	}
	fmt.Println()
}

func printOverhead() {
	fmt.Println("== Storage overhead (Section 6: about (100/N)% per parity copy) ==")
	fmt.Printf("%4s %14s %14s\n", "N", "single parity", "twin parity")
	for _, n := range []int{5, 10, 20, 40} {
		// Overhead relative to the data: (100/N)% per parity copy.
		fmt.Printf("%4d %13.1f%% %13.1f%%\n", n, 100.0/float64(n), 200.0/float64(n))
	}
	fmt.Println()
}

func printNSweep() {
	fmt.Println("== Ablation: RDA gain vs parity group width N (page logging, FORCE/TOC, high update, C=0.9) ==")
	fmt.Printf("%5s %10s %14s %10s\n", "N", "gain", "twin overhead", "p_l")
	for _, pt := range model.SweepN(model.DefaultWidths, 0.9) {
		fmt.Printf("%5d %9.1f%% %13.1f%% %10.4f\n", pt.N, pt.GainPct, pt.OverheadPct, pt.Pl)
	}
	fmt.Println()
}

func printReliability() {
	fmt.Println("== Reliability (introduction; 30,000 h disk MTTF, 24 h repair, 50 data disks) ==")
	cmp := model.CompareReliability(model.PaperDiskMTTFHours, 24, 50, 10)
	days := func(h float64) float64 { return h / model.HoursPerDay }
	fmt.Printf("  unprotected farm     : MTTF %8.1f days (the paper's \"less than 25 days\")\n", days(cmp.Unprotected))
	fmt.Printf("  mirrored (100%% extra): MTTDL %7.0f days\n", days(cmp.Mirrored))
	fmt.Printf("  RDA single (N=10, %2.0f%%): MTTDL %6.0f days\n", cmp.RDASingleOverheadPct, days(cmp.RDASingle))
	fmt.Printf("  RDA twin   (N=10, %2.0f%%): MTTDL %6.0f days\n", cmp.RDATwinOverheadPct, days(cmp.RDATwin))
	fmt.Println()
}

// selfHealBench measures the live engine under injected faults against a
// fault-free baseline of the same seeded workload: a background
// transient-error rate (masked by the retry layer), a disk death mid-run
// (served degraded, then rebuilt online after the interval), or both.
// It prints the committed-transaction cost of the faults and the
// self-healing counters that explain it.
func selfHealBench(transientRate, faildiskAt, budget, seed int64) error {
	fmt.Println("== Self-healing: live engine under injected faults (page logging FORCE/TOC, RDA, C=0.9) ==")
	// One harness seed, two named substreams: the workload and the fault
	// placement derive from it independently, so the whole run — fault
	// positions included — is bit-reproducible from -seed.
	src := workload.NewSource(seed)
	workloadSeed, faultSeed := src.Stream("workload"), src.Stream("fault")
	run := func(inject bool) (trace.Result, *rda.DB, error) {
		cfg := rda.DefaultConfig()
		cfg.Logging = rda.PageLogging
		cfg.EOT = rda.Force
		cfg.RDA = true
		cfg.PageSize = 256
		db, err := rda.Open(cfg)
		if err != nil {
			return trace.Result{}, nil, err
		}
		if inject {
			var sched fault.Schedule
			if faildiskAt >= 0 {
				sched = fault.Schedule{fault.FailDisk(0, faildiskAt)}
			}
			plane := fault.NewPlane(sched)
			if transientRate > 0 {
				plane.SetTransientEvery(transientRate)
			}
			plane.SetSeed(faultSeed)
			db.SetInjector(plane)
		}
		res, err := workload.Interval(db, highUpdate+",hot=0.9", workloadSeed, trace.Options{MaxTransfers: budget})
		return res, db, err
	}
	base, _, err := run(false)
	if err != nil {
		return err
	}
	faulted, db, err := run(true)
	if err != nil {
		return err
	}
	// Crash the faulted database while it is still degraded and recover
	// it with the dead member absent — the transient-error rate stays
	// live across recovery, so this also exercises retry masking inside
	// the recovery passes.
	db.Crash()
	rep, err := db.Recover()
	if err != nil {
		return fmt.Errorf("degraded recovery: %w", err)
	}
	// Finish any online rebuild the disk death left behind, and verify
	// the array came back whole.
	pre := db.Stats()
	steps := 0
	for {
		done, err := db.RebuildStep(0)
		if err != nil {
			return fmt.Errorf("online rebuild: %w", err)
		}
		if done {
			break
		}
		steps++
	}
	post := db.Stats()
	if err := db.VerifyParity(); err != nil {
		return fmt.Errorf("parity after rebuild: %w", err)
	}
	st := faulted.Stats
	fmt.Printf("  injected faults       : transient rate 1/%d, disk death at write %d\n", transientRate, faildiskAt)
	fmt.Printf("  committed             : %d faulted vs %d fault-free (%.1f%%), buffer hit rate %.3f at hot=0.9\n",
		faulted.Committed, base.Committed, 100*float64(faulted.Committed)/float64(base.Committed), hitRate(faulted.Stats))
	fmt.Printf("  retries               : %d transient errors masked, %d backoff units, %d auto fail-stops\n",
		st.IORetries, st.RetryBackoffUnits, st.AutoFailStops)
	fmt.Printf("  degraded serving      : %d reads reconstructed, %d writes without the dead member\n",
		st.DegradedReads, st.DegradedWrites)
	fmt.Printf("  degraded recovery     : %d loser(s) (%d via parity, %d via log, %d via reconstruction), %d deferred parity group(s), %d lost page(s)\n",
		rep.Losers, rep.UndoneViaParity, rep.UndoneViaLog,
		rep.UndoneViaReconstruction, rep.DeferredParityGroups, len(rep.LostPages))
	fmt.Printf("  online rebuild        : %d groups restored (%d after the interval, %d throttled steps, %d transfers)\n",
		post.RebuiltGroups, post.RebuiltGroups-st.RebuiltGroups, steps,
		post.DiskReads+post.DiskWrites-pre.DiskReads-pre.DiskWrites)
	fmt.Printf("  final health          : %v\n", db.Health())
	fmt.Println()
	return nil
}

// integrityBench measures the live engine under a background silent-
// corruption rate against a fault-free baseline of the same seeded
// workload: every n-th block write has one payload bit flipped after it
// lands, the online scrubber cycles concurrently with the transactions,
// and every flipped block must be transparently repaired from parity —
// on the read path or by the scrubber — before any transaction sees it.
// It prints the committed-transaction cost of the verification and
// repair traffic and the integrity counters that explain it.
func integrityBench(rate, budget, seed int64) error {
	fmt.Println("== Integrity plane: live engine under background bit flips (page logging FORCE/TOC, RDA, C=0.9) ==")
	// Same shared-source discipline as selfHealBench: workload and fault
	// placement are independent substreams of the one harness seed.
	src := workload.NewSource(seed)
	workloadSeed, faultSeed := src.Stream("workload"), src.Stream("fault")
	run := func(inject bool) (trace.Result, *rda.DB, error) {
		cfg := rda.DefaultConfig()
		cfg.Logging = rda.PageLogging
		cfg.EOT = rda.Force
		cfg.RDA = true
		cfg.PageSize = 256
		db, err := rda.Open(cfg)
		if err != nil {
			return trace.Result{}, nil, err
		}
		if inject {
			plane := fault.NewPlane(nil)
			plane.SetBitFlipEvery(rate)
			plane.SetSeed(faultSeed)
			db.SetInjector(plane)
		}
		// The scrubber cycles continuously beside the workload, as it
		// would in production; the stop channel ends it with the run.
		stop := make(chan struct{})
		scrubDone := make(chan error, 1)
		go func() {
			for {
				res := <-db.StartScrub()
				if res.Err != nil {
					scrubDone <- res.Err
					return
				}
				select {
				case <-stop:
					scrubDone <- nil
					return
				default:
				}
			}
		}()
		res, err := workload.Interval(db, highUpdate+",hot=0.9", workloadSeed, trace.Options{MaxTransfers: budget})
		close(stop)
		if serr := <-scrubDone; err == nil && serr != nil {
			err = fmt.Errorf("online scrub: %w", serr)
		}
		return res, db, err
	}
	base, _, err := run(false)
	if err != nil {
		return err
	}
	faulted, db, err := run(true)
	if err != nil {
		return err
	}
	// Stop the corruption, sweep the residue with one full scrub cycle,
	// and prove the array is whole again.
	db.SetInjector(nil)
	if res := <-db.StartScrub(); res.Err != nil {
		return fmt.Errorf("final scrub: %w", res.Err)
	}
	if err := db.VerifyParity(); err != nil {
		return fmt.Errorf("parity after repairs: %w", err)
	}
	st := db.Stats()
	fmt.Printf("  injected faults       : one payload bit flipped every %d block write(s)\n", rate)
	fmt.Printf("  committed             : %d faulted vs %d fault-free (%.1f%%), buffer hit rate %.3f at hot=0.9\n",
		faulted.Committed, base.Committed, 100*float64(faulted.Committed)/float64(base.Committed), hitRate(faulted.Stats))
	fmt.Printf("  detection             : %d corrupt block(s) caught by verified reads and scrubbing\n",
		st.CorruptBlocksDetected)
	fmt.Printf("  repair                : %d read repair(s) on the hot path, %d parity repair(s), %d scrub repair(s), %d group(s) scrubbed\n",
		st.ReadRepairs, st.ParityRepairs, st.ScrubRepairs, st.ScrubbedGroups)
	fmt.Printf("  transfer overhead     : %d faulted vs %d fault-free array transfers (%.1f%%)\n",
		faulted.Stats.DiskReads+faulted.Stats.DiskWrites, base.Stats.DiskReads+base.Stats.DiskWrites,
		100*float64(faulted.Stats.DiskReads+faulted.Stats.DiskWrites)/float64(base.Stats.DiskReads+base.Stats.DiskWrites))
	fmt.Printf("  unrecoverable         : %d (double faults beyond single parity)\n", st.UnrecoverableCorruption)
	fmt.Println()
	return nil
}

// liveCrossCheck measures the paper's headline comparison — page logging
// FORCE/TOC with and without RDA — on the real engine over a sweep of C.
// Both sides of each comparison run the same seeded workload.
func liveCrossCheck(budget, seed int64) error {
	fmt.Println("== Live engine cross-check: page logging FORCE/TOC (cf. Figure 9) ==")
	fmt.Printf("%6s %6s %12s %12s %8s %16s\n", "C", "hit", "no-RDA tx", "RDA tx", "gain", "log transfers Δ")
	for _, c := range []float64{0.0, 0.3, 0.6, 0.9} {
		run := func(useRDA bool) (trace.Result, error) {
			cfg := rda.DefaultConfig()
			cfg.Logging = rda.PageLogging
			cfg.EOT = rda.Force
			cfg.RDA = useRDA
			cfg.PageSize = 256 // keep memory modest; transfers are size independent
			db, err := rda.Open(cfg)
			if err != nil {
				return trace.Result{}, err
			}
			spec := fmt.Sprintf("%s,hot=%g", highUpdate, c)
			return workload.Interval(db, spec, seed, trace.Options{MaxTransfers: budget, CrashAtEnd: true})
		}
		no, err := run(false)
		if err != nil {
			return err
		}
		yes, err := run(true)
		if err != nil {
			return err
		}
		gain := 100 * (float64(yes.Committed) - float64(no.Committed)) / float64(no.Committed)
		fmt.Printf("%6.2f %6.3f %12d %12d %7.1f%% %16d\n",
			c, hitRate(yes.Stats), no.Committed, yes.Committed, gain,
			no.Stats.LogWriteTransfers-yes.Stats.LogWriteTransfers)
	}
	return nil
}

// highUpdate is the paper's high-update environment (P=6, s=10, f_u=0.8,
// p_u=0.9, p_b=0.01) as a workload spec; callers append hot=C.
const highUpdate = "uniform:streams=6,s=10,fu=0.8,pu=0.9,pb=0.01"

// hitRate is the buffer hit rate a run measured — the communality C the
// engine saw, printed beside the generator's hot knob.
func hitRate(st rda.Stats) float64 {
	if st.BufferHits+st.BufferMisses == 0 {
		return 0
	}
	return float64(st.BufferHits) / float64(st.BufferHits+st.BufferMisses)
}
