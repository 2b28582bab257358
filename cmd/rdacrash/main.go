// Command rdacrash crashes the RDA engine at every point of a seeded
// workload and verifies recovery each time, for both array layouts.
//
// There is one cycle — workload, crash, recovery, rebuild, scrub, oracle,
// probe — and every flag is an axis of it.  With no -soak and no -sched it
// is the exhaustive sweep, a crash at every block write index:
//
//	rdacrash                       # healthy array, clean crashes
//	rdacrash -torn                 # tear write k itself instead of dropping it
//	rdacrash -dead 1               # one disk down: dead from the start (crash
//	                               # points reach into the online rebuild), and
//	                               # dying at the crash write itself
//	rdacrash -dead 2 -qparity      # the same with two down on a P+Q array
//	rdacrash -dead 1 -qparity -torn  # any combination: a dead disk, a second
//	                               # equation and a torn block in one schedule
//	rdacrash -noforce [-records]   # engine ¬FORCE (checkpoints in the
//	                               # workload), so restarts REDO winners
//	rdacrash -queue-depth 8        # async pipeline: crash at every dequeue
//	rdacrash -frames 16            # a pool that keeps a transaction's pages to
//	                               # its EOT: crash inside the per-group flush chain
//
// -soak draws random schedules over derived seeds instead, from one of
// three generators:
//
//	rdacrash -soak crash -seed 7 -iters 200
//	rdacrash -soak mix -transient 50 -seed 7 -iters 50     # disk deaths, crashes
//	                               # and both, under a masked transient-error rate
//	rdacrash -soak corrupt -scrub -seed 7 -iters 100       # bit flips, lost and
//	                               # misdirected writes, scrubbing interleaved
//
// Every failure prints its seed and schedule beside the axis flags it ran
// under; -sched replays exactly that line, whatever produced it:
//
//	rdacrash -layout data -seed <seed> -sched "crash@w12"
//	rdacrash -qparity -layout data -seed <seed> -sched "faildisk[0]@w0 faildisk[3]@w2 torn[head]@w2"
//	rdacrash -scrub -layout parity -seed <seed> -sched "misdirected[21]@w6 crash@w9"
//
// The exit status is non-zero if any run violated a recovery invariant.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/fault"
	"repro/rda"
	"repro/rda/crashcheck"
)

func main() {
	var (
		dead    = flag.Int("dead", 0, "drives dead from the start (0, 1, or 2 with -qparity); the sweep adds the family where the last of them dies at the crash write itself")
		qparity = flag.Bool("qparity", false, "P+Q array: two redundancy equations per group")
		torn    = flag.Bool("torn", false, "sweep: tear the crashed write (half payload persists) instead of dropping it")
		noforce = flag.Bool("noforce", false, "run the engine ¬FORCE with checkpoints in the workload, so every restart has winners to REDO")
		records = flag.Bool("records", false, "record logging: every workload write is one record slot, several log images per page")
		scrub   = flag.Bool("scrub", false, "interleave online scrub steps with the workload and end every run with a full scrub cycle")
		trans   = flag.Int64("transient", 0, "fail every n-th disk access with a transient error the retry layer must mask (0 disables)")
		soak    = flag.String("soak", "", "randomized schedules over derived seeds instead of the sweep: crash, mix or corrupt")
		seed    = flag.Int64("seed", 1, "workload seed (soak: master seed for derived runs)")
		iters   = flag.Int("iters", 100, "soak iterations")
		txns    = flag.Int("txns", 0, "transactions per workload (0 = default)")
		ops     = flag.Int("ops", 0, "page operations per transaction (0 = default)")
		frames  = flag.Int("frames", 0, "buffer pool frames (0 = default 6, fewer than a transaction touches; 16 keeps its pages resident to the EOT flush)")
		sched   = flag.String("sched", "", `replay one schedule (e.g. "crash@w12" or "faildisk[0]@w0 torn[head]@w3") and exit`)
		layouts = flag.String("layout", "both", "array layout: data, parity, or both")
		workers = flag.Int("workers", 0, "engine-internal parallelism for recovery/rebuild scans (0 = deterministic single worker)")
		qdepth  = flag.Int("queue-depth", 0, "per-drive request queue depth; > 1 enables the async I/O pipeline, so crash sweeps land at every queue-DEQUEUE index (0/1 = synchronous, byte-replayable)")
	)
	flag.Parse()

	var lays []rda.Layout
	switch *layouts {
	case "data":
		lays = []rda.Layout{rda.DataStriping}
	case "parity":
		lays = []rda.Layout{rda.ParityStriping}
	case "both":
		lays = []rda.Layout{rda.DataStriping, rda.ParityStriping}
	default:
		fmt.Fprintf(os.Stderr, "rdacrash: unknown -layout %q\n", *layouts)
		os.Exit(2)
	}
	var replay fault.Schedule
	if *sched != "" {
		var err error
		if replay, err = fault.ParseSchedule(*sched); err != nil {
			fmt.Fprintf(os.Stderr, "rdacrash: %v\n", err)
			os.Exit(2)
		}
	}

	// axes is what a replay line needs beside layout, seed and schedule:
	// every engine and workload flag as given.  What picks the schedules
	// stays out — the schedule itself carries its deaths and its cut.
	axes := ""
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "dead", "torn", "soak", "iters", "seed", "sched", "layout":
			return
		}
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
			axes += "-" + f.Name + " "
		} else {
			axes += fmt.Sprintf("-%s %s ", f.Name, f.Value)
		}
	})

	failed := false
	for _, l := range lays {
		opts := crashcheck.Options{
			Layout: l, Seed: *seed, Txns: *txns, OpsPerTx: *ops, Frames: *frames,
			Dead: *dead, QParity: *qparity, Torn: *torn, NoForce: *noforce, Records: *records,
			Scrub: *scrub, TransientEvery: *trans, Workers: *workers, QueueDepth: *qdepth,
		}
		if replay != nil {
			rep, _, err := crashcheck.Run(opts, replay)
			if rep != nil {
				fmt.Printf("%v: recovery report: losers=%d undoneViaParity=%d undoneViaLog=%d undoneViaReconstruction=%d deferredParityGroups=%d lostPages=%d\n",
					l, rep.Losers, rep.UndoneViaParity, rep.UndoneViaLog,
					rep.UndoneViaReconstruction, rep.DeferredParityGroups, len(rep.LostPages))
			}
			if err != nil {
				fmt.Printf("%v: FAIL seed=%d sched=%q: %v\n", l, *seed, replay, err)
				failed = true
			} else {
				fmt.Printf("%v: ok seed=%d sched=%q\n", l, *seed, replay)
			}
			continue
		}
		var res *crashcheck.Result
		var err error
		if *soak != "" {
			res, err = crashcheck.Soak(opts, *iters, crashcheck.Generator(*soak))
		} else {
			cut := "clean"
			if *torn {
				cut = "torn"
			}
			res, err = crashcheck.Sweep(opts, func(done, total int64) {
				if done%64 == 0 || done == total {
					fmt.Printf("\r%v: %s crash %d/%d", l, cut, done, total)
				}
			})
			fmt.Println()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rdacrash: %v\n", err)
			os.Exit(1)
		}
		report(l, res, axes)
		failed = failed || len(res.Violations) > 0
	}
	if failed {
		os.Exit(1)
	}
}

func report(l rda.Layout, res *crashcheck.Result, axes string) {
	fmt.Printf("%v: %d run(s), %d write(s) per workload, %d violation(s)\n",
		l, res.Runs, res.TotalWrites, len(res.Violations))
	if res.UndoneViaReconstruction+res.DeferredParityGroups+res.DataLossRuns > 0 {
		fmt.Printf("%v: degraded recovery: %d undo(s) via reconstruction, %d deferred parity group(s), %d run(s) with explicit loss (%d page(s))\n",
			l, res.UndoneViaReconstruction, res.DeferredParityGroups, res.DataLossRuns, res.LostPages)
	}
	if res.CorruptBlocksDetected+res.ScrubbedGroups > 0 {
		fmt.Printf("%v: integrity: %d corrupt block(s) detected, %d read repair(s), %d scrub repair(s), %d group(s) scrubbed, %d unrecoverable\n",
			l, res.CorruptBlocksDetected, res.ReadRepairs, res.ScrubRepairs, res.ScrubbedGroups, res.UnrecoverableCorruption)
	}
	for _, v := range res.Violations {
		fmt.Printf("  FAIL %s\n", v)
		fmt.Printf("       replay: rdacrash %s-layout %s -seed %d -sched %q\n", axes, layoutFlag(l), v.Seed, v.Schedule)
	}
}

func layoutFlag(l rda.Layout) string {
	if l == rda.ParityStriping {
		return "parity"
	}
	return "data"
}
