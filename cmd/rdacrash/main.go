// Command rdacrash explores crash points of the RDA engine.
//
// Exhaustive mode crashes a deterministic seeded workload at every block
// write index and verifies recovery each time, for both array layouts:
//
//	rdacrash -explore
//	rdacrash -explore -torn        # tear each write instead
//
// Soak mode runs randomized crash points over derived seeds:
//
//	rdacrash -soak -seed 7 -iters 200
//
// Mix mode is the self-healing soak: every run executes under a
// background transient-error rate (masked by the retry layer), and
// iterations alternate between random crash points and mid-run disk
// deaths served degraded and rebuilt online:
//
//	rdacrash -mix -seed 7 -iters 50 -transient 50
//
// Degraded mode is the exhaustive sweep with one disk down: it crashes
// the workload at every write index while a disk is dead from the start
// (covering crash points inside the restarted online rebuild, too), then
// sweeps schedules where the disk death *coincides* with the crash
// write:
//
//	rdacrash -degraded
//
// Double mode is the same sweep against a P+Q (RAID-6 style) array with
// TWO disks down: one family runs with both disks dead from the start
// (crash points spanning the double-degraded workload and the two-drive
// rebuild), the other kills the second disk at the crash write itself:
//
//	rdacrash -double
//
// Both take -torn, which tears the crash write in every family instead of
// dropping it — a dead disk and a torn block in one schedule:
//
//	rdacrash -degraded -torn
//	rdacrash -double -torn
//
// Every mode takes -noforce, which runs the engine ¬FORCE (checkpoints
// inside the workload) so that restarts REDO winners from the log:
//
//	rdacrash -explore -noforce
//	rdacrash -degraded -noforce
//
// Corrupt mode is the silent-corruption soak: every run plants a bit
// flip, lost write or misdirected write at a random write index (half
// the runs crash afterwards too) while online scrub steps interleave
// with the workload, and every read is held to the integrity plane's
// oracle — committed data is never served corrupt:
//
//	rdacrash -corrupt -seed 7 -iters 100
//
// Every failure prints its seed and schedule; replay one with:
//
//	rdacrash -seed <seed> -sched "crash@w12"
//	rdacrash -degraded -seed <seed> -sched "faildisk[0]@w0 crash@w13"
//	rdacrash -double -seed <seed> -sched "faildisk[0]@w0 faildisk[3]@w9 crash@w9"
//	rdacrash -double -seed <seed> -sched "faildisk[0]@w0 faildisk[3]@w2 torn[head]@w2"
//	rdacrash -corrupt -seed <seed> -sched "misdirected[21]@w6 crash@w9"
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
		explore  = flag.Bool("explore", false, "exhaustively crash at every write index")
		degraded = flag.Bool("degraded", false, "exhaustive crash sweep with one disk down: crashes across the degraded workload, the online rebuild, and coinciding with the disk death itself")
		double   = flag.Bool("double", false, "exhaustive double-fault crash sweep on a P+Q array: two disks dead from the start, plus a second death coinciding with the crash write")
		soak     = flag.Bool("soak", false, "randomized crash points over derived seeds")
		corrupt  = flag.Bool("corrupt", false, "silent-corruption soak: random bit flips, lost and misdirected writes (half crashed on top) with online scrubbing interleaved")
		mix      = flag.Bool("mix", false, "self-healing soak: transient faults everywhere, alternating crashes and mid-run disk deaths")
		trans    = flag.Int64("transient", 50, "mix mode: fail every n-th disk access with a transient error (0 disables)")
		torn     = flag.Bool("torn", false, "explore/degraded/double: tear the crashed write (half payload persists) instead of dropping it")
		noforce  = flag.Bool("noforce", false, "run the engine ¬FORCE with checkpoints in the workload, so every restart has winners to REDO")
		seed     = flag.Int64("seed", 1, "workload seed (soak: master seed for derived runs)")
		iters    = flag.Int("iters", 100, "soak iterations")
		txns     = flag.Int("txns", 0, "transactions per workload (0 = default)")
		ops      = flag.Int("ops", 0, "page operations per transaction (0 = default)")
		sched    = flag.String("sched", "", `replay one schedule (e.g. "crash@w12" or "torn[head]@w3") and exit`)
		layouts  = flag.String("layout", "both", "array layout: data, parity, or both")
		workers  = flag.Int("workers", 0, "engine-internal parallelism for recovery/rebuild scans (0 = deterministic single worker)")
		qdepth   = flag.Int("queue-depth", 0, "per-drive request queue depth; > 1 enables the async I/O pipeline, so crash sweeps land at every queue-DEQUEUE index (0/1 = synchronous, byte-replayable)")
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

	opts := func(l rda.Layout) crashcheck.Options {
		return crashcheck.Options{Layout: l, Seed: *seed, Txns: *txns, OpsPerTx: *ops, Torn: *torn, NoForce: *noforce, Workers: *workers, QueueDepth: *qdepth}
	}

	// replay is what a printed replay line needs beside its mode flag.
	replay := ""
	if *noforce {
		replay = "-noforce "
	}

	failed := false
	switch {
	case *sched != "":
		s, err := fault.ParseSchedule(*sched)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rdacrash: %v\n", err)
			os.Exit(2)
		}
		for _, l := range lays {
			// Mix- and degraded-mode replays (disk deaths, transient
			// rates) need their own harness; add -mix/-degraded (and the
			// original -transient rate) to the replay command line.
			var err error
			switch {
			case *corrupt:
				o := opts(l)
				o.Scrub = true
				_, err = crashcheck.RunCorruptSchedule(o, s)
			case *degraded, *double:
				o := opts(l)
				o.QParity = *double
				var rep *rda.RecoveryReport
				rep, err = crashcheck.RunDegradedSchedule(o, s)
				if rep != nil {
					fmt.Printf("%v: recovery report: losers=%d undoneViaParity=%d undoneViaLog=%d undoneViaReconstruction=%d deferredParityGroups=%d lostPages=%d\n",
						l, rep.Losers, rep.UndoneViaParity, rep.UndoneViaLog,
						rep.UndoneViaReconstruction, rep.DeferredParityGroups, len(rep.LostPages))
				}
			case *mix:
				err = crashcheck.RunMixSchedule(opts(l), s, *trans)
			default:
				err = crashcheck.RunSchedule(opts(l), s)
			}
			if err != nil {
				fmt.Printf("%v: FAIL seed=%d sched=%q: %v\n", l, *seed, s, err)
				failed = true
			} else {
				fmt.Printf("%v: ok seed=%d sched=%q\n", l, *seed, s)
			}
		}
	case *double:
		for _, l := range lays {
			res, err := crashcheck.ExploreDouble(opts(l), func(done, total int64) {
				if done%64 == 0 || done == total {
					fmt.Printf("\r%v: double-fault crash %d/%d", l, done, total)
				}
			})
			fmt.Println()
			if err != nil {
				fmt.Fprintf(os.Stderr, "rdacrash: %v\n", err)
				os.Exit(1)
			}
			report(l, res, replay+"-double ")
			failed = failed || len(res.Violations) > 0
		}
	case *degraded:
		for _, l := range lays {
			res, err := crashcheck.ExploreDegraded(opts(l), func(done, total int64) {
				if done%64 == 0 || done == total {
					fmt.Printf("\r%v: degraded crash %d/%d", l, done, total)
				}
			})
			fmt.Println()
			if err != nil {
				fmt.Fprintf(os.Stderr, "rdacrash: %v\n", err)
				os.Exit(1)
			}
			report(l, res, replay+"-degraded ")
			failed = failed || len(res.Violations) > 0
		}
	case *explore:
		for _, l := range lays {
			mode := "clean"
			if *torn {
				mode = "torn"
			}
			res, err := crashcheck.Explore(opts(l), func(done, total int64) {
				if done%64 == 0 || done == total {
					fmt.Printf("\r%v: %s crash %d/%d", l, mode, done, total)
				}
			})
			fmt.Println()
			if err != nil {
				fmt.Fprintf(os.Stderr, "rdacrash: %v\n", err)
				os.Exit(1)
			}
			report(l, res, replay)
			failed = failed || len(res.Violations) > 0
		}
	case *corrupt:
		for _, l := range lays {
			res, err := crashcheck.CorruptSoak(opts(l), *iters)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rdacrash: %v\n", err)
				os.Exit(1)
			}
			report(l, res, replay+"-corrupt ")
			fmt.Printf("%v: integrity: %d corrupt block(s) detected, %d read repair(s), %d scrub repair(s), %d group(s) scrubbed, %d unrecoverable\n",
				l, res.CorruptBlocksDetected, res.ReadRepairs, res.ScrubRepairs, res.ScrubbedGroups, res.UnrecoverableCorruption)
			failed = failed || len(res.Violations) > 0
		}
	case *mix:
		for _, l := range lays {
			res, err := crashcheck.MixSoak(opts(l), *iters, *trans)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rdacrash: %v\n", err)
				os.Exit(1)
			}
			report(l, res, replay+fmt.Sprintf("-mix -transient %d ", *trans))
			failed = failed || len(res.Violations) > 0
		}
	case *soak:
		for _, l := range lays {
			res, err := crashcheck.Soak(opts(l), *iters)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rdacrash: %v\n", err)
				os.Exit(1)
			}
			report(l, res, replay)
			failed = failed || len(res.Violations) > 0
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

func report(l rda.Layout, res *crashcheck.Result, extra string) {
	fmt.Printf("%v: %d run(s), %d write(s) per workload, %d violation(s)\n",
		l, res.Runs, res.TotalWrites, len(res.Violations))
	if res.UndoneViaReconstruction+res.DeferredParityGroups+res.DataLossRuns > 0 {
		fmt.Printf("%v: degraded recovery: %d undo(s) via reconstruction, %d deferred parity group(s), %d run(s) with explicit loss (%d page(s))\n",
			l, res.UndoneViaReconstruction, res.DeferredParityGroups, res.DataLossRuns, res.LostPages)
	}
	for _, v := range res.Violations {
		fmt.Printf("  FAIL %s\n", v)
		fmt.Printf("       replay: rdacrash %s-layout %s -seed %d -sched %q\n", extra, layoutFlag(l), v.Seed, v.Schedule)
	}
}

func layoutFlag(l rda.Layout) string {
	if l == rda.ParityStriping {
		return "parity"
	}
	return "data"
}
