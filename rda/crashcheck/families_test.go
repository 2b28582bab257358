package crashcheck

import (
	"regexp"
	"testing"

	"repro/rda"
)

// familyRow is one crash family and its gate: the Options of a Sweep, or of a
// Soak with its generator and iterations, run on both layouts (data striping
// first) unless dataOnly.  The gate is one of three, one entry per layout:
//
//   - want: the exact counts the family prints, and no violation;
//   - runs: the run count, and no violation — the dead-disk sweeps on queued
//     drives, whose degraded-recovery counters vary from run to run;
//   - ceiling: at most that many violations, none carrying a forbidden text
//     — the dead-disk corruption soak, ROADMAP item 1(d).
type familyRow struct {
	name     string
	opts     Options
	soak     Generator // "" for Sweep
	iters    int
	dataOnly bool

	want    []counts
	runs    []int
	ceiling []int
}

// forbidden is what no violation of a ceiling row may say: an integrity
// error or a dead drive's read reaching a transaction.
var forbidden = regexp.MustCompile(`stored payload differs|checksum mismatch|location stamp mismatch|drive has failed`)

// counts is what a sweep or soak prints: the numbers a harness edit that
// silently drops a family or shifts an rng draw would move.
type counts struct {
	runs                              int
	writes                            int64
	undos, deferred, lossRuns, lost   int
	detected, read, scrubbed, scanned int64
}

// families is every crash family this repository gates, each with its gate.
// The counts of the CI-size rows were recorded at ab08b1e, before the eleven
// entry points became three (EXPERIMENTS.md has the full table), and
// re-recorded since only with a reason, given here:
//
//   - When the EOT flush chain stopped self-demoting (one header rewrite per
//     equation fewer for each group committing two resident pages), the
//     parity-striping queued sweep went 54 → 53 writes, and the soaks moved:
//     their derived workloads are longer and their schedules are drawn
//     against the write count, so every count after the first shorter
//     workload moves with it.  The 6-frame sweeps on synchronous drives
//     stood: their pages are evicted before the EOT.
//   - When a FORCE commit to groups that keep their redundancy stopped
//     logging after-images, it stopped reading stolen pages back.  No write
//     moved, only reads, which moved which access a drive dying at the
//     crash write dies at (dead1 data striping undos 29 → 26), which access
//     of the mix soak takes every 50th transient error, and which corrupt
//     soak blocks the scrub, not the EOT read-back, finds (read −1,
//     scrubbed +1) or a write overwrites first (detected −1).
//     EXPERIMENTS.md traces each run.
//   - When a scheduled cut began always to fire.  A crash that met an
//     injected transient error, or a drive fail-stopping at the crash write
//     itself, used to be swallowed: the disk answered with the error, the
//     engine retried or saw the death, and the run went on with no restart.
//     A tear scheduled on a header write passed the write by.  A Sweep run
//     that never restarts is now a violation; there were about 1 080 of
//     them in 31 of these rows (torn 7 and 9, dead1 5 and 8; EXPERIMENTS.md
//     has every row).  They now restart, so runs, writes, violations and
//     every healthy row stand, and only degraded counters moved, each up:
//     every dead1, dead2 and small-dead row (dead1 undos / deferred / loss
//     runs / lost 26/356/9/12 → 29/376/11/14 and 22/340/10/11 →
//     29/372/11/12; dead2 deferred 1134 → 1204 and 1554 → 1652), and
//     soak-mix, where two data-striping runs whose drive dies at the crash
//     write and one parity-striping run whose crash write takes a transient
//     error now restart (data undos 2 → 4, deferred 40 → 48; parity
//     deferred 40 → 44, loss runs 2 → 3).
//   - When a dirty frame began to keep its disk version under ¬FORCE too,
//     and an abort to leave a frame it rewound clean.  The ten ¬FORCE rows
//     write less, since such an aborted, unchanged frame used to be
//     written back: the seed-1 rows 66/67 → 50/51 runs and writes, the
//     seed-2 rows 73/72 → 69/68, dead1-noforce 104/102 → 92/90 runs and
//     44/41 → 38/35 writes, dead1-noforce-seed2 and its records twin
//     100/99 → 93/92 runs and 41/41 → 38/38 writes, 0 violations
//     throughout.  The dead1 rows' counters move with where a drive dying
//     at the crash write dies.  dead1-noforce data striping, undos
//     10 → 11: the steal of page 4 no longer re-reads the page from the
//     dying drive, so the death goes unseen until the restart, which
//     undoes the loser's stolen page 3 by reconstruction; the steal used
//     to see it, demote the group and leave the restart the page's
//     before-image on the log.  Its parity striping, loss runs 3 → 2: the
//     gone write-back had flipped group 5's twins, so the cut that lost a
//     page when drive 3 died under page 9's flip now falls on the other
//     twin's drive.  dead1-noforce-seed2 parity striping, undos 14 → 15:
//     the coinciding family kills drive k mod 6 at write k, and the two
//     writes where drive 1's death costs a reconstruction undo moved from
//     w35–36 to w31–32, where w31 is drive 1's.
//   - When Sweep gained its third family, a replacement drive dying at
//     every write of the online rebuild, each dead-disk sweep row gained
//     one run per rebuild write and no other count moved: a one-drive
//     rebuild writes 12 blocks (16 on P+Q parity striping), the two-drive
//     rebuild of the dead2 rows 24 on data and 32 on parity striping.  At
//     the commit before it (with the rebuild pump already retrying a
//     drive death) the dead2 and dead2-torn rows failed 22 of the 24 new
//     runs on data striping and 24 of 32 on parity striping, small-dead2
//     22 of 24, small-dead2-torn 22 of 24 and 14 of 32: a replacement
//     dying under a two-drive rebuild left the restored flags of the
//     groups rebuilt onto it standing.
//
// The two CI corruption soaks (soak-corrupt, soak-corrupt-seed42) stand at 0
// runs with loss: a steal must never take its committed twin from memory (a
// lost parity write would then cost the page at the next crash).
//
// `go test -run 'TestFamilies/^name$'` replays one row; the rdacrash flags
// of its Options replay it on the command line.
var families = []familyRow{
	// The CI-size sweeps: the default workload at four transactions (three
	// with a dead disk), ten operations each.
	{name: "clean", opts: Options{Seed: 1, Txns: 4}, want: []counts{{runs: 52, writes: 52}, {runs: 54, writes: 54}}},
	{name: "torn", opts: Options{Seed: 1, Txns: 4, Torn: true}, want: []counts{{runs: 52, writes: 52}, {runs: 54, writes: 54}}},
	{name: "noforce", opts: Options{Seed: 1, Txns: 4, NoForce: true}, want: []counts{
		{runs: 50, writes: 50},
		{runs: 51, writes: 51}}},
	{name: "noforce-torn", opts: Options{Seed: 1, Txns: 4, NoForce: true, Torn: true}, want: []counts{
		{runs: 50, writes: 50},
		{runs: 51, writes: 51}}},
	{name: "noforce-records", opts: Options{Seed: 1, Txns: 4, NoForce: true, Records: true}, want: []counts{
		{runs: 50, writes: 50},
		{runs: 51, writes: 51}}},
	{name: "queued", opts: Options{Seed: 1, Txns: 4, QueueDepth: 8}, want: []counts{{runs: 52, writes: 52}, {runs: 53, writes: 53}}},
	// Sixteen frames keep a transaction's pages to its EOT: the sweeps that
	// cut inside the flush chain (32 and 49 writes on data striping when
	// every second page demoted the first one's steal).
	{name: "frames16", opts: Options{Seed: 1, Txns: 4, Frames: 16}, want: []counts{{runs: 30, writes: 30}, {runs: 34, writes: 34}}},
	{name: "frames16-torn", opts: Options{Seed: 1, Txns: 4, Frames: 16, Torn: true}, want: []counts{
		{runs: 30, writes: 30},
		{runs: 34, writes: 34}}},
	{name: "frames16-qparity", opts: Options{Seed: 1, Txns: 4, Frames: 16, QParity: true}, want: []counts{
		{runs: 45, writes: 45},
		{runs: 48, writes: 48}}},
	{name: "frames16-records", opts: Options{Seed: 1, Txns: 4, Frames: 16, Records: true}, want: []counts{
		{runs: 30, writes: 30},
		{runs: 34, writes: 34}}},
	{name: "frames16-queued", opts: Options{Seed: 1, Txns: 4, Frames: 16, QueueDepth: 8}, want: []counts{
		{runs: 30, writes: 30},
		{runs: 30, writes: 30}}},
	{name: "dead1", opts: Options{Seed: 1, Txns: 3, Dead: 1}, want: []counts{
		{runs: 106, writes: 38, undos: 29, deferred: 376, lossRuns: 11, lost: 14},
		{runs: 105, writes: 35, undos: 29, deferred: 372, lossRuns: 11, lost: 12}}},
	{name: "dead1-torn", opts: Options{Seed: 1, Txns: 3, Dead: 1, Torn: true}, want: []counts{
		{runs: 106, writes: 38, undos: 35, deferred: 376, lossRuns: 31, lost: 44},
		{runs: 105, writes: 35, undos: 31, deferred: 372, lossRuns: 26, lost: 36}}},
	{name: "dead1-noforce", opts: Options{Seed: 1, Txns: 3, Dead: 1, NoForce: true}, want: []counts{
		{runs: 104, writes: 38, undos: 11, deferred: 368, lossRuns: 3, lost: 3},
		{runs: 102, writes: 35, undos: 12, deferred: 360, lossRuns: 2, lost: 2}}},
	{name: "dead1-frames16", opts: Options{Seed: 1, Txns: 3, Dead: 1, Frames: 16}, want: []counts{
		{runs: 82, writes: 28, undos: 27, deferred: 280, lossRuns: 8, lost: 12},
		{runs: 83, writes: 25, undos: 24, deferred: 284, lossRuns: 10, lost: 11}}},
	// One dead drive on P+Q, untorn, synchronous: every write of a FORCE
	// flush goes to a degraded group through the logging path.
	{name: "dead1-qparity", opts: Options{Seed: 1, Txns: 3, Dead: 1, QParity: true}, want: []counts{
		{runs: 147, writes: 56, undos: 57, deferred: 742},
		{runs: 161, writes: 57, undos: 54, deferred: 1160}}},
	{name: "dead1-qparity-torn", opts: Options{Seed: 1, Txns: 3, Dead: 1, QParity: true, Torn: true}, want: []counts{
		{runs: 147, writes: 56, undos: 57, deferred: 742},
		{runs: 161, writes: 57, undos: 54, deferred: 1160}}},
	{name: "dead1-qparity-frames16", opts: Options{Seed: 1, Txns: 3, Dead: 1, QParity: true, Frames: 16}, want: []counts{
		{runs: 109, writes: 40, undos: 43, deferred: 533},
		{runs: 121, writes: 41, undos: 44, deferred: 840}}},
	// Degraded solves, the degraded restart and the resumed rebuild through
	// the batched reader of queued drives.
	{name: "dead1-queued", opts: Options{Seed: 1, Txns: 3, Dead: 1, QueueDepth: 8}, runs: []int{106, 104}},
	{name: "dead1-qparity-queued", opts: Options{Seed: 1, Txns: 3, Dead: 1, QParity: true, QueueDepth: 8}, runs: []int{147, 161}},
	{name: "dead2", opts: Options{Seed: 1, Txns: 4, Dead: 2, QParity: true}, want: []counts{
		{runs: 176, writes: 60, deferred: 1204},
		{runs: 181, writes: 55, deferred: 1652}}},
	{name: "dead2-torn", opts: Options{Seed: 1, Txns: 4, Dead: 2, QParity: true, Torn: true}, want: []counts{
		{runs: 176, writes: 60, deferred: 1204, lossRuns: 29, lost: 40},
		{runs: 181, writes: 55, deferred: 1652, lossRuns: 18, lost: 24}}},

	// The small sweeps: four transactions of three operations.
	{name: "small", opts: Options{Seed: 1, Txns: 4, OpsPerTx: 3}, want: []counts{{runs: 16, writes: 16}, {runs: 16, writes: 16}}},
	{name: "small-torn", opts: Options{Seed: 1, Txns: 4, OpsPerTx: 3, Torn: true}, want: []counts{
		{runs: 16, writes: 16},
		{runs: 16, writes: 16}}},
	{name: "small-queued", opts: Options{Seed: 1, Txns: 4, OpsPerTx: 3, QueueDepth: 4}, want: []counts{
		{runs: 16, writes: 16},
		{runs: 16, writes: 16}}},
	{name: "small-queued-torn", opts: Options{Seed: 1, Txns: 4, OpsPerTx: 3, QueueDepth: 4, Torn: true}, want: []counts{
		{runs: 16, writes: 16},
		{runs: 16, writes: 16}}},
	{name: "small-dead1", opts: Options{Seed: 1, Txns: 4, OpsPerTx: 3, Dead: 1}, want: []counts{
		{runs: 56, writes: 16, undos: 6, deferred: 176, lossRuns: 2, lost: 2},
		{runs: 53, writes: 13, undos: 7, deferred: 164, lossRuns: 3, lost: 3}}},
	{name: "small-dead1-torn", opts: Options{Seed: 1, Txns: 4, OpsPerTx: 3, Dead: 1, Torn: true}, want: []counts{
		{runs: 56, writes: 16, undos: 8, deferred: 176, lossRuns: 13, lost: 19},
		{runs: 53, writes: 13, undos: 7, deferred: 164, lossRuns: 12, lost: 18}}},
	{name: "small-dead1-qparity-torn", opts: Options{Seed: 1, Txns: 4, OpsPerTx: 3, Dead: 1, QParity: true, Torn: true}, want: []counts{
		{runs: 72, writes: 24, undos: 7, deferred: 324},
		{runs: 75, writes: 19, undos: 9, deferred: 472}}},
	{name: "small-dead2", opts: Options{Seed: 1, Txns: 4, OpsPerTx: 3, Dead: 2, QParity: true}, dataOnly: true, want: []counts{{runs: 93, writes: 21, undos: 3, deferred: 531, lossRuns: 2, lost: 4}}},
	// Beyond P+Q when all three faults share a group: reported loss, never a
	// failed restart.
	{name: "small-dead2-torn", opts: Options{Seed: 1, Txns: 4, OpsPerTx: 3, Dead: 2, QParity: true, Torn: true}, want: []counts{
		{runs: 93, writes: 21, undos: 3, deferred: 531, lossRuns: 10, lost: 22},
		{runs: 101, writes: 18, deferred: 742, lossRuns: 7, lost: 7}}},

	// Other sizes.  A workload big enough to steal, on synchronous and on
	// queued drives (eviction steals, logged write-backs and full-stripe
	// commit flushes through the queues).
	{name: "steals", opts: Options{Seed: 3, Txns: 2}, want: []counts{{runs: 24, writes: 24}, {runs: 25, writes: 25}}},
	{name: "queued-steals", opts: Options{Seed: 3, Txns: 4, OpsPerTx: 8, QueueDepth: 4}, want: []counts{
		{runs: 50, writes: 50},
		{runs: 49, writes: 49}}},
	// A dead disk and a torn block in one schedule, on twin parity (where
	// the pair may cost a group, explicitly) and on P+Q (inside the budget,
	// where only a coinciding death may lose).  The bugs this axis found
	// sat at the default workload size and at 14 operations per transaction.
	{name: "dead1-torn-seed1", opts: Options{Seed: 1, Dead: 1, Torn: true}, want: []counts{
		{runs: 231, writes: 98, undos: 92, deferred: 876, lossRuns: 88, lost: 124},
		{runs: 231, writes: 94, undos: 81, deferred: 876, lossRuns: 64, lost: 87}}},
	{name: "dead1-qparity-torn-seed1", opts: Options{Seed: 1, Dead: 1, QParity: true, Torn: true}, want: []counts{
		{runs: 332, writes: 142, undos: 151, deferred: 1769},
		{runs: 319, writes: 132, undos: 156, deferred: 2424}}},
	{name: "dead1-torn-seed1-ops14", opts: Options{Seed: 1, OpsPerTx: 14, Dead: 1, Torn: true}, want: []counts{
		{runs: 315, writes: 135, undos: 193, deferred: 1212, lossRuns: 128, lost: 203},
		{runs: 322, writes: 135, undos: 167, deferred: 1240, lossRuns: 125, lost: 172}}},
	{name: "dead1-qparity-torn-seed1-ops14", opts: Options{Seed: 1, OpsPerTx: 14, Dead: 1, QParity: true, Torn: true}, want: []counts{
		{runs: 458, writes: 195, undos: 315, deferred: 2471},
		{runs: 495, writes: 202, undos: 345, deferred: 3832}}},
	{name: "dead1-torn-seed2", opts: Options{Seed: 2, Dead: 1, Torn: true}, want: []counts{
		{runs: 230, writes: 96, undos: 90, deferred: 872, lossRuns: 84, lost: 122},
		{runs: 232, writes: 99, undos: 106, deferred: 880, lossRuns: 88, lost: 144}}},
	{name: "dead1-qparity-torn-seed2", opts: Options{Seed: 2, Dead: 1, QParity: true, Torn: true}, want: []counts{
		{runs: 331, writes: 140, undos: 133, deferred: 1764},
		{runs: 349, writes: 143, undos: 166, deferred: 2664}}},
	{name: "dead1-torn-seed2-ops14", opts: Options{Seed: 2, OpsPerTx: 14, Dead: 1, Torn: true}, want: []counts{
		{runs: 315, writes: 131, undos: 155, deferred: 1212, lossRuns: 112, lost: 174},
		{runs: 314, writes: 132, undos: 178, deferred: 1208, lossRuns: 114, lost: 184}}},
	{name: "dead1-qparity-torn-seed2-ops14", opts: Options{Seed: 2, OpsPerTx: 14, Dead: 1, QParity: true, Torn: true}, want: []counts{
		{runs: 463, writes: 191, undos: 258, deferred: 2503},
		{runs: 469, writes: 192, undos: 324, deferred: 3624}}},
	// The REDO pass: every restart replays winners' after-images — page
	// images, and with Records several record images per page
	// (TestNoForceWorkloadRedoes proves there is REDO to interrupt).
	{name: "noforce-seed2", opts: Options{Seed: 2, Txns: 5, NoForce: true}, want: []counts{
		{runs: 69, writes: 69},
		{runs: 68, writes: 68}}},
	{name: "noforce-torn-seed2", opts: Options{Seed: 2, Txns: 5, NoForce: true, Torn: true}, want: []counts{
		{runs: 69, writes: 69},
		{runs: 68, writes: 68}}},
	{name: "dead1-noforce-seed2", opts: Options{Seed: 2, Txns: 3, NoForce: true, Dead: 1}, want: []counts{
		{runs: 105, writes: 38, undos: 5, deferred: 372, lossRuns: 2, lost: 2},
		{runs: 104, writes: 38, undos: 15, deferred: 368, lossRuns: 2, lost: 3}}},
	{name: "noforce-records-seed2", opts: Options{Seed: 2, Txns: 5, NoForce: true, Records: true}, want: []counts{
		{runs: 69, writes: 69},
		{runs: 68, writes: 68}}},
	{name: "noforce-records-torn-seed2", opts: Options{Seed: 2, Txns: 5, NoForce: true, Records: true, Torn: true}, want: []counts{
		{runs: 69, writes: 69},
		{runs: 68, writes: 68}}},
	{name: "dead1-noforce-records-seed2", opts: Options{Seed: 2, Txns: 3, NoForce: true, Records: true, Dead: 1}, want: []counts{
		{runs: 105, writes: 38, undos: 5, deferred: 372, lossRuns: 2, lost: 2},
		{runs: 104, writes: 38, undos: 15, deferred: 368, lossRuns: 2, lost: 3}}},

	// The soaks.
	{name: "soak-crash", opts: Options{Seed: 7}, soak: Crashes, iters: 200, want: []counts{
		{runs: 200, writes: 115},
		{runs: 200, writes: 121}}},
	{name: "soak-crash-workers", opts: Options{Seed: 7, Workers: 4}, soak: Crashes, iters: 20, want: []counts{
		{runs: 20, writes: 130},
		{runs: 20, writes: 131}}},
	// The pool reads its misses outside its mutex: a crash point's panic
	// inside a read must leave it usable.
	{name: "soak-crash-workers-queued", opts: Options{Seed: 7, Workers: 4, QueueDepth: 8}, soak: Crashes, iters: 20, want: []counts{
		{runs: 20, writes: 130},
		{runs: 20, writes: 128}}},
	// The mix soak's degraded-recovery sums were computed and dropped at
	// ab08b1e; recorded when Soak first folded them.
	{name: "soak-mix", opts: Options{Seed: 7, TransientEvery: 50}, soak: Mix, iters: 40, want: []counts{
		{runs: 40, writes: 130, undos: 4, deferred: 48, lossRuns: 2, lost: 2},
		{runs: 40, writes: 137, undos: 3, deferred: 44, lossRuns: 3, lost: 3}}},
	{name: "soak-corrupt", opts: Options{Seed: 7, Scrub: true}, soak: Corrupt, iters: 100, want: []counts{
		{runs: 100, writes: 122, detected: 86, read: 18, scrubbed: 38, scanned: 2000},
		{runs: 100, writes: 127, detected: 95, read: 28, scrubbed: 37, scanned: 2000}}},
	{name: "soak-corrupt-seed42", opts: Options{Seed: 42, Scrub: true}, soak: Corrupt, iters: 25, want: []counts{
		{runs: 25, writes: 116, detected: 18, read: 8, scrubbed: 7, scanned: 500},
		{runs: 25, writes: 101, detected: 18, read: 3, scrubbed: 9, scanned: 500}}},
	// Q pages repaired by the one verified read.
	{name: "soak-corrupt-qparity", opts: Options{Seed: 7, QParity: true, Scrub: true}, soak: Corrupt, iters: 300, want: []counts{
		{runs: 300, writes: 173, detected: 266, read: 56, scrubbed: 100, scanned: 5976},
		{runs: 300, writes: 189, detected: 234, read: 27, scrubbed: 103, scanned: 7184}}},
	{name: "soak-corrupt-qparity-seed42", opts: Options{Seed: 42, QParity: true, Scrub: true}, soak: Corrupt, iters: 300, want: []counts{
		{runs: 300, writes: 170, detected: 249, read: 47, scrubbed: 80, scanned: 5992},
		{runs: 300, writes: 167, detected: 251, read: 44, scrubbed: 98, scanned: 7168}}},
	// A silent fault beside a dead disk (ROADMAP item 1(d); TestKnownViolations
	// pins the shortest schedules).  The ceilings are the violation counts
	// recorded when the degraded restart began settling by headers; a fix
	// lowers them.
	{name: "soak-corrupt-dead1", opts: Options{Seed: 7, Dead: 1, Scrub: true}, soak: Corrupt, iters: 300, ceiling: []int{5, 7}},
	{name: "soak-corrupt-dead1-seed42", opts: Options{Seed: 42, Dead: 1, Scrub: true}, soak: Corrupt, iters: 300, ceiling: []int{7, 4}},
	{name: "soak-corrupt-dead1-qparity", opts: Options{Seed: 7, Dead: 1, QParity: true, Scrub: true}, soak: Corrupt, iters: 300, ceiling: []int{8, 5}},
	{name: "soak-corrupt-dead1-qparity-seed42", opts: Options{Seed: 42, Dead: 1, QParity: true, Scrub: true}, soak: Corrupt, iters: 300, ceiling: []int{4, 5}},
	// The soaks in miniature.  Mix: a background transient rate on every
	// run, alternating crash recoveries and mid-run disk deaths with online
	// rebuilds.  Corrupt: planted bit flips, lost writes and misdirected
	// writes, half the runs crashed on top, scrub steps interleaved.
	{name: "small-soak-crash", opts: Options{Seed: 1, Txns: 4, OpsPerTx: 3}, soak: Crashes, iters: 8, dataOnly: true, want: []counts{{runs: 7, writes: 18}}},
	{name: "small-soak-crash-workers", opts: Options{Seed: 1, Txns: 4, OpsPerTx: 3, Workers: 4}, soak: Crashes, iters: 8, dataOnly: true, want: []counts{{runs: 7, writes: 18}}},
	{name: "small-soak-mix", opts: Options{Seed: 7, Txns: 4, OpsPerTx: 3, TransientEvery: 50}, soak: Mix, iters: 20, want: []counts{
		{runs: 20, writes: 16, undos: 2, deferred: 24},
		{runs: 20, writes: 16, undos: 1, deferred: 24}}},
	{name: "small-soak-corrupt", opts: Options{Seed: 11, Txns: 4, OpsPerTx: 3, Scrub: true}, soak: Corrupt, iters: 24, want: []counts{
		{runs: 23, writes: 16, detected: 14, scrubbed: 12, scanned: 444},
		{runs: 23, writes: 16, detected: 15, scrubbed: 15, scanned: 444}}},
}

// TestFamilies runs every row of families under its gate.
func TestFamilies(t *testing.T) {
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			if testing.Short() && (f.iters > 50 || f.opts.Dead == 2) {
				t.Skip("long family")
			}
			layouts := []rda.Layout{rda.DataStriping, rda.ParityStriping}
			if f.dataOnly {
				layouts = layouts[:1]
			}
			for i, l := range layouts {
				opts := f.opts
				opts.Layout = l
				var res *Result
				var err error
				if f.soak != "" {
					res, err = Soak(opts, f.iters, f.soak)
				} else {
					res, err = Sweep(opts, nil)
				}
				if err != nil {
					t.Fatalf("%v: %v", l, err)
				}
				f.check(t, i, l, res)
			}
		})
	}
}

// check holds one layout's result to the row's gate.
func (f familyRow) check(t *testing.T, i int, l rda.Layout, res *Result) {
	t.Helper()
	if f.want == nil && f.runs == nil && f.ceiling == nil {
		t.Fatal("the row has no gate")
	}
	got := counts{res.Runs, res.TotalWrites, res.UndoneViaReconstruction, res.DeferredParityGroups, res.DataLossRuns, res.LostPages,
		res.CorruptBlocksDetected, res.ReadRepairs, res.ScrubRepairs, res.ScrubbedGroups}
	t.Logf("%v: %+v, %d violation(s)", l, got, len(res.Violations))
	if res.Runs == 0 {
		t.Errorf("%v: no run", l)
	}
	for _, v := range res.Violations {
		if f.ceiling == nil || forbidden.MatchString(v.Err.Error()) {
			t.Errorf("%v: %s", l, v)
		}
	}
	if f.ceiling != nil && len(res.Violations) > f.ceiling[i] {
		t.Errorf("%v: %d violation(s), recorded %d", l, len(res.Violations), f.ceiling[i])
	}
	if f.runs != nil && res.Runs != f.runs[i] {
		t.Errorf("%v: %d run(s), want %d", l, res.Runs, f.runs[i])
	}
	if f.want != nil && got != f.want[i] {
		t.Errorf("%v:\n got %+v\nwant %+v", l, got, f.want[i])
	}
}
