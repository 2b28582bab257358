package crashcheck

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/rda"
)

// Every test below is rows of Options for one of the three entry points:
// a cell of the fault space is a literal, not a function of its own.

// small keeps the exhaustive in-test sweeps fast; the cmd/rdacrash CLI
// runs the full default workload.
func small(layout rda.Layout) Options {
	return Options{Layout: layout, Seed: 1, Txns: 4, OpsPerTx: 3}
}

// both returns each row once per layout.
func both(rows ...Options) []Options {
	var out []Options
	for _, layout := range []rda.Layout{rda.DataStriping, rda.ParityStriping} {
		for _, o := range rows {
			o.Layout = layout
			out = append(out, o)
		}
	}
	return out
}

// label names a row by its axes.
func label(o Options) string { return fmt.Sprintf("%+v", o) }

// held fails the test unless the sweep or soak ran something and came back
// with no violation.
func held(t *testing.T, name string, res *Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Runs == 0 {
		t.Fatalf("%s: no crash points explored", name)
	}
	for _, v := range res.Violations {
		t.Errorf("%s: %s", name, v)
	}
}

// sweepRows runs Sweep over every row; each must come back clean, and
// nonVacuous, when non-nil, names what a clean result failed to exercise.
func sweepRows(t *testing.T, rows []Options, nonVacuous func(*Result) string) {
	t.Helper()
	for _, opts := range rows {
		res, err := Sweep(opts, nil)
		held(t, label(opts), res, err)
		if nonVacuous != nil {
			if missed := nonVacuous(res); missed != "" {
				t.Errorf("%s: %s", label(opts), missed)
			}
		}
		t.Logf("%s: %d run(s), %d violation(s), %d with loss", label(opts), res.Runs, len(res.Violations), res.DataLossRuns)
	}
}

// replay runs one printed schedule.
func replay(t *testing.T, opts Options, sched string) error {
	t.Helper()
	s, err := fault.ParseSchedule(sched)
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != sched {
		t.Fatalf("round trip %q -> %q", sched, s)
	}
	_, _, err = Run(opts, s)
	return err
}

func TestCountWritesDeterministic(t *testing.T) {
	for _, opts := range both(small(0)) {
		w1, _, err := count(opts, nil)
		if err != nil {
			t.Fatalf("%v: %v", opts.Layout, err)
		}
		w2, full, err := count(opts, nil)
		if err != nil {
			t.Fatalf("%v: %v", opts.Layout, err)
		}
		if w1 != w2 {
			t.Fatalf("%v: write count not deterministic: %d vs %d", opts.Layout, w1, w2)
		}
		if w1 == 0 {
			t.Fatalf("%v: workload issued no writes", opts.Layout)
		}
		if full != w1 {
			t.Fatalf("%v: a healthy array's rebuild pump wrote %d block(s)", opts.Layout, full-w1)
		}
	}
}

// counts is what a sweep or soak prints: the numbers a harness edit that
// silently drops a family or shifts an rng draw would move.
type counts struct {
	runs                              int
	writes                            int64
	undos, deferred, lossRuns, lost   int
	detected, read, scrubbed, scanned int64
}

// TestSweepCounts pins every CI-size family to the run, write, degraded-
// recovery and integrity counts recorded at ab08b1e, before the eleven entry
// points became three (EXPERIMENTS.md has the full table).  Data striping
// first, parity striping second.
//
// PR 23 re-recorded the rows whose workloads commit two resident pages of
// one group (the EOT flush chain: no self-demotion, so one header rewrite
// per equation fewer each time): the parity-striping queued sweep (54 → 53
// writes) and the soaks, whose derived workloads are longer and whose
// schedules are drawn against the write count, so every count after the
// first shorter workload moves with it.  The exhaustive 6-frame sweeps on
// synchronous drives stand: their pages are evicted before the EOT.
func TestSweepCounts(t *testing.T) {
	for _, row := range []struct {
		opts  Options
		soak  Generator // "" for Sweep
		iters int
		want  [2]counts
	}{
		{opts: Options{Seed: 1, Txns: 4}, want: [2]counts{{runs: 52, writes: 52}, {runs: 54, writes: 54}}},
		{opts: Options{Seed: 1, Txns: 4, Torn: true}, want: [2]counts{{runs: 52, writes: 52}, {runs: 54, writes: 54}}},
		{opts: Options{Seed: 1, Txns: 4, NoForce: true}, want: [2]counts{{runs: 66, writes: 66}, {runs: 67, writes: 67}}},
		{opts: Options{Seed: 1, Txns: 4, QueueDepth: 8}, want: [2]counts{{runs: 52, writes: 52}, {runs: 53, writes: 53}}},
		// Sixteen frames keep a transaction's pages to its EOT: the sweeps that
		// cut inside the flush chain (32 and 49 writes on data striping when
		// every second page demoted the first one's steal).
		{opts: Options{Seed: 1, Txns: 4, Frames: 16}, want: [2]counts{{runs: 30, writes: 30}, {runs: 34, writes: 34}}},
		{opts: Options{Seed: 1, Txns: 4, Frames: 16, QParity: true}, want: [2]counts{{runs: 45, writes: 45}, {runs: 48, writes: 48}}},
		{opts: Options{Seed: 1, Txns: 4, Frames: 16, QueueDepth: 8}, want: [2]counts{{runs: 30, writes: 30}, {runs: 30, writes: 30}}},
		{opts: Options{Seed: 1, Txns: 3, Dead: 1}, want: [2]counts{
			{runs: 94, writes: 38, undos: 29, deferred: 356, lossRuns: 9, lost: 12},
			{runs: 93, writes: 35, undos: 22, deferred: 340, lossRuns: 10, lost: 11}}},
		{opts: Options{Seed: 1, Txns: 3, Dead: 1, Torn: true}, want: [2]counts{
			{runs: 94, writes: 38, undos: 28, deferred: 316, lossRuns: 28, lost: 41},
			{runs: 93, writes: 35, undos: 19, deferred: 292, lossRuns: 21, lost: 31}}},
		{opts: Options{Seed: 1, Txns: 3, Dead: 1, NoForce: true}, want: [2]counts{
			{runs: 104, writes: 44, undos: 9, deferred: 392, lossRuns: 3, lost: 3},
			{runs: 102, writes: 41, undos: 9, deferred: 372, lossRuns: 2, lost: 2}}},
		// One dead drive on P+Q, untorn, synchronous: every write of a FORCE
		// flush goes to a degraded group through the logging path.
		{opts: Options{Seed: 1, Txns: 3, Dead: 1, QParity: true}, want: [2]counts{
			{runs: 135, writes: 56, undos: 50, deferred: 699},
			{runs: 145, writes: 57, undos: 45, deferred: 1080}}},
		{opts: Options{Seed: 1, Txns: 3, Dead: 1, QParity: true, Frames: 16}, want: [2]counts{
			{runs: 97, writes: 40, undos: 39, deferred: 506},
			{runs: 105, writes: 41, undos: 33, deferred: 792}}},
		{opts: Options{Seed: 1, Txns: 4, Dead: 2, QParity: true}, want: [2]counts{
			{runs: 152, writes: 60, deferred: 1134},
			{runs: 149, writes: 55, deferred: 1554}}},
		{opts: Options{Seed: 1, Txns: 4, Dead: 2, QParity: true, Torn: true}, want: [2]counts{
			{runs: 152, writes: 60, deferred: 1134, lossRuns: 29, lost: 40},
			{runs: 149, writes: 55, deferred: 1554, lossRuns: 18, lost: 24}}},
		{opts: Options{Seed: 7}, soak: Crashes, iters: 200, want: [2]counts{{runs: 200, writes: 115}, {runs: 200, writes: 121}}},
		{opts: Options{Seed: 7, Workers: 4}, soak: Crashes, iters: 20, want: [2]counts{{runs: 20, writes: 130}, {runs: 20, writes: 131}}},
		// The mix soak's degraded-recovery sums were computed and dropped at
		// ab08b1e; recorded when Soak first folded them.
		{opts: Options{Seed: 7, TransientEvery: 50}, soak: Mix, iters: 40, want: [2]counts{
			{runs: 40, writes: 130, undos: 2, deferred: 36, lossRuns: 1, lost: 1},
			{runs: 40, writes: 137, undos: 3, deferred: 40, lossRuns: 3, lost: 3}}},
		{opts: Options{Seed: 7, Scrub: true}, soak: Corrupt, iters: 100, want: [2]counts{
			{runs: 100, writes: 122, detected: 87, read: 25, scrubbed: 32, scanned: 2000},
			{runs: 100, writes: 127, detected: 96, read: 38, scrubbed: 28, scanned: 2000}}},
		{opts: Options{Seed: 42, Scrub: true}, soak: Corrupt, iters: 25, want: [2]counts{
			{runs: 25, writes: 116, detected: 19, read: 9, scrubbed: 7, scanned: 500},
			{runs: 25, writes: 101, detected: 18, read: 5, scrubbed: 7, scanned: 500}}},
	} {
		if testing.Short() && (row.iters > 50 || row.opts.Dead == 2) {
			continue
		}
		for i, opts := range both(row.opts) {
			name := label(opts)
			var res *Result
			var err error
			if row.soak != "" {
				name += " soak=" + string(row.soak)
				res, err = Soak(opts, row.iters, row.soak)
			} else {
				res, err = Sweep(opts, nil)
			}
			held(t, name, res, err)
			got := counts{res.Runs, res.TotalWrites, res.UndoneViaReconstruction, res.DeferredParityGroups, res.DataLossRuns, res.LostPages,
				res.CorruptBlocksDetected, res.ReadRepairs, res.ScrubRepairs, res.ScrubbedGroups}
			if got != row.want[i] {
				t.Errorf("%s:\n got %+v\nwant %+v", name, got, row.want[i])
			}
		}
	}
}

func TestExploreClean(t *testing.T) { sweepRows(t, both(small(0)), nil) }

func TestExploreTorn(t *testing.T) {
	sweepRows(t, both(Options{Seed: 1, Txns: 4, OpsPerTx: 3, Torn: true}), nil)
}

// TestExploreWithSteals sweeps a workload big enough to steal; it is the
// in-tree version of `rdacrash` at reduced transaction count.
func TestExploreWithSteals(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	sweepRows(t, both(Options{Seed: 3, Txns: 2}), nil)
}

// TestWorkloadSteals proves the default workload exercises the paper's
// no-UNDO-logging steal path: transactions dirty more pages than the
// pool has frames, so replacement must steal mid-transaction.  Without
// this the crash sweep would never interrupt a working-state twin.
func TestWorkloadSteals(t *testing.T) {
	for _, opts := range both(Options{Seed: 1, Txns: 3}) {
		opts.fill()
		d, err := start(opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.workload(); err != nil {
			t.Fatalf("%v: run: %v", opts.Layout, err)
		}
		if s := d.db.Stats().Steals; s == 0 {
			t.Fatalf("%v: default workload performed no dirty steals", opts.Layout)
		}
	}
}

// TestExploreDegraded is the in-tree version of `rdacrash -dead 1`: the
// exhaustive crash sweep with one disk down — crash points spanning the
// degraded workload and the online rebuild, plus the coinciding family
// where the disk dies at the crash write itself.  Every run must recover,
// serve the committed state, and rebuild full redundancy.
func TestExploreDegraded(t *testing.T) {
	rows := both(Options{Seed: 1, Txns: 4, OpsPerTx: 3, Dead: 1})
	if testing.Short() {
		rows = rows[:1]
	}
	sweepRows(t, rows, func(res *Result) string {
		if res.DeferredParityGroups == 0 {
			return "sweep never deferred a parity group — dead-twin recovery untested"
		}
		return ""
	})
}

// TestExploreDegradedTorn is the in-tree version of `rdacrash -dead 1 -torn
// [-qparity]`: every family of the one-dead sweep with write k torn instead
// of dropped — a dead disk and a torn block in one schedule — on twin
// parity (where the pair may cost a group, explicitly) and on P+Q (where it
// is inside the two-erasure budget and only a coinciding death may lose).
// The bugs this axis found sat at the default workload size and at
// OpsPerTx 14, not at small(), so all three sizes run.
func TestExploreDegradedTorn(t *testing.T) {
	sizes := []Options{{Seed: 1, Txns: 4, OpsPerTx: 3}}
	for seed := int64(1); seed <= 2; seed++ {
		sizes = append(sizes, Options{Seed: seed}, Options{Seed: seed, OpsPerTx: 14})
	}
	var rows []Options
	for _, o := range sizes {
		o.Dead, o.Torn = 1, true
		rows = append(rows, o)
		o.QParity = true
		rows = append(rows, o)
	}
	sweepRows(t, both(rows...), nil)
}

// TestExploreDouble is the in-tree version of `rdacrash -dead 2 -qparity`:
// the exhaustive double-fault sweep on a P+Q array.  Both families — two
// disks dead from the start with crashes spanning the workload and the
// two-drive rebuild, and a second death coinciding with the crash — must
// recover, serve the committed state, and rebuild full redundancy with
// zero violations.
func TestExploreDouble(t *testing.T) {
	opts := Options{Layout: rda.DataStriping, Seed: 1, Txns: 4, OpsPerTx: 3, Dead: 2, QParity: true}
	if testing.Short() {
		opts.Txns = 2
	}
	sweepRows(t, []Options{opts}, func(res *Result) string {
		if res.DeferredParityGroups == 0 {
			return "sweep never deferred a parity group — dead-slot recovery untested"
		}
		return ""
	})
}

// TestExploreDoubleTorn is the in-tree version of `rdacrash -dead 2
// -qparity -torn`: a tear on top of two dead drives.  Beyond P+Q when all
// three faults share a group — reported loss then, never a failed restart.
func TestExploreDoubleTorn(t *testing.T) {
	sweepRows(t, both(Options{Seed: 1, Txns: 4, OpsPerTx: 3, Dead: 2, QParity: true, Torn: true}), func(res *Result) string {
		if res.DataLossRuns == 0 {
			return "no run lost a page — the three-faults-in-one-group outcome is untested"
		}
		return ""
	})
}

// TestSweepRefusesMoreDeadThanEquations pins the one input Sweep rejects.
func TestSweepRefusesMoreDeadThanEquations(t *testing.T) {
	for _, opts := range []Options{{Dead: 2}, {Dead: 3, QParity: true}, {Dead: -1}} {
		if _, err := Sweep(opts, nil); err == nil {
			t.Errorf("%s: Sweep accepted it", label(opts))
		}
	}
	if _, err := Soak(small(0), 1, "nonesuch"); err == nil {
		t.Error("Soak accepted an unknown generator")
	}
}

// TestExploreNoForce is the in-tree crash sweep of the REDO pass: the
// engine runs ¬FORCE, so every restart replays winners' after-images —
// page images, and with Records several record images per page — and the
// sweep also lands inside the workload's checkpoints.  Clean cuts, torn
// cuts and one disk down; the larger sizes are `rdacrash -noforce`.
func TestExploreNoForce(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	var rows []Options
	for _, records := range []bool{false, true} {
		rows = append(rows,
			Options{Seed: 2, Txns: 5, NoForce: true, Records: records},
			Options{Seed: 2, Txns: 5, NoForce: true, Records: records, Torn: true},
			Options{Seed: 2, Txns: 3, NoForce: true, Records: records, Dead: 1})
	}
	sweepRows(t, both(rows...), nil)
}

// TestNoForceWorkloadRedoes proves the NoForce sweeps are not vacuous: a
// crash late in the workload leaves winners whose pages never reached the
// platter, and under Records several images of one page.
func TestNoForceWorkloadRedoes(t *testing.T) {
	for _, records := range []bool{false, true} {
		opts := Options{Layout: rda.DataStriping, Seed: 2, Txns: 3, NoForce: true, Records: records}
		opts.fill()
		d, err := start(opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		d.opts.NoForce = false // run the same transactions with no checkpoint at the end
		if err := d.workload(); err != nil {
			t.Fatalf("records=%v: run: %v", records, err)
		}
		d.db.Crash()
		rep, err := d.db.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Redone == 0 || rep.RedoneWrites == 0 {
			t.Fatalf("records=%v: restart redid %d image(s) with %d write(s): the sweep has no REDO to interrupt", records, rep.Redone, rep.RedoneWrites)
		}
		if records && rep.RedonePages >= rep.Redone {
			t.Fatalf("records=%v: %d image(s) over %d page(s): nothing to coalesce", records, rep.Redone, rep.RedonePages)
		}
		if err := d.verify(); err != nil {
			t.Fatalf("records=%v: %v", records, err)
		}
	}
}

// soakRows runs Soak over every row with one generator.
func soakRows(t *testing.T, rows []Options, iters int, gen Generator) {
	t.Helper()
	for _, opts := range rows {
		res, err := Soak(opts, iters, gen)
		held(t, label(opts)+" soak="+string(gen), res, err)
	}
}

func TestSoak(t *testing.T) { soakRows(t, []Options{small(rda.DataStriping)}, 8, Crashes) }

// TestMixSoak runs the self-healing soak in miniature: a background
// transient rate on every run, alternating crash recoveries and mid-run
// disk deaths with online rebuilds, all held to the committed-state
// oracle.
func TestMixSoak(t *testing.T) {
	iters := 20
	if testing.Short() {
		iters = 6
	}
	soakRows(t, both(Options{Seed: 7, Txns: 4, OpsPerTx: 3, TransientEvery: 50}), iters, Mix)
}

// TestCorruptSoak runs the silent-corruption soak in miniature: planted
// bit flips, lost writes and misdirected writes — half the runs crashed
// on top — with online scrub steps interleaved, all held to the
// never-serve-corrupt-data oracle.
func TestCorruptSoak(t *testing.T) {
	iters := 24
	if testing.Short() {
		iters = 9
	}
	soakRows(t, both(Options{Seed: 11, Txns: 4, OpsPerTx: 3, Scrub: true}), iters, Corrupt)
}

// TestCorruptScheduleReplay pins the replay contract for the silent
// fault syntax: every silent rule kind round-trips through the printed
// schedule and drives a passing run.
func TestCorruptScheduleReplay(t *testing.T) {
	opts := small(rda.DataStriping)
	opts.Scrub = true
	for _, s := range []string{
		"bitflip[37]@w4",
		"lostwrite@w9",
		"misdirected[21]@w6",
		"lostwrite@w3 crash@w12",
		"bitflip[100]@w5 crash@w7",
	} {
		if err := replay(t, opts, s); err != nil {
			t.Errorf("sched %q: %v", s, err)
		}
	}
}

// TestViolationReplay checks the failure-reproduction contract: a
// violation's printed schedule parses back into a schedule that drives
// the identical run.
func TestViolationReplay(t *testing.T) {
	sched := fault.Schedule{fault.CrashAfterNWrites(5)}
	if err := replay(t, small(rda.DataStriping), sched.String()); err != nil {
		t.Fatalf("replayed schedule failed: %v", err)
	}
}

// TestMixFailDiskEveryIndex kills each disk at every write index of a
// small workload — an exhaustive sweep of the degraded-serving and
// online-rebuild interlock.  The workload must complete with no surfaced
// error each time.
func TestMixFailDiskEveryIndex(t *testing.T) {
	for _, opts := range both(small(0)) {
		total, _, err := count(opts, nil)
		if err != nil {
			t.Fatalf("%v: %v", opts.Layout, err)
		}
		geo, err := start(opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		step := int64(1)
		if testing.Short() {
			step = 7
		}
		for d := 0; d < geo.db.NumDisks(); d++ {
			for k := int64(0); k < total; k += step {
				sched := fault.Schedule{fault.FailDisk(d, k)}
				if _, _, err := Run(opts, sched); err != nil {
					t.Errorf("%v: seed=%d sched=%q: %v", opts.Layout, opts.Seed, sched, err)
				}
			}
		}
	}
}

// TestGeneratorDrawsAreFixed pins each generator's draw order: a soak is
// reproducible from its master seed only while the draws stay where they
// are.  Six iterations from one meta source against 100 writes on 6 disks.
func TestGeneratorDrawsAreFixed(t *testing.T) {
	for gen, want := range map[Generator][]string{
		Crashes: {"torn[tail]@w55", "crash@w79", "crash@w13", "crash@w82", "crash@w88", "crash@w82"},
		Mix: {"faildisk[0]@w55", "torn[head]@w69", "faildisk[2]@w39 crash@w39",
			"faildisk[2]@w14", "crash@w25", "faildisk[5]@w40 crash@w40"},
		Corrupt: {"bitflip[238]@w55", "lostwrite@w79 crash@w93", "misdirected[22]@w69 crash@w98",
			"bitflip[337]@w73 crash@w74", "lostwrite@w80 crash@w95", "misdirected[29]@w79 crash@w99"},
	} {
		meta := rand.New(rand.NewSource(7))
		for i, w := range want {
			if got := generators[gen](meta, i, 100, 6).String(); got != w {
				t.Errorf("%s draw %d: %q, want %q", gen, i, got, w)
			}
		}
	}
}
