package crashcheck

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/rda"
)

// small keeps the exhaustive in-test sweeps fast; the cmd/rdacrash CLI
// runs the full default workload.
func small(layout rda.Layout) Options {
	return Options{Layout: layout, Seed: 1, Txns: 4, OpsPerTx: 3}
}

func TestCountWritesDeterministic(t *testing.T) {
	for _, layout := range []rda.Layout{rda.DataStriping, rda.ParityStriping} {
		w1, err := CountWrites(small(layout))
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		w2, err := CountWrites(small(layout))
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		if w1 != w2 {
			t.Fatalf("%v: write count not deterministic: %d vs %d", layout, w1, w2)
		}
		if w1 == 0 {
			t.Fatalf("%v: workload issued no writes", layout)
		}
	}
}

func TestExploreClean(t *testing.T) {
	for _, layout := range []rda.Layout{rda.DataStriping, rda.ParityStriping} {
		res, err := Explore(small(layout), nil)
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		if res.Runs == 0 {
			t.Fatalf("%v: no crash points explored", layout)
		}
		for _, v := range res.Violations {
			t.Errorf("%v: %s", layout, v)
		}
	}
}

func TestExploreTorn(t *testing.T) {
	for _, layout := range []rda.Layout{rda.DataStriping, rda.ParityStriping} {
		opts := small(layout)
		opts.Torn = true
		res, err := Explore(opts, nil)
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		for _, v := range res.Violations {
			t.Errorf("%v: %s", layout, v)
		}
	}
}

// TestWorkloadSteals proves the default workload exercises the paper's
// no-UNDO-logging steal path: transactions dirty more pages than the
// pool has frames, so replacement must steal mid-transaction.  Without
// this the crash sweep would never interrupt a working-state twin.
func TestWorkloadSteals(t *testing.T) {
	for _, layout := range []rda.Layout{rda.DataStriping, rda.ParityStriping} {
		opts := Options{Layout: layout, Seed: 1, Txns: 3}
		opts.fill()
		db, err := rda.Open(dbConfig(Options{Layout: layout}))
		if err != nil {
			t.Fatal(err)
		}
		d := newDriver(db, opts)
		if crash, err := d.run(); err != nil || crash != nil {
			t.Fatalf("%v: run: crash=%v err=%v", layout, crash, err)
		}
		if s := db.Stats().Steals; s == 0 {
			t.Fatalf("%v: default workload performed no dirty steals", layout)
		}
	}
}

// TestExploreWithSteals sweeps a workload big enough to steal; it is the
// in-tree version of `rdacrash -explore` at reduced transaction count.
func TestExploreWithSteals(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	for _, layout := range []rda.Layout{rda.DataStriping, rda.ParityStriping} {
		res, err := Explore(Options{Layout: layout, Seed: 3, Txns: 2}, nil)
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		for _, v := range res.Violations {
			t.Errorf("%v: %s", layout, v)
		}
	}
}

func TestSoak(t *testing.T) {
	res, err := Soak(small(rda.DataStriping), 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs == 0 {
		t.Fatal("soak performed no runs")
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
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
	for _, layout := range []rda.Layout{rda.DataStriping, rda.ParityStriping} {
		opts := small(layout)
		opts.Seed = 11
		res, err := CorruptSoak(opts, iters)
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		if res.Runs == 0 {
			t.Fatalf("%v: soak ran nothing", layout)
		}
		for _, v := range res.Violations {
			t.Errorf("%v: %s", layout, v)
		}
	}
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
		sched, err := fault.ParseSchedule(s)
		if err != nil {
			t.Fatal(err)
		}
		if sched.String() != s {
			t.Fatalf("round trip %q -> %q", s, sched.String())
		}
		if _, err := RunCorruptSchedule(opts, sched); err != nil {
			t.Errorf("sched %q: %v", s, err)
		}
	}
}

// TestViolationReplay checks the failure-reproduction contract: a
// violation's printed schedule parses back into a schedule that drives
// the identical run.
func TestViolationReplay(t *testing.T) {
	sched := fault.Schedule{fault.CrashAfterNWrites(5)}
	parsed, err := fault.ParseSchedule(sched.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := RunSchedule(small(rda.DataStriping), parsed); err != nil {
		t.Fatalf("replayed schedule failed: %v", err)
	}
}

// TestMixSoak runs the self-healing soak in miniature: a background
// transient rate on every run, alternating crash recoveries and mid-run
// disk deaths with online rebuilds, all held to the committed-state
// oracle.
func TestMixSoak(t *testing.T) {
	iters := 20
	if testing.Short() {
		iters = 6
	}
	for _, layout := range []rda.Layout{rda.DataStriping, rda.ParityStriping} {
		opts := small(layout)
		opts.Seed = 7
		res, err := MixSoak(opts, iters, 50)
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		if res.Runs == 0 {
			t.Fatalf("%v: soak ran nothing", layout)
		}
		for _, v := range res.Violations {
			t.Errorf("%v: %s", layout, v)
		}
	}
}

// TestExploreDegraded is the in-tree version of `rdacrash -degraded`:
// the exhaustive crash sweep with one disk down — crash points spanning
// the degraded workload and the online rebuild, plus the coinciding
// family where the disk dies at the crash write itself.  Every run must
// recover, serve the committed state, and rebuild full redundancy.
func TestExploreDegraded(t *testing.T) {
	layouts := []rda.Layout{rda.DataStriping, rda.ParityStriping}
	if testing.Short() {
		layouts = layouts[:1]
	}
	for _, layout := range layouts {
		res, err := ExploreDegraded(small(layout), nil)
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		if res.Runs == 0 {
			t.Fatalf("%v: no degraded crash points explored", layout)
		}
		for _, v := range res.Violations {
			t.Errorf("%v: %s", layout, v)
		}
		if res.DeferredParityGroups == 0 {
			t.Errorf("%v: sweep never deferred a parity group — dead-twin recovery untested", layout)
		}
	}
}

// TestExploreDegradedTorn is the in-tree version of `rdacrash -degraded
// -torn`: every family of the degraded sweep with write k torn instead of
// dropped — a dead disk and a torn block in one schedule — on twin parity
// (where the pair may cost a group, explicitly) and on P+Q (where it is
// inside the two-erasure budget and only a coinciding death may lose; the
// CLI has no one-dead sweep on P+Q, so this test is that family's sweep).
// The bugs this axis found sat at the default workload size and at
// OpsPerTx 14, not at small(), so all three sizes run.
func TestExploreDegradedTorn(t *testing.T) {
	for _, layout := range []rda.Layout{rda.DataStriping, rda.ParityStriping} {
		sizes := []Options{small(layout)}
		for seed := int64(1); seed <= 2; seed++ {
			sizes = append(sizes, Options{Layout: layout, Seed: seed}, Options{Layout: layout, Seed: seed, OpsPerTx: 14})
		}
		for _, opts := range sizes {
			for _, pq := range []bool{false, true} {
				opts.Torn, opts.QParity = true, pq
				name := fmt.Sprintf("%v seed=%d txns=%d ops=%d pq=%v", layout, opts.Seed, opts.Txns, opts.OpsPerTx, pq)
				res, err := ExploreDegraded(opts, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Runs == 0 {
					t.Fatalf("%s: no torn degraded crash points explored", name)
				}
				for _, v := range res.Violations {
					t.Errorf("%s: %s", name, v)
				}
			}
		}
	}
}

// TestExploreDoubleTorn is the in-tree version of `rdacrash -double
// -torn`: a tear on top of two dead drives.  Beyond P+Q when all three
// faults share a group — reported loss then, never a failed restart.
func TestExploreDoubleTorn(t *testing.T) {
	for _, layout := range []rda.Layout{rda.DataStriping, rda.ParityStriping} {
		opts := small(layout)
		opts.Torn = true
		res, err := ExploreDouble(opts, nil)
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		for _, v := range res.Violations {
			t.Errorf("%v: %s", layout, v)
		}
		if res.DataLossRuns == 0 {
			t.Errorf("%v: no run lost a page — the three-faults-in-one-group outcome is untested", layout)
		}
	}
}

// TestExploreDouble is the in-tree version of `rdacrash -double`: the
// exhaustive double-fault sweep on a P+Q array.  Both families — two
// disks dead from the start with crashes spanning the workload and the
// two-drive rebuild, and a second death coinciding with the crash — must
// recover, serve the committed state, and rebuild full redundancy with
// zero violations.
func TestExploreDouble(t *testing.T) {
	opts := small(rda.DataStriping)
	if testing.Short() {
		opts.Txns = 2
	}
	res, err := ExploreDouble(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs == 0 {
		t.Fatal("no double-fault crash points explored")
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
	if res.DeferredParityGroups == 0 {
		t.Error("sweep never deferred a parity group — dead-slot recovery untested")
	}
}

// TestMixFailDiskEveryIndex kills each disk at every write index of a
// small workload — an exhaustive sweep of the degraded-serving and
// online-rebuild interlock.  The workload must complete with no surfaced
// error each time.
func TestMixFailDiskEveryIndex(t *testing.T) {
	for _, layout := range []rda.Layout{rda.DataStriping, rda.ParityStriping} {
		opts := small(layout)
		total, err := CountWrites(opts)
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		probe, err := rda.Open(dbConfig(Options{Layout: layout}))
		if err != nil {
			t.Fatal(err)
		}
		step := int64(1)
		if testing.Short() {
			step = 7
		}
		for d := 0; d < probe.NumDisks(); d++ {
			for k := int64(0); k < total; k += step {
				sched := fault.Schedule{fault.FailDisk(d, k)}
				if err := RunMixSchedule(opts, sched, 0); err != nil {
					t.Errorf("%v: seed=%d sched=%q: %v", layout, opts.Seed, sched, err)
				}
			}
		}
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
	for _, layout := range []rda.Layout{rda.DataStriping, rda.ParityStriping} {
		for _, records := range []bool{false, true} {
			for _, torn := range []bool{false, true} {
				opts := Options{Layout: layout, Seed: 2, Txns: 5, NoForce: true, Records: records, Torn: torn}
				name := fmt.Sprintf("%v records=%v torn=%v", layout, records, torn)
				res, err := Explore(opts, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Runs == 0 {
					t.Fatalf("%s: no crash points explored", name)
				}
				for _, v := range res.Violations {
					t.Errorf("%s: %s", name, v)
				}
				t.Logf("%s: %d run(s), %d violation(s)", name, res.Runs, len(res.Violations))
			}
			opts := Options{Layout: layout, Seed: 2, Txns: 3, NoForce: true, Records: records}
			res, err := ExploreDegraded(opts, nil)
			if err != nil {
				t.Fatalf("%v records=%v degraded: %v", layout, records, err)
			}
			for _, v := range res.Violations {
				t.Errorf("%v records=%v degraded: %s", layout, records, v)
			}
			t.Logf("%v records=%v degraded: %d run(s), %d violation(s), %d with loss", layout, records, res.Runs, len(res.Violations), res.DataLossRuns)
		}
	}
}

// TestNoForceWorkloadRedoes proves the NoForce sweeps are not vacuous: a
// crash late in the workload leaves winners whose pages never reached the
// platter, and under Records several images of one page.
func TestNoForceWorkloadRedoes(t *testing.T) {
	for _, records := range []bool{false, true} {
		opts := Options{Layout: rda.DataStriping, Seed: 2, Txns: 3, NoForce: true, Records: records}
		opts.fill()
		db, err := rda.Open(dbConfig(opts))
		if err != nil {
			t.Fatal(err)
		}
		opts.NoForce = false // run the same transactions with no checkpoint at the end
		d := newDriver(db, opts)
		if crash, err := d.run(); err != nil || crash != nil {
			t.Fatalf("records=%v: run: crash=%v err=%v", records, crash, err)
		}
		db.Crash()
		rep, err := db.Recover()
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
