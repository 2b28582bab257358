package crashcheck

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/rda"
)

// The crash families and their gates are one table, families
// (families_test.go); the tests here check the harness itself, one
// schedule or one generator at a time.

// small is the four-transaction, three-operation workload of the tests that
// replay single schedules.
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
