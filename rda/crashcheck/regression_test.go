package crashcheck

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/rda"
)

// TestDegradedScheduleRegressions replays schedules that historically
// diverged from the committed-state oracle while the degraded
// crash-recovery path was being built.  Both are instances of the
// paired-flip window: a committed small-write flip's parity write lands,
// the crash cuts the paired data write, and the disk holding the data
// member is dead — so recovery cannot verify the winner twin by
// recomputation and must detect the broken pair via the timestamp echo
// and demote to the pre-flip twin.
func TestDegradedScheduleRegressions(t *testing.T) {
	cases := []struct {
		name  string
		opts  Options
		sched string
	}{
		// Flip ran ahead of the crashed data write with the data disk
		// dead from the start; the pre-flip twin was left obsolete.
		{
			name:  "paired-flip-obsolete-fallback",
			opts:  Options{Layout: rda.DataStriping, Seed: 1, Txns: 4, OpsPerTx: 3},
			sched: "faildisk[0]@w0 crash@w13",
		},
		// Same window found first by the mix soak: the data disk died
		// mid-run just before the flip, and the fallback twin still
		// carried a committed writer's working header.
		{
			name:  "paired-flip-working-fallback",
			opts:  Options{Layout: rda.DataStriping, Seed: 1853314096802305477},
			sched: "faildisk[4]@w1 crash@w10",
		},
		// A page declared lost by the parity-undo pass (coinciding,
		// unobserved disk death) was later rewritten by a full-page
		// logged before-image — log-determined after all, and it must
		// leave LostPages instead of being reported as zeroed loss.
		{
			name:  "lost-page-redetermined-by-log",
			opts:  Options{Layout: rda.ParityStriping, Seed: 1},
			sched: "faildisk[0]@w84 crash@w84",
		},
		// The disk holding a loser's committed twin died with the crash:
		// Figure 6 has nothing to XOR against and single twin parity no
		// second equation, but the page's before-image had reached the
		// log — rung 2 of the undo ladder, pass 4 writes it back.
		{
			name:  "undo-falls-back-to-logged-image",
			opts:  Options{Layout: rda.DataStriping, Seed: 1},
			sched: "faildisk[1]@w8 crash@w8",
		},
		// A second drive dies on the live path, before any crash, and the
		// first was never read since its death: the abort's Figure 6 read
		// meets the second, and the demotion that hands the steal to the
		// log recomputes the committed index over a group whose data page
		// sits on the first.  The verified group read solves around both.
		{
			name:  "second-death-inside-abort",
			opts:  Options{Layout: rda.DataStriping, Seed: 6, QParity: true},
			sched: "faildisk[0]@w0 faildisk[4]@w3 crash@w3",
		},
		{
			name:  "second-death-inside-demotion",
			opts:  Options{Layout: rda.DataStriping, Seed: 6, QParity: true},
			sched: "faildisk[0]@w0 faildisk[4]@w10 crash@w10",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := replay(t, tc.opts, tc.sched); err != nil {
				t.Fatalf("seed=%d sched=%q: %v", tc.opts.Seed, tc.sched, err)
			}
		})
	}
}

// TestTornDeadDiskScheduleRegressions replays the schedules the first
// torn × dead-disk sweep found (a FailDisk and a TornWrite in one
// schedule, which no enumerator produced before Options.Torn reached the
// dead-disk families).  All six put the disk's death at the
// torn write itself — unobserved before the crash — and failed while torn
// repair kept a separate decision table for degraded groups:
//
//   - five ended in silent corruption ("page N of interrupted commit
//     matches neither old nor new image").  In the two that were traced
//     the tear cut a loser's steal at its parity write while the sibling
//     twin was still working under a committed writer; the healthy rule —
//     undo the page if tagged, retire the torn twin — was never consulted,
//     and the degraded copy's "other twin describes" test, accepting only
//     a committed header, fell through to a loss declaration that zeroed
//     nothing;
//   - one failed the restart outright ("drive has failed"): a tear beside
//     two dead drives recomputed from the platter instead of handing the
//     torn block to the solver as a third erasure.  The contract there is
//     reported LostPages when the three share a group, never an error.
func TestTornDeadDiskScheduleRegressions(t *testing.T) {
	cases := []struct {
		opts  Options
		sched string
	}{
		{Options{Layout: rda.ParityStriping, Seed: 2, QParity: true}, "faildisk[2]@w130 torn[head]@w130"},
		{Options{Layout: rda.DataStriping, Seed: 2, OpsPerTx: 14}, "faildisk[4]@w82 torn[head]@w82"},
		{Options{Layout: rda.DataStriping, Seed: 1, QParity: true}, "faildisk[0]@w0 faildisk[3]@w2 torn[head]@w2"},
		{Options{Layout: rda.ParityStriping, Seed: 1, OpsPerTx: 14}, "faildisk[5]@w89 torn[tail]@w89"},
		{Options{Layout: rda.DataStriping, Seed: 1, QParity: true}, "faildisk[3]@w123 torn[tail]@w123"},
		{Options{Layout: rda.ParityStriping, Seed: 1, OpsPerTx: 14, QParity: true}, "faildisk[3]@w115 torn[tail]@w115"},
	}
	for _, tc := range cases {
		t.Run(tc.sched, func(t *testing.T) {
			if err := replay(t, tc.opts, tc.sched); err != nil {
				t.Fatalf("layout=%v seed=%d ops=%d pq=%v sched=%q: %v", tc.opts.Layout, tc.opts.Seed, tc.opts.OpsPerTx, tc.opts.QParity, tc.sched, err)
			}
		})
	}
}

// TestCutPastTheEndOfTheRun pins the schedules that used to escape Run as
// a Go panic: with disk 0 dead the workload and its rebuild end at write
// 110, so crash@w110 and crash@w111 fire inside the probe's commit — which
// sat outside every recover().  The probe now runs under the same guard as
// the workload and the pumps: the crash re-enters the convergence loop and
// the probe's transaction is one more interrupted commit to the oracle.
// The mix soak draws such indexes (a crash against the healthy write clock
// beside a disk death).
func TestCutPastTheEndOfTheRun(t *testing.T) {
	opts := Options{Layout: rda.DataStriping, Seed: 1}
	_, full, err := count(opts, deadPrefix(1))
	if err != nil {
		t.Fatal(err)
	}
	if full != 110 {
		t.Fatalf("the one-dead run ends at write %d, not 110: the schedules below no longer land in the probe", full)
	}
	for _, sched := range []string{"faildisk[0]@w0 crash@w110", "faildisk[0]@w0 crash@w111", "faildisk[0]@w0 torn[head]@w110"} {
		s, err := fault.ParseSchedule(sched)
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := Run(opts, s)
		if err != nil {
			t.Errorf("sched %q: %v", sched, err)
		}
		if rep == nil {
			t.Errorf("sched %q: the cut never fired", sched)
		}
	}
}

// TestKnownViolations pins the schedules that are known NOT to hold, each
// with the text it fails with.  A row passes while it still fails that way;
// the day a fix makes a row hold, this test fails and the fixer deletes the
// row in the same change (and strikes it from ROADMAP item 1).  Each row is
// a CLI replay: rdacrash [-qparity] [-records] [-scrub] [-ops N] -layout L
// -seed S -sched "...".
func TestKnownViolations(t *testing.T) {
	data, parity := rda.DataStriping, rda.ParityStriping
	for _, row := range []struct {
		opts  Options
		sched string
		text  string
	}{
		// ROADMAP item 1(c): hasLoggedImage is page-granular, record undo logging is not.
		{Options{Layout: data, Seed: 1, OpsPerTx: 14, Records: true}, "faildisk[0]@w90 crash@w90",
			"page 24 of interrupted commit matches neither old nor new image"},

		// ROADMAP item 1(d): a silent fault beside a dead disk, the family
		// `rdacrash -dead 1 [-qparity] -soak corrupt -scrub` draws
		// (EXPERIMENTS.md has the counts by kind).  What is left since every
		// survivor read went behind the one verified read (PR 25), the
		// shortest schedules of each kind:
		// silent divergence from the committed state;
		{Options{Layout: parity, Seed: 4053180209853662663, Scrub: true}, "faildisk[0]@w0 lostwrite@w2 crash@w4",
			"page 7 diverges from last committed image"},
		{Options{Layout: data, Seed: 9120158391902269642, Scrub: true}, "faildisk[0]@w0 lostwrite@w2 crash@w28",
			"page 8 diverges from last committed image"},
		{Options{Layout: parity, Seed: 9120158391902269642, Scrub: true}, "faildisk[0]@w0 lostwrite@w2 crash@w28",
			"page 4 diverges from last committed image"},
		// a broken twin-state invariant after restart (the one such run);
		{Options{Layout: parity, Seed: 3519546715566706830, Scrub: true}, "faildisk[0]@w0 misdirected[4]@w63 crash@w69",
			"group 4 current twin 1 in state obsolete, want committed"},
		// and reported loss inside the P+Q budget (the one such run).
		{Options{Layout: data, Seed: 8922020132844189146, QParity: true, Scrub: true}, "faildisk[0]@w0 lostwrite@w92 crash@w105",
			"recovery lost pages [16] inside the redundancy its schedule leaves"},
	} {
		err := replay(t, row.opts, row.sched)
		switch {
		case err == nil:
			t.Errorf("%s sched=%q holds now: delete its row here and its line in ROADMAP item 1", label(row.opts), row.sched)
		case !strings.Contains(err.Error(), row.text):
			t.Errorf("%s sched=%q fails differently:\n got %v\nwant ...%s...", label(row.opts), row.sched, err, row.text)
		}
	}
}

// TestAccumulateFoldsEveryField fills every field of a RecoveryReport,
// folds the report into a copy of itself and expects every number doubled
// and every slice twice as long — so the summed report Run returns cannot
// forget a field (as the hand-written sums forgot LaunderedTwins and
// Passes), and a field of a new kind fails here instead of in a sweep.
func TestAccumulateFoldsEveryField(t *testing.T) {
	fill := func() *rda.RecoveryReport {
		rep := &rda.RecoveryReport{}
		v := reflect.ValueOf(rep).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(i + 1))
			case reflect.Slice:
				f.Set(reflect.MakeSlice(f.Type(), i+1, i+1))
			default:
				t.Fatalf("RecoveryReport.%s is a %v: teach accumulate (and this test) to fold it", v.Type().Field(i).Name, f.Kind())
			}
		}
		return rep
	}
	if got := accumulate(nil, fill()); !reflect.DeepEqual(got, fill()) {
		t.Fatalf("folding into nothing changed the report: %+v", got)
	}
	v := reflect.ValueOf(accumulate(fill(), fill())).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch f := v.Field(i); f.Kind() {
		case reflect.Slice:
			if f.Len() != 2*(i+1) {
				t.Errorf("%s: %d element(s) after folding %d into %d", name, f.Len(), i+1, i+1)
			}
		default:
			if f.Int() != int64(2*(i+1)) {
				t.Errorf("%s: %d after folding %d into %d", name, f.Int(), i+1, i+1)
			}
		}
	}
}
