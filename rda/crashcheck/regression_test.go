package crashcheck

import (
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := fault.ParseSchedule(tc.sched)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunDegradedSchedule(tc.opts, s); err != nil {
				t.Fatalf("seed=%d sched=%q: %v", tc.opts.Seed, tc.sched, err)
			}
		})
	}
}

// TestTornDeadDiskScheduleRegressions replays the schedules the first
// torn × dead-disk sweep found (a FailDisk and a TornWrite in one
// schedule, which no enumerator produced before Options.Torn reached
// ExploreDegraded and ExploreDouble).  All six put the disk's death at the
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
			s, err := fault.ParseSchedule(tc.sched)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunDegradedSchedule(tc.opts, s); err != nil {
				t.Fatalf("layout=%v seed=%d ops=%d pq=%v sched=%q: %v", tc.opts.Layout, tc.opts.Seed, tc.opts.OpsPerTx, tc.opts.QParity, tc.sched, err)
			}
		})
	}
}
