package crashcheck

import (
	"testing"

	"repro/internal/fault"
	"repro/rda"
)

// TestRestartResumesAtEveryWrite: a restart that undoes a loser whose
// steals only parity undoes — no before-image of it on the log — is
// idempotent and resumable.  Every cut of the default workload whose
// restart is such a one is replayed with a second cut at each of the
// restart's own array writes; the interrupted restart is followed by
// another, and the run must end where the oracle says.  A second restart
// after a clean one issues no array write.  Healthy arrays, twin parity
// and P+Q, FORCE and ¬FORCE, clean and torn cuts.
func TestRestartResumesAtEveryWrite(t *testing.T) {
	for _, v := range []struct {
		name string
		opts Options
	}{
		{"clean", Options{}},
		{"qparity", Options{QParity: true}},
		{"noforce", Options{NoForce: true}},
		{"torn", Options{Torn: true}},
	} {
		for _, layout := range []rda.Layout{rda.DataStriping, rda.ParityStriping} {
			opts := v.opts
			opts.Layout, opts.Seed = layout, 1
			opts.fill()
			name := v.name + "/" + layout.String()
			workload, _, err := count(opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			restarts, cuts := 0, 0
			for k := int64(0); k < workload; k++ {
				d, err := start(opts, fault.Schedule{opts.cut(k)})
				if err != nil {
					t.Fatal(err)
				}
				crash, err := guard(d.workload)
				if err != nil || crash == nil {
					t.Fatalf("%s: cut at write %d: crash %v, err %v", name, k, crash, err)
				}
				d.db.CrashHard()
				from := d.plane.Writes()
				rep, err := d.db.Recover()
				if err != nil {
					t.Fatalf("%s: cut at write %d: %v", name, k, err)
				}
				if rep.UndoneViaParity == 0 || rep.UndoneViaLog != 0 {
					continue
				}
				restarts++
				for j := from; j < d.plane.Writes(); j++ {
					sched := fault.Schedule{opts.cut(k), opts.cut(j)}
					if _, _, err := Run(opts, sched); err != nil {
						t.Errorf("%s: %v: %v", name, sched, err)
					}
					cuts++
				}
				d.db.Crash()
				before := d.plane.Writes()
				if _, err := d.db.Recover(); err != nil {
					t.Fatalf("%s: cut at write %d, second restart: %v", name, k, err)
				}
				if n := d.plane.Writes() - before; n != 0 {
					t.Errorf("%s: cut at write %d: a second restart wrote %d blocks", name, k, n)
				}
			}
			if restarts == 0 || cuts == 0 {
				t.Fatalf("%s: no cut left a loser only parity undoes (%d restarts, %d cuts)", name, restarts, cuts)
			}
			t.Logf("%s: %d restarts, %d cuts inside them", name, restarts, cuts)
		}
	}
}
