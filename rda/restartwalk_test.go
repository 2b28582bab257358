package rda

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/page"
)

// walkOutcome is everything a restart leaves behind that its width must
// not change.
type walkOutcome struct {
	platter string // payloads and header states of every block
	report  RecoveryReport
	bitmap  []int
}

// walkRun drives one seeded workload — winners whose working twins the
// restart launders, losers' no-log steals, and a loser with logged
// before-images — into a quiescent crash, more of it into a mid-I/O one,
// and returns what each restart left.  It ends with a crash straight after
// the last restart, whose recovery must find nothing to write.
func walkRun(t *testing.T, cfg Config) (out []walkOutcome) {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &fpWorkload{t: t, db: db, rng: rand.New(rand.NewSource(1)), locked: make(map[PageID]bool)}
	recoverNow := func(name string) {
		t.Helper()
		w.crashed()
		rep, err := db.Recover()
		if err != nil {
			t.Fatalf("%s: recover: %v", name, err)
		}
		if err := db.VerifyRecovered(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		o := walkOutcome{platter: platterSum(t, db), report: *rep}
		o.report.Passes = nil
		for g := 0; g < db.arr.NumGroups(); g++ {
			o.bitmap = append(o.bitmap, db.store.Twins.Current(page.GroupID(g)))
		}
		out = append(out, o)
	}
	for i := 0; i < 40; i++ {
		w.step()
	}
	db.Crash()
	recoverNow("soft")
	for i := 0; i < 25; i++ {
		w.step()
	}
	db.CrashHard()
	recoverNow("hard")

	db.Crash()
	before := db.arr.Stats().Writes
	recoverNow("again")
	if n := db.arr.Stats().Writes - before; n != 0 {
		t.Fatalf("a restart straight after a restart wrote %d block(s)", n)
	}
	return out
}

// TestRestartWalkEquivalence: the restart is the same restart at every
// width — the plain loop, a pool of four workers on synchronous drives, and
// one lane per drive on queued ones.
func TestRestartWalkEquivalence(t *testing.T) {
	base := smallConfig(PageLogging, Force, true, DataStriping)
	want := walkRun(t, base)
	if r := want[0].report; r.LaunderedTwins == 0 || r.UndoneViaParity == 0 || r.UndoneViaLog == 0 {
		t.Fatalf("the workload left the soft restart nothing of some kind to do: %+v", r)
	}
	if r := want[1].report; r.UndoneViaParity+r.UndoneViaLog == 0 {
		t.Fatalf("the workload left the hard restart nothing to undo: %+v", r)
	}
	workers, queued := base, base
	workers.Workers = 4
	queued.QueueDepth = 8
	for name, cfg := range map[string]Config{"workers=4": workers, "queue-depth=8": queued} {
		got := walkRun(t, cfg)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s, restart %d:\n got %+v\nwant %+v", name, i, got[i], want[i])
			}
		}
	}
}

// TestRestartKeepsEveryDriveBusy: on drives that take time, a restart is
// over in less than half the time its header reads would take one after
// another — a bound a one-drive-at-a-time scan cannot meet however fast the
// machine, because a sleep never returns early.
func TestRestartKeepsEveryDriveBusy(t *testing.T) {
	cfg := DefaultConfig() // N = 10: twelve drives
	cfg.NumPages = 240     // 24 groups
	cfg.BufferFrames = 16
	cfg.QueueDepth = 8
	cfg.IODelay = 2 * time.Millisecond
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.Crash()
	start := time.Now()
	rep, err := db.Recover()
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	var reads int64
	for _, p := range rep.Passes {
		reads += p.Transfers
	}
	if want := int64(2 * db.arr.NumGroups()); reads != want {
		t.Fatalf("the restart made %d transfers (%+v), want the %d header reads", reads, rep.Passes, want)
	}
	if serial := time.Duration(reads) * cfg.IODelay; took >= serial/2 {
		t.Fatalf("restart took %v; %d header reads one at a time take %v", took, reads, serial)
	}
	t.Log(rep.Passes)
}
