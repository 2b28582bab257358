package rda

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// rebuildOutcome is what one media recovery leaves behind that its width
// must not change: every block's payload and header state (timestamps are
// drawn in completion order and Figure 7 compares them only within a group,
// so platterSum leaves them out) and the transfers it took.
type rebuildOutcome struct {
	platter   string
	transfers int64
}

// rebuildRun drives a seeded workload until transactions with no-log steals
// on the platter are open, then loses and repairs every drive in turn
// without the engine noticing the death first — so each rebuild meets the
// dirty groups as they are and needs the retained before-images — and, on
// P+Q, every adjacent pair of drives through the degraded path.  It ends
// by aborting the open transactions through whatever the rebuilds left.
func rebuildRun(t *testing.T, cfg Config) (out []rebuildOutcome) {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &fpWorkload{t: t, db: db, rng: rand.New(rand.NewSource(1)), locked: make(map[PageID]bool)}
	for i := 0; i < 30 || db.store.Dirty.Len() == 0; i++ {
		w.step()
	}
	repaired := func(name string, repair func() error) {
		t.Helper()
		before := db.Stats().TotalTransfers()
		if err := repair(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		o := rebuildOutcome{transfers: db.Stats().TotalTransfers() - before}
		if err := db.VerifyParity(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		o.platter = platterSum(t, db)
		out = append(out, o)
	}
	n := db.NumDisks()
	for d := 0; d < n; d++ {
		if err := db.arr.FailDisk(d); err != nil {
			t.Fatal(err)
		}
		repaired("repair of one drive", func() error { return db.RepairDisk(d) })
		if db.store.Dirty.Len() == 0 {
			t.Fatal("the rebuild cleaned the open steals' groups")
		}
	}
	for d := 0; cfg.QParity && d < n; d++ {
		a, b := d, (d+1)%n
		for _, x := range []int{a, b} {
			if err := db.FailDisk(x); err != nil {
				t.Fatal(err)
			}
		}
		repaired("repair of two drives", func() error {
			lost, err := db.RepairDisks(a, b)
			if err == nil && len(lost) > 0 {
				t.Errorf("two-drive repair of %d and %d lost groups %v", a, b, lost)
			}
			return err
		})
	}
	for len(w.open) > 0 {
		w.finish(0, false)
	}
	repaired("aborts", func() error { return nil })
	return out
}

// TestRebuildEquivalentAtEveryWidth: media recovery is the same recovery
// at every width — the plain loop, four workers on synchronous drives, and
// one lane per drive with each group's reads issued together on queued
// ones — on twin parity and on P+Q.
func TestRebuildEquivalentAtEveryWidth(t *testing.T) {
	twin := smallConfig(PageLogging, Force, true, DataStriping)
	pq := twin
	pq.QParity = true
	for name, base := range map[string]Config{"twin": twin, "p+q": pq} {
		want := rebuildRun(t, base)
		workers, queued := base, base
		workers.Workers = 4
		queued.QueueDepth = 8
		for width, cfg := range map[string]Config{"workers=4": workers, "queue-depth=8": queued} {
			if got := rebuildRun(t, cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s:\n got %+v\nwant %+v", name, width, got, want)
			}
		}
	}
}

// TestRebuildKeepsEveryDriveBusy: on drives that take time, a drive is
// rebuilt in under a quarter of the time its transfers would take one after
// another — a bound a one-at-a-time rebuild cannot meet however fast the
// machine, because a sleep never returns early.
func TestRebuildKeepsEveryDriveBusy(t *testing.T) {
	cfg := DefaultConfig() // N = 10: twelve drives
	cfg.NumPages = 240     // 24 groups
	cfg.BufferFrames = 16
	cfg.QueueDepth = 8
	cfg.IODelay = 2 * time.Millisecond
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.FailDisk(3); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().TotalTransfers()
	start := time.Now()
	err = db.RepairDisk(3)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	transfers := db.Stats().TotalTransfers() - before
	if want := int64((cfg.DataDisks + 1) * db.arr.NumGroups()); transfers != want {
		t.Fatalf("the rebuild made %d transfers, want N reads and a write for each of %d groups: %d", transfers, db.arr.NumGroups(), want)
	}
	if serial := time.Duration(transfers) * cfg.IODelay; took >= serial/4 {
		t.Fatalf("rebuild took %v; %d transfers one at a time take %v", took, transfers, serial)
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d transfers in %v", transfers, took)
}
