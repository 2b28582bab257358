package rda

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/diskarray"
	"repro/internal/page"
)

// rebuildTransfers drives the online rebuild to completion and returns the
// transfers it took.
func rebuildTransfers(t *testing.T, db *DB) int64 {
	t.Helper()
	before := db.Stats().TotalTransfers()
	for steps := 0; ; steps++ {
		done, err := db.RebuildStep(0)
		if err != nil {
			t.Fatalf("rebuild step %d: %v", steps, err)
		}
		if done {
			break
		}
		if steps > db.NumGroups() {
			t.Fatalf("rebuild did not converge after %d steps", steps)
		}
	}
	if h := db.Health(); h != diskarray.Healthy {
		t.Fatalf("health after rebuild = %v, want healthy", h)
	}
	return db.Stats().TotalTransfers() - before
}

// rebuildInBackground is a background online rebuild: a goroutine loops
// RebuildStep(0) until it reports done and delivers the first error, or
// nil, on the returned channel.
func rebuildInBackground(db *DB) <-chan error {
	ch := make(chan error, 1)
	go func() {
		for {
			done, err := db.RebuildStep(0)
			if err != nil || done {
				ch <- err
				return
			}
			runtime.Gosched()
		}
	}()
	return ch
}

// TestRepairOfSomeDownDrives: repairing one of two dead drives on P+Q
// leaves the engine serving around exactly the drive still down, so the
// online rebuild that follows rebuilds that drive alone — the transfers of
// a one-drive rebuild, not a second pass over the repaired one.
func TestRepairOfSomeDownDrives(t *testing.T) {
	one, err := Open(qparityConfig())
	if err != nil {
		t.Fatal(err)
	}
	loadAll(t, one)
	if err := one.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	want := rebuildTransfers(t, one)

	db, err := Open(qparityConfig())
	if err != nil {
		t.Fatal(err)
	}
	imgs := loadAll(t, db)
	for _, d := range []int{0, 1} {
		if err := db.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.RepairDisk(0); err != nil {
		t.Fatal(err)
	}
	if got, arr := db.store.DownDisks(), db.arr.DownDisks(); !slices.Equal(got, arr) || !slices.Equal(arr, []int{1}) {
		t.Fatalf("after repairing disk 0 the store serves around %v, the array has %v down; want [1] for both", got, arr)
	}
	if got := rebuildTransfers(t, db); got != want {
		t.Fatalf("the rebuild after the repair took %d transfers; a one-drive rebuild takes %d", got, want)
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	for p, img := range imgs {
		got, err := db.PeekPage(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, img) {
			t.Fatalf("page %d wrong after the repair and the rebuild", p)
		}
	}
}

// TestRepairBesideAnUnfinishedRebuild: a repair of one drive while the
// online rebuild of it and another is under way rebuilds the other's
// replacement too, instead of declaring the array healthy over its
// unrestored blocks.
func TestRepairBesideAnUnfinishedRebuild(t *testing.T) {
	db, err := Open(qparityConfig())
	if err != nil {
		t.Fatal(err)
	}
	imgs := loadAll(t, db)
	for _, d := range []int{0, 1} {
		if err := db.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	if done, err := db.RebuildStep(2); done || err != nil {
		t.Fatalf("first rebuild step: (%v, %v)", done, err)
	}
	if err := db.RepairDisk(0); err != nil {
		t.Fatal(err)
	}
	if h := db.Health(); h != diskarray.Healthy {
		t.Fatalf("health after the repair = %v, want healthy", h)
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	for p, img := range imgs {
		got, err := db.PeekPage(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, img) {
			t.Fatalf("page %d wrong after the repair", p)
		}
	}
}

// TestRebuildStepOnUnsyncedFailedArray: two deaths on a twin-parity array
// that the engine has not observed yet leave it Failed; the rebuild must
// say so, not report a healthy array done.
func TestRebuildStepOnUnsyncedFailedArray(t *testing.T) {
	db, err := Open(smallConfig(PageLogging, Force, true, DataStriping))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{0, 1} {
		if err := db.arr.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	if done, err := db.RebuildStep(0); done || !errors.Is(err, ErrArrayFailed) {
		t.Fatalf("RebuildStep on a failed array = (%v, %v), want ErrArrayFailed", done, err)
	}
	if err := <-rebuildInBackground(db); !errors.Is(err, ErrArrayFailed) {
		t.Fatalf("a background rebuild of a failed array delivered %v, want ErrArrayFailed", err)
	}
	if h := db.Health(); h != diskarray.Failed {
		t.Fatalf("health = %v, want failed", h)
	}
}

// TestRebuildStepRunsBesideTransactions: the online rebuild stops no one.
// With the replacement drive frozen, a rebuild step sits in the middle of
// its batch; a transaction on an unrestored group outside the batch — a
// degraded read of the lost page and a write of another — commits while
// the step is still held there.
func TestRebuildStepRunsBesideTransactions(t *testing.T) {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	cfg.QueueDepth = 8
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	imgs := loadAll(t, db)
	const dead = 0
	if err := db.FailDisk(dead); err != nil {
		t.Fatal(err)
	}
	// The step's batch is groups 0 and 1; the transaction works on the
	// last group that lost a data page.
	var last page.GroupID
	var lostPage, writePage PageID
	for g := page.GroupID(db.NumGroups() - 1); lostPage == 0; g-- {
		last = g
		for _, p := range db.arr.GroupPages(g) {
			if db.arr.DataLoc(p).Disk == dead {
				lostPage = PageID(p)
			} else {
				writePage = PageID(p)
			}
		}
	}
	if last < 2 {
		t.Fatalf("no group outside the batch lost a data page to disk %d", dead)
	}
	replacement := db.arr.Disk(dead)
	replacement.Freeze()
	thawed := false
	thaw := func() {
		if !thawed {
			thawed = true
			replacement.Thaw()
		}
	}
	defer thaw()
	step := make(chan error, 1)
	go func() {
		_, err := db.RebuildStep(2)
		step <- err
	}()
	for look := 0; replacement.QueueLen() == 0; look++ {
		if look == 50_000_000 {
			thaw()
			t.Fatalf("the rebuild step never reached its replacement drive: %v", <-step)
		}
		runtime.Gosched()
	}

	img := fillPage(db, 0xE5)
	committed := make(chan error, 1)
	go func() {
		committed <- func() error {
			tx, err := db.Begin()
			if err != nil {
				return err
			}
			got, err := tx.ReadPage(lostPage)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, imgs[lostPage]) {
				t.Errorf("degraded read of page %d served wrong bytes", lostPage)
			}
			if err := tx.WritePage(writePage, img); err != nil {
				return err
			}
			return tx.Commit()
		}()
	}()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		thaw()
		t.Fatal("a transaction beside the rebuild step did not commit: the step stops the world")
	}
	select {
	case err := <-step:
		t.Fatalf("the rebuild step finished with its replacement drive frozen: %v", err)
	default:
	}
	if !db.store.GroupDegraded(last) {
		t.Fatalf("group %d was restored before the transaction ran", last)
	}
	thaw()
	if err := <-step; err != nil {
		t.Fatal(err)
	}
	rebuildTransfers(t, db)
	imgs[writePage] = img
	for p, want := range imgs {
		got, err := db.PeekPage(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d wrong after the rebuild", p)
		}
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}
