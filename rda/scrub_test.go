package rda

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// scrubCycle runs one full StartScrub cycle and returns its report.
func scrubCycle(t *testing.T, db *DB) *ScrubReport {
	t.Helper()
	res := <-db.StartScrub()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res.Report
}

// TestScrubStepWalksWholeArray drives ScrubStep by hand: steps advance a
// cursor, the final step reports cycle completion, and planted latent
// errors anywhere in the array are repaired along the way.
func TestScrubStepWalksWholeArray(t *testing.T) {
	const batch = 2
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	imgs := make(map[PageID][]byte)
	tx := mustBegin(t, db)
	for p := PageID(0); p < PageID(db.NumPages()); p++ {
		img := fillPage(db, byte(p+3))
		if err := tx.WritePage(p, img); err != nil {
			t.Fatal(err)
		}
		imgs[p] = img
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []PageID{2, 21, 44} {
		if err := db.CorruptBlock(p); err != nil {
			t.Fatal(err)
		}
	}
	steps := 0
	total := &ScrubReport{}
	for {
		rep, done, err := db.ScrubStep(batch)
		if err != nil {
			t.Fatal(err)
		}
		total.add(*rep)
		steps++
		if done {
			break
		}
		if steps > 1000 {
			t.Fatal("scrub cycle never completed")
		}
	}
	groups := db.NumPages() / cfg.DataDisks
	if steps != (groups+batch-1)/batch {
		t.Fatalf("cycle took %d steps for %d groups at batch %d", steps, groups, batch)
	}
	if total.GroupsScanned != groups || total.GroupsSkipped != 0 {
		t.Fatalf("scanned %d skipped %d, want %d scanned", total.GroupsScanned, total.GroupsSkipped, groups)
	}
	if total.LatentErrors != 3 || total.Repaired != 3 {
		t.Fatalf("report %+v, want 3 latent / 3 repaired", total)
	}
	check := mustBegin(t, db)
	for p, want := range imgs {
		got, err := check.ReadPage(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d wrong after online scrub", p)
		}
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.ScrubbedGroups < int64(groups) || s.ScrubRepairs != 3 || s.CorruptBlocksDetected < 3 {
		t.Fatalf("integrity counters %+v, want ≥%d scrubbed / 3 repairs / ≥3 detected", s, groups)
	}
}

// TestScrubStepSkipsDirtyGroup checks the online scrubber's latching
// contract: a group holding an in-flight no-UNDO-logging steal is
// skipped (not an error, not blocked on) and picked up again once the
// transaction finishes.
func TestScrubStepSkipsDirtyGroup(t *testing.T) {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	cfg.BufferFrames = 2 // steal immediately
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, db)
	if err := tx.WritePage(0, fillPage(db, 0xAB)); err != nil {
		t.Fatal(err)
	}
	// Evict page 0 so its group goes dirty on disk.
	if _, err := tx.ReadPage(8); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.ReadPage(16); err != nil {
		t.Fatal(err)
	}
	info, err := db.InspectGroup(0)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Dirty {
		t.Skip("setup failed to dirty group 0")
	}
	total := &ScrubReport{}
	for {
		rep, done, err := db.ScrubStep(0)
		if err != nil {
			t.Fatal(err)
		}
		total.add(*rep)
		if done {
			break
		}
	}
	if total.GroupsSkipped == 0 {
		t.Fatalf("scrub cycle skipped nothing with a dirty group present: %+v", total)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	res := <-db.StartScrub()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Report.GroupsSkipped != 0 {
		t.Fatalf("post-abort cycle still skipped %d groups", res.Report.GroupsSkipped)
	}
}

// TestOnlineScrubConcurrentWithTransactions is the tentpole's liveness
// property: a background scrub cycle completes while transactions
// commit concurrently, repairs planted corruption, and no transaction
// ever observes corrupt or torn data.
func TestOnlineScrubConcurrentWithTransactions(t *testing.T) {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	cfg.Workers = 4
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed every page with a self-identifying pattern.
	tx := mustBegin(t, db)
	for p := PageID(0); p < PageID(db.NumPages()); p++ {
		if err := tx.WritePage(p, fillPage(db, byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Three rotted blocks sit in the writers' ranges, where a buffer miss
	// may read-repair them before the scrubber gets there; the fourth is in
	// a group no writer touches, so only the scrubber can find it.
	for _, p := range []PageID{3, 18, 33, 44} {
		if err := db.CorruptBlock(p); err != nil {
			t.Fatal(err)
		}
	}
	// Writers bang on disjoint page ranges while the scrubber runs.
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := PageID(w * 12)
			for round := 0; round < 20; round++ {
				tx, err := db.Begin()
				if err != nil {
					errs <- err
					return
				}
				p := base + PageID(round%12)
				if err := tx.WritePage(p, fillPage(db, byte(p)^0x40)); err != nil {
					tx.Abort()
					errs <- err
					return
				}
				if got, err := tx.ReadPage(p); err != nil || !bytes.Equal(got, fillPage(db, byte(p)^0x40)) {
					tx.Abort()
					errs <- errors.New("transaction read wrong contents during scrub")
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Scrub continuously until the writers finish: groups dirtied by
	// in-flight steals are skipped, so keep cycling.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	cycles := 0
scrubbing:
	for {
		res := <-db.StartScrub()
		if res.Err != nil {
			t.Error(res.Err)
			break
		}
		cycles++
		select {
		case <-done:
			break scrubbing
		default:
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Fatal("no scrub cycle completed")
	}
	// One final pass with the writers gone: the planted corruption must be
	// gone, and no group is left dirty to hide it.
	if rep := scrubCycle(t, db); rep.LatentErrors != 0 || rep.GroupsSkipped != 0 {
		t.Fatalf("latent errors survived %d online scrub cycles: %+v", cycles, rep)
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	if s := db.Stats(); s.ScrubRepairs == 0 || s.UnrecoverableCorruption != 0 {
		t.Fatalf("integrity counters %+v, want repairs > 0 and no unrecoverables", s)
	}
}

// TestUnrecoverableCorruptionDegraded plants a checksum failure on a
// surviving block of a group that already lost a member to a dead disk:
// the read must refuse with ErrUnrecoverableCorruption — never serve
// reconstructed-from-garbage bytes — and count the refusal.
func TestUnrecoverableCorruptionDegraded(t *testing.T) {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	cfg.BufferFrames = 2
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, db)
	for p := PageID(0); p < 8; p++ {
		if err := tx.WritePage(p, fillPage(db, byte(p+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Evict everything, kill the disk holding page 0, then corrupt a
	// surviving member of the same group.
	evict := mustBegin(t, db)
	for p := PageID(20); p < 24; p++ {
		if _, err := evict.ReadPage(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := evict.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.FailDisk(db.arr.DataLoc(0).Disk); err != nil {
		t.Fatal(err)
	}
	// Find a group member of page 0 stored on a healthy disk.
	info, err := db.InspectGroup(0)
	if err != nil {
		t.Fatal(err)
	}
	var survivor PageID = 1
	for _, q := range info.Pages {
		if q != 0 {
			survivor = q
			break
		}
	}
	if err := db.CorruptBlock(survivor); err != nil {
		t.Fatal(err)
	}
	check := mustBegin(t, db)
	if _, err := check.ReadPage(0); !errors.Is(err, ErrUnrecoverableCorruption) {
		t.Fatalf("degraded read of page 0 = %v, want ErrUnrecoverableCorruption", err)
	}
	check.Abort()
	if s := db.Stats(); s.UnrecoverableCorruption == 0 || s.CorruptBlocksDetected == 0 {
		t.Fatalf("integrity counters %+v, want unrecoverable and detected > 0", s)
	}
}
