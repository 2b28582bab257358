package rda

import (
	"bytes"
	"repro/internal/diskarray"
	"testing"

	"repro/internal/fault"
	"repro/internal/page"
)

// loadAll fills the whole database with distinct committed pages and
// returns the images.
func loadAll(t *testing.T, db *DB) map[PageID][]byte {
	t.Helper()
	imgs := make(map[PageID][]byte)
	pages := make([][]byte, db.NumPages())
	for p := range pages {
		img := fillPage(db, byte(p*3+7))
		pages[p] = img
		imgs[PageID(p)] = img
	}
	if _, err := db.BulkLoad(0, pages); err != nil {
		t.Fatal(err)
	}
	return imgs
}

// checkAfterDoubleFailure verifies the post-repair contract: pages of
// lost groups read back zeroed, everything else is intact, and the
// parity invariant holds.
func checkAfterDoubleFailure(t *testing.T, db *DB, imgs map[PageID][]byte, lost []uint32) {
	t.Helper()
	lostPages := make(map[PageID]bool)
	for _, g := range lost {
		for _, p := range db.arr.GroupPages(page.GroupID(g)) {
			lostPages[PageID(p)] = true
		}
	}
	zero := make([]byte, db.PageSize())
	for p, want := range imgs {
		got, err := db.PeekPage(p)
		if err != nil {
			t.Fatalf("page %d unreadable after repair: %v", p, err)
		}
		if lostPages[p] {
			// Either zeroed (the page was on a failed disk) or intact
			// (the group lost other blocks beyond repair).
			if !bytes.Equal(got, zero) && !bytes.Equal(got, want) {
				t.Fatalf("lost-group page %d holds fabricated data", p)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d corrupted by double-failure repair (not in a lost group)", p)
		}
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleFailureBothTwinDisks fails the two disks carrying group 0's
// parity twins simultaneously.  Group 0 itself loses only parity and
// must come back perfectly; other groups may lose data (reported, not
// fabricated).
func TestDoubleFailureBothTwinDisks(t *testing.T) {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	imgs := loadAll(t, db)
	g0 := db.arr.GroupOf(0)
	d0 := db.arr.Loc(g0, diskarray.P.Twin(0)).Disk
	d1 := db.arr.Loc(g0, diskarray.P.Twin(1)).Disk
	if err := db.FailDisk(d0); err != nil {
		t.Fatal(err)
	}
	if err := db.FailDisk(d1); err != nil {
		t.Fatal(err)
	}
	lost, err := db.RepairDisks(d0, d1)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range lost {
		if g == uint32(g0) {
			t.Fatalf("group 0 lost only its twins; it must be recoverable")
		}
	}
	checkAfterDoubleFailure(t, db, imgs, lost)
	// Group 0's data is bit exact.
	for _, p := range db.arr.GroupPages(g0) {
		got, err := db.PeekPage(PageID(p))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, imgs[PageID(p)]) {
			t.Fatalf("group 0 page %d corrupted", p)
		}
	}
}

// TestDoubleFailureTwinAdvantage sweeps every disk pair on twin-parity
// and single-parity arrays of the same width: twin parity must recover
// strictly more groups in aggregate, and both must report rather than
// fabricate what they cannot recover.
func TestDoubleFailureTwinAdvantage(t *testing.T) {
	countLost := func(useRDA bool) float64 {
		total, pairs := 0, 0
		probe, err := Open(smallConfig(PageLogging, Force, useRDA, DataStriping))
		if err != nil {
			t.Fatal(err)
		}
		nd := probe.NumDisks()
		for dA := 0; dA < nd; dA++ {
			for dB := dA + 1; dB < nd; dB++ {
				db, err := Open(smallConfig(PageLogging, Force, useRDA, DataStriping))
				if err != nil {
					t.Fatal(err)
				}
				imgs := loadAll(t, db)
				if err := db.FailDisk(dA); err != nil {
					t.Fatal(err)
				}
				if err := db.FailDisk(dB); err != nil {
					t.Fatal(err)
				}
				lost, err := db.RepairDisks(dA, dB)
				if err != nil {
					t.Fatalf("rda=%v pair (%d,%d): %v", useRDA, dA, dB, err)
				}
				checkAfterDoubleFailure(t, db, imgs, lost)
				total += len(lost)
				pairs++
			}
		}
		return float64(total) / float64(pairs)
	}
	twinLost := countLost(true)
	singleLost := countLost(false)
	if twinLost >= singleLost {
		t.Fatalf("twin parity lost %.1f groups per failure pair, single parity %.1f: twins must help",
			twinLost, singleLost)
	}
	if twinLost == 0 {
		t.Fatalf("some two-disk patterns must still exceed the redundancy")
	}
}

// TestSecondFailureMidRebuild fails a second disk *during* the rebuild
// of the first, via a fault-plane rule that fail-stops the drive once
// the rebuild has written a few blocks.  The interrupted RepairDisk must
// surface the failure (not fabricate data), and the subsequent
// double-disk repair must report the groups that exceeded the
// redundancy while leaving every other page intact.
func TestSecondFailureMidRebuild(t *testing.T) {
	db, err := Open(smallConfig(PageLogging, Force, true, DataStriping))
	if err != nil {
		t.Fatal(err)
	}
	imgs := loadAll(t, db)
	dA, dB := 0, 1
	if err := db.FailDisk(dA); err != nil {
		t.Fatal(err)
	}
	// Drive dB dies at its next access once the rebuild of dA has
	// written 4 blocks; the rebuild only reads dB, which is exactly why
	// the rule triggers on reads too.
	plane := fault.NewPlane(fault.Schedule{fault.FailDisk(dB, 4)})
	db.SetInjector(plane)
	if err := db.RepairDisk(dA); err == nil {
		t.Fatalf("rebuild of disk %d survived the mid-rebuild failure of disk %d", dA, dB)
	}
	db.SetInjector(nil)
	lost, err := db.RepairDisks(dA, dB)
	if err != nil {
		t.Fatalf("double repair: %v", err)
	}
	if len(lost) == 0 {
		t.Fatalf("two data disks failed; some groups must be reported lost")
	}
	checkAfterDoubleFailure(t, db, imgs, lost)
}

// TestSingleDiskRepairNeverLoses re-checks the single-failure contract
// through the multi-disk API.
func TestSingleDiskRepairNeverLoses(t *testing.T) {
	db, err := Open(smallConfig(PageLogging, Force, true, DataStriping))
	if err != nil {
		t.Fatal(err)
	}
	imgs := loadAll(t, db)
	for d := 0; d < db.NumDisks(); d++ {
		if err := db.FailDisk(d); err != nil {
			t.Fatal(err)
		}
		lost, err := db.RepairDisks(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(lost) != 0 {
			t.Fatalf("single-disk repair reported lost groups %v", lost)
		}
	}
	checkAfterDoubleFailure(t, db, imgs, nil)
}
