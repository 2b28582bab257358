package rda

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/wal"
)

func TestScrubRepairsLatentErrors(t *testing.T) {
	for _, useRDA := range []bool{false, true} {
		cfg := smallConfig(PageLogging, Force, useRDA, DataStriping)
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		imgs := make(map[PageID][]byte)
		tx := mustBegin(t, db)
		for p := PageID(0); p < 16; p++ {
			img := fillPage(db, byte(p+5))
			if err := tx.WritePage(p, img); err != nil {
				t.Fatal(err)
			}
			imgs[p] = img
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		// Inject latent sector errors in three different groups.
		for _, p := range []PageID{1, 6, 11} {
			if err := db.CorruptBlock(p); err != nil {
				t.Fatal(err)
			}
		}
		rep := scrubCycle(t, db)
		if rep.LatentErrors != 3 || rep.Repaired != 3 || rep.GroupsSkipped != 0 {
			t.Fatalf("rda=%v: scrub report %+v, want 3 latent / 3 repaired, none skipped", useRDA, rep)
		}
		// All contents restored bit exactly.
		check := mustBegin(t, db)
		for p, want := range imgs {
			got, err := check.ReadPage(p)
			if err != nil {
				t.Fatalf("rda=%v: page %d unreadable after scrub: %v", useRDA, p, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("rda=%v: page %d corrupted after scrub", useRDA, p)
			}
		}
		if err := check.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := db.VerifyParity(); err != nil {
			t.Fatal(err)
		}
		// A clean scrub finds nothing.
		rep = scrubCycle(t, db)
		if rep.LatentErrors != 0 || rep.Repaired != 0 || rep.ParityRewritten != 0 || rep.GroupsSkipped != 0 {
			t.Fatalf("rda=%v: second scrub found phantom damage: %+v", useRDA, rep)
		}
	}
}

// TestScrubRequiresQuiescence: a scrub cycle verifies a group only once
// it is quiesced.  A group dirtied by an open no-log steal is skipped, not
// waited on, and the cycle after the abort scans every group.
func TestScrubRequiresQuiescence(t *testing.T) {
	db, err := Open(smallConfig(PageLogging, Force, true, DataStriping))
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, db)
	// Write enough to force a no-log steal (dirty group on disk).
	for p := PageID(0); p < 10; p++ {
		if err := tx.WritePage(p*4, fillPage(db, byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	dirty := db.store.Dirty.Len()
	if dirty == 0 {
		t.Fatal("setup failed: no group dirty")
	}
	if rep := scrubCycle(t, db); rep.GroupsSkipped != dirty || rep.GroupsScanned != db.NumGroups()-dirty {
		t.Fatalf("cycle beside %d dirty groups: %+v", dirty, rep)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if rep := scrubCycle(t, db); rep.GroupsSkipped != 0 || rep.GroupsScanned != db.NumGroups() {
		t.Fatalf("cycle after the abort: %+v, want all %d groups scanned", rep, db.NumGroups())
	}
}

func TestBulkLoadFullStripes(t *testing.T) {
	for _, layout := range []Layout{DataStriping, ParityStriping} {
		cfg := smallConfig(PageLogging, Force, true, layout)
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Data striping groups N *consecutive* logical pages, so a short
		// run covers whole stripes; parity striping scatters a group's
		// members across the disks' logical ranges (same (area, offset)
		// on each disk), so only a whole-database load covers full
		// groups.
		n := cfg.DataDisks
		count := 3*n + 2
		if layout == ParityStriping {
			count = db.NumPages()
		}
		pages := make([][]byte, count)
		for i := range pages {
			pages[i] = fillPage(db, byte(i+1))
		}
		db.ResetStats()
		stripes, err := db.BulkLoad(0, pages)
		if err != nil {
			t.Fatal(err)
		}
		switch layout {
		case DataStriping:
			if stripes != 3 {
				t.Fatalf("%v: %d full stripes, want 3", layout, stripes)
			}
		case ParityStriping:
			if stripes != db.NumPages()/n {
				t.Fatalf("%v: %d full stripes, want %d", layout, stripes, db.NumPages()/n)
			}
		}
		if err := db.VerifyParity(); err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		check := mustBegin(t, db)
		for i := range pages {
			got, err := check.ReadPage(PageID(i))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, pages[i]) {
				t.Fatalf("%v: page %d wrong after bulk load", layout, i)
			}
		}
		if err := check.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBulkLoadCheaperThanSmallWrites(t *testing.T) {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	load := func(bulk bool) int64 {
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := cfg.DataDisks
		pages := make([][]byte, 8*n)
		for i := range pages {
			pages[i] = fillPage(db, byte(i))
		}
		db.ResetStats()
		if bulk {
			if _, err := db.BulkLoad(0, pages); err != nil {
				t.Fatal(err)
			}
		} else {
			tx := mustBegin(t, db)
			for i := range pages {
				if err := tx.WritePage(PageID(i), pages[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		return db.Stats().TotalTransfers()
	}
	bulk, small := load(true), load(false)
	if bulk*2 > small {
		t.Fatalf("bulk load used %d transfers, small writes %d: expected at least 2× saving", bulk, small)
	}
}

func TestBulkLoadRejections(t *testing.T) {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.BulkLoad(PageID(db.NumPages()-1), make([][]byte, 4)); !errors.Is(err, ErrBadPage) {
		t.Fatalf("err = %v, want ErrBadPage", err)
	}
	tx := mustBegin(t, db)
	if err := tx.WritePage(0, fillPage(db, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BulkLoad(0, [][]byte{fillPage(db, 2)}); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy with an active transaction", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncationBoundsLog checks that the log does not grow without
// bound under a steady commit workload (FORCE/TOC truncates at every
// EOT, so that pass takes no checkpoint; ¬FORCE/ACC at every
// checkpoint, here one every fifth round).  With a reader, a transaction
// that writes nothing stays open over rounds 10–29 (it reads nothing
// either: its shared lock would block the writers, which cover every
// page): it holds the durable floor at
// its id, so the log is kept from its Begin while it is open — the
// retention presumed abort accepts, since a transaction that has not
// written yet may still write — and falls back to the small window once
// it ends.
func TestTruncationBoundsLog(t *testing.T) {
	for _, eot := range []EOTDiscipline{Force, NoForce} {
		for _, reader := range []bool{false, true} {
			cfg := smallConfig(PageLogging, eot, true, DataStriping)
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var rd *Tx
			var rdBegin wal.LSN
			var maxLive, maxHeld, heldBytes, live int
			for round := 0; round < 40; round++ {
				if reader && round == 10 {
					rd = mustBegin(t, db)
					rdBegin = rd.st.beginLSN
				}
				if reader && round == 30 {
					if err := rd.Commit(); err != nil {
						t.Fatal(err)
					}
					rd = nil
				}
				tx := mustBegin(t, db)
				for p := PageID(0); p < 4; p++ {
					if err := tx.WritePage((p+PageID(round*3))%PageID(db.NumPages()), fillPage(db, byte(round))); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				if eot == NoForce && round%5 == 4 {
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				live = db.log.Len() - int(db.log.FirstLSN()) + 1
				if rd != nil {
					if first := db.log.FirstLSN(); first > rdBegin {
						t.Fatalf("%v round %d: log truncated to %d past the open reader's Begin at %d", eot, round, first, rdBegin)
					}
					if live > maxHeld {
						maxHeld, heldBytes = live, 0
						if err := db.log.Scan(0, func(r wal.Record) bool { heldBytes += len(r.Image); return true }); err != nil {
							t.Fatal(err)
						}
					}
					continue
				}
				maxLive = max(maxLive, live)
			}
			// 40 rounds × (4 after-images + 1 EOT) would be 200+ records
			// without truncation; the live window must stay small, away
			// from the reader and at the end.
			if maxLive > 60 {
				t.Fatalf("%v reader=%v: live log grew to %d records; truncation not working", eot, reader, maxLive)
			}
			if reader {
				// Every record of the 20 update transactions is held.
				if maxHeld < 20 {
					t.Fatalf("%v: the open reader held %d records, want every record since its Begin", eot, maxHeld)
				}
				t.Logf("%v: a reader open over 20 update commits holds %d records (%d image bytes); at most %d outside its life, %d at the end", eot, maxHeld, heldBytes, maxLive, live)
			}
		}
	}
}

// TestTruncatedEOTWorkingTwinSurvivesCrash is the safety property log
// truncation leans on: a committed transaction's working parity twin may
// outlive its (truncated) EOT record; after a crash, recovery must treat
// the unknown writer as committed, keep that twin current, and preserve
// the committed data.
func TestTruncatedEOTWorkingTwinSurvivesCrash(t *testing.T) {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	cfg.BufferFrames = 2 // steal immediately: working twins on disk
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fillPage(db, 0x5D)
	tx := mustBegin(t, db)
	if err := tx.WritePage(0, want); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// FORCE/TOC truncation after the commit leaves the log empty while
	// the group's current parity is a lazily committed working twin.
	if live := db.log.Len() - int(db.log.FirstLSN()) + 1; live != 0 {
		t.Fatalf("log not truncated: %d live records", live)
	}
	info, err := db.InspectGroup(0)
	if err != nil {
		t.Fatal(err)
	}
	if info.TwinStates[info.CurrentTwin] != "working" {
		t.Skipf("current twin already laundered (%v); scenario not reachable", info.TwinStates)
	}
	db.Crash()
	if _, err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	check := mustBegin(t, db)
	got, err := check.ReadPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("committed data lost after truncation + crash")
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

// TestInlineReadRepair checks that a transactional read of a page with a
// latent sector error succeeds transparently: the engine rebuilds the
// block from the group's redundancy on the fly.
func TestInlineReadRepair(t *testing.T) {
	for _, useRDA := range []bool{false, true} {
		cfg := smallConfig(PageLogging, Force, useRDA, DataStriping)
		cfg.BufferFrames = 2 // the page must not stay resident
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := fillPage(db, 0x6E)
		tx := mustBegin(t, db)
		if err := tx.WritePage(5, want); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		// Evict page 5, then corrupt its stored block.
		evict := mustBegin(t, db)
		for p := PageID(20); p < 24; p++ {
			if _, err := evict.ReadPage(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := evict.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := db.CorruptBlock(5); err != nil {
			t.Fatal(err)
		}
		check := mustBegin(t, db)
		got, err := check.ReadPage(5)
		if err != nil {
			t.Fatalf("rda=%v: read of corrupted page failed: %v", useRDA, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rda=%v: read repair returned wrong contents", useRDA)
		}
		if err := check.Commit(); err != nil {
			t.Fatal(err)
		}
		// The repair is durable: a direct peek now passes too.
		if _, err := db.PeekPage(5); err != nil {
			t.Fatalf("rda=%v: block not repaired on disk: %v", useRDA, err)
		}
		if err := db.VerifyParity(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInlineReadRepairDirtyGroup repairs the dirty page itself: the
// rebuilt block must carry the owner's crash-undo tag and the
// twin-parity undo must still work afterwards.
func TestInlineReadRepairDirtyGroup(t *testing.T) {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	cfg.BufferFrames = 2
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := fillPage(db, 0x31)
	setup := mustBegin(t, db)
	if err := setup.WritePage(0, base); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	active := mustBegin(t, db)
	if err := active.WritePage(0, fillPage(db, 0xD2)); err != nil {
		t.Fatal(err)
	}
	// Steal it (tiny buffer), then corrupt the on-disk copy.
	if _, err := active.ReadPage(8); err != nil {
		t.Fatal(err)
	}
	if _, err := active.ReadPage(16); err != nil {
		t.Fatal(err)
	}
	info, err := db.InspectGroup(0)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Dirty {
		t.Fatalf("setup failed: group not dirty")
	}
	if err := db.CorruptBlock(0); err != nil {
		t.Fatal(err)
	}
	// The owner re-reads its own page: repaired from the WORKING twin.
	got, err := active.ReadPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fillPage(db, 0xD2)) {
		t.Fatalf("read repair of a dirty page returned wrong version")
	}
	// And the undo still works.
	if err := active.Abort(); err != nil {
		t.Fatal(err)
	}
	check := mustBegin(t, db)
	got, err = check.ReadPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, base) {
		t.Fatalf("abort after read repair lost the before-image")
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkLoadFencesRedo guards the ¬FORCE interaction: after-images
// logged before a bulk load must not be replayed over the loaded pages
// by a later crash recovery.
func TestBulkLoadFencesRedo(t *testing.T) {
	cfg := smallConfig(PageLogging, NoForce, true, DataStriping)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A committed transaction leaves an after-image for page 0 in the log.
	tx := mustBegin(t, db)
	if err := tx.WritePage(0, fillPage(db, 0x11)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// A bulk load then supersedes page 0.
	loaded := fillPage(db, 0x99)
	if _, err := db.BulkLoad(0, [][]byte{loaded}); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	if _, err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	check := mustBegin(t, db)
	got, err := check.ReadPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, loaded) {
		t.Fatalf("crash recovery replayed a pre-load after-image over the bulk load")
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestIntrospectionRejectsBadPage: the page-addressed introspection and
// fault-injection aids answer ErrBadPage past the last page, as
// InspectGroup does, on both layouts — none of them indexes the latch
// table or the address map with it.
func TestIntrospectionRejectsBadPage(t *testing.T) {
	for _, layout := range []Layout{DataStriping, ParityStriping} {
		db, err := Open(smallConfig(PageLogging, Force, true, layout))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []PageID{PageID(db.NumPages()), PageID(db.NumPages() + 5)} {
			if _, err := db.PeekPage(p); !errors.Is(err, ErrBadPage) {
				t.Fatalf("%v: PeekPage(%d) err = %v, want ErrBadPage", layout, p, err)
			}
			if err := db.CorruptBlock(p); !errors.Is(err, ErrBadPage) {
				t.Fatalf("%v: CorruptBlock(%d) err = %v, want ErrBadPage", layout, p, err)
			}
			if _, err := db.InspectGroup(p); !errors.Is(err, ErrBadPage) {
				t.Fatalf("%v: InspectGroup(%d) err = %v, want ErrBadPage", layout, p, err)
			}
		}
		if err := db.VerifyParity(); err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
	}
}
