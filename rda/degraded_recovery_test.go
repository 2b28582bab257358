package rda

import (
	"bytes"
	"testing"

	"repro/internal/diskarray"
	"repro/internal/fault"
	"repro/internal/page"
)

// catchCrash runs fn and captures the fault plane's crash sentinel if fn
// panics with one; any other panic propagates.
func catchCrash(fn func()) (crash *fault.Crash) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := fault.AsCrash(r)
			if !ok {
				panic(r)
			}
			crash = c
		}
	}()
	fn()
	return nil
}

// TestRecoverDegradedOneDiskDown is the headline degraded-recovery
// scenario: commit work, lose a disk, commit more work degraded, crash,
// and recover with the disk still down.  Recover must succeed (not
// ErrDegraded), roll back the in-flight loser, serve every committed
// page through reconstruction, and hand the deferred parity groups to
// the restarted rebuild, which restores full redundancy.
func TestRecoverDegradedOneDiskDown(t *testing.T) {
	for _, layout := range []Layout{DataStriping, ParityStriping} {
		cfg := smallConfig(PageLogging, Force, true, layout)
		t.Run(cfgName(cfg), func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			imgs := loadAll(t, db)

			commit := func(p PageID, seed byte) {
				tx := mustBegin(t, db)
				img := fillPage(db, seed)
				if err := tx.WritePage(p, img); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				imgs[p] = img
			}

			commit(PageID(3), 0xA1)
			if err := db.FailDisk(0); err != nil {
				t.Fatal(err)
			}
			commit(PageID(9), 0xB2) // degraded-mode commit
			// Leave a loser in flight across the crash, its page on the
			// platter: a checkpoint writes it back through the degraded
			// group's logged path.
			loser := mustBegin(t, db)
			if err := loser.WritePage(PageID(3), fillPage(db, 0xC3)); err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}

			db.Crash()
			rep, err := db.Recover()
			if err != nil {
				t.Fatalf("degraded recover: %v", err)
			}
			if h := db.Health(); h != diskarray.Degraded {
				t.Fatalf("health after degraded recover = %v, want Degraded", h)
			}
			if rep.Losers == 0 {
				t.Fatal("in-flight transaction not rolled back")
			}
			if len(rep.LostPages) != 0 {
				t.Fatalf("single-disk loss reported lost pages: %v", rep.LostPages)
			}
			if err := db.VerifyRecovered(); err != nil {
				t.Fatal(err)
			}
			// Committed pages on the dead disk must be served by
			// reconstruction before the rebuild has run.
			readAllTx(t, db, imgs, "degraded after recover")

			pumpRebuild(t, db)
			if h := db.Health(); h != diskarray.Healthy {
				t.Fatalf("health after rebuild = %v, want Healthy", h)
			}
			if err := db.VerifyParity(); err != nil {
				t.Fatal(err)
			}
			readAllTx(t, db, imgs, "healthy after rebuild")
		})
	}
}

// TestCrashDuringDemotionDiskIO crashes at every disk-write index of the
// eager demotion that syncHealth runs when a disk dies under a dirty
// group.  Because demoteNoLogSteal logs the owner's UNDO before-image
// before its first disk transfer, recovery from any of these crash
// points must roll the stolen page back to its committed image with the
// array still degraded.
func TestCrashDuringDemotionDiskIO(t *testing.T) {
	for k := int64(0); ; k++ {
		cfg := smallConfig(PageLogging, Force, true, DataStriping)
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		imgs := loadAll(t, db)

		// Dirty a group: steal an active transaction's page through the
		// no-UNDO-logging path.
		const p = PageID(0)
		tx := mustBegin(t, db)
		if err := tx.WritePage(p, fillPage(db, 0x5C)); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		g := db.arr.GroupOf(page.PageID(p))
		e, dirty := db.store.Dirty.Lookup(g)
		if !dirty {
			t.Fatal("checkpoint flush did not take the no-log steal path")
		}
		dead := db.arr.Loc(g, diskarray.P.Twin(e.WorkingTwin)).Disk

		// Fail the working twin's disk with a crash armed at demotion
		// write k.
		plane := fault.NewPlane(fault.Schedule{fault.CrashAfterNWrites(k)})
		db.SetInjector(plane)
		crash := catchCrash(func() {
			if err := db.FailDisk(dead); err != nil {
				t.Fatalf("faildisk: %v", err)
			}
		})
		if crash == nil {
			// Demotion finished before write k: the sweep has covered
			// every crash point inside it.
			if k == 0 {
				t.Fatal("demotion performed no disk I/O")
			}
			t.Logf("demotion sweep covered %d crash point(s)", k)
			return
		}

		db.CrashHard()
		db.SetInjector(nil)
		if _, err := db.Recover(); err != nil {
			t.Fatalf("recover after %v during demotion: %v", crash, err)
		}
		if h := db.Health(); h != diskarray.Degraded {
			t.Fatalf("crash@w%d: health after recover = %v, want Degraded", k, h)
		}
		if err := db.VerifyRecovered(); err != nil {
			t.Fatalf("crash@w%d: %v", k, err)
		}
		got, err := db.PeekPage(p)
		if err != nil {
			t.Fatalf("crash@w%d: peek: %v", k, err)
		}
		if !bytes.Equal(got, imgs[p]) {
			t.Fatalf("crash@w%d during demotion: stolen page not rolled back to committed image", k)
		}
		readAllTx(t, db, imgs, "after demotion crash")
	}
}

// TestCrashMidRebuildThenRecover crashes at every disk-write index of
// the online rebuild and recovers each time.  The restarted rebuild must
// reconstruct every group of the down disk from scratch — half-restored
// state is discarded, not trusted — and until it finishes, pages of the
// dead disk are served by reconstruction, never from a partially
// rebuilt replacement.
func TestCrashMidRebuildThenRecover(t *testing.T) {
	for k := int64(0); ; k++ {
		cfg := smallConfig(PageLogging, Force, true, DataStriping)
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		imgs := loadAll(t, db)

		tx := mustBegin(t, db)
		img := fillPage(db, 0x7E)
		if err := tx.WritePage(PageID(5), img); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		imgs[PageID(5)] = img
		if err := db.FailDisk(0); err != nil {
			t.Fatal(err)
		}

		plane := fault.NewPlane(fault.Schedule{fault.CrashAfterNWrites(k)})
		db.SetInjector(plane)
		crash := catchCrash(func() {
			pumpRebuild(t, db)
		})
		if crash == nil {
			if k == 0 {
				t.Fatal("rebuild performed no disk writes")
			}
			t.Logf("rebuild sweep covered %d crash point(s)", k)
			return
		}

		db.CrashHard()
		db.SetInjector(nil)
		rep, err := db.Recover()
		if err != nil {
			t.Fatalf("recover after %v during rebuild: %v", crash, err)
		}
		if len(rep.LostPages) != 0 {
			t.Fatalf("crash@w%d mid-rebuild lost pages: %v", k, rep.LostPages)
		}
		if err := db.VerifyRecovered(); err != nil {
			t.Fatalf("crash@w%d: %v", k, err)
		}
		// The interlock discards partial progress: the restarted rebuild
		// starts from group zero.
		if n := db.Stats().RebuiltGroups; n != 0 {
			t.Fatalf("crash@w%d: restarted rebuild trusts %d half-restored group(s)", k, n)
		}
		// Degraded serving must not read the partially rebuilt drive.
		readAllTx(t, db, imgs, "degraded after rebuild crash")

		pumpRebuild(t, db)
		if h := db.Health(); h != diskarray.Healthy {
			t.Fatalf("crash@w%d: health after restarted rebuild = %v, want Healthy", k, h)
		}
		if err := db.VerifyParity(); err != nil {
			t.Fatalf("crash@w%d: restarted rebuild left bad parity: %v", k, err)
		}
		readAllTx(t, db, imgs, "healthy after restarted rebuild")
	}
}

// TestHealthyRecoverNoDegradedCounters locks in that the degraded
// recovery machinery is inert on a healthy array: a plain crash-recover
// cycle reports zero reconstruction undos, zero deferred parity groups,
// and no lost pages.
func TestHealthyRecoverNoDegradedCounters(t *testing.T) {
	for _, cfg := range []Config{
		smallConfig(PageLogging, Force, true, DataStriping),
		smallConfig(PageLogging, NoForce, true, ParityStriping),
	} {
		t.Run(cfgName(cfg), func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			imgs := loadAll(t, db)
			tx := mustBegin(t, db)
			img := fillPage(db, 0x42)
			if err := tx.WritePage(PageID(7), img); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			imgs[PageID(7)] = img
			loser := mustBegin(t, db)
			if err := loser.WritePage(PageID(7), fillPage(db, 0x99)); err != nil {
				t.Fatal(err)
			}

			db.Crash()
			rep, err := db.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rep.UndoneViaReconstruction != 0 || rep.DeferredParityGroups != 0 || len(rep.LostPages) != 0 {
				t.Fatalf("healthy recover reported degraded counters: %+v", rep)
			}
			if err := db.VerifyRecovered(); err != nil {
				t.Fatal(err)
			}
			readAllTx(t, db, imgs, "after healthy recover")
		})
	}
}

// TestRecoverDiskDiesDuringRedo: a drive fail-stops under REDO's own
// writes.  Recover's retry loop observes the loss and runs the passes again
// degraded; REDO, re-entered over the same log, finds the pages it had
// already written current, writes the rest around the dead drive, and every
// committed record reads back.
func TestRecoverDiskDiesDuringRedo(t *testing.T) {
	for name, qparity := range map[string]bool{"twin": false, "pq": true} {
		cfg := smallConfig(RecordLogging, NoForce, true, DataStriping)
		cfg.QParity = qparity
		cfg.BufferFrames = cfg.NumPages // nothing reaches the platter before the crash
		t.Run(name, func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Three transactions write one slot each of the same 16 pages.
			rec := func(p PageID, slot int) []byte { return fillPage(db, byte(16*slot+int(p)))[:cfg.RecordSize] }
			const pages, slots = 16, 3
			for slot := 0; slot < slots; slot++ {
				tx := mustBegin(t, db)
				for p := PageID(0); p < pages; p++ {
					if err := tx.WriteRecord(p, slot, rec(p, slot)); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			db.Crash()
			// No loser, no working twin: the restart's first writes are pass
			// 6's.  Disk 2 dies once five of them have landed.
			plane := fault.NewPlane(fault.Schedule{fault.FailDisk(2, 5)})
			db.SetInjector(plane)
			rep, err := db.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if h := db.Health(); h != diskarray.Degraded {
				t.Fatalf("health after recovery = %v: the drive did not die under REDO", h)
			}
			if rep.Redone != pages*slots || rep.RedonePages != pages || rep.RedoneWrites >= pages {
				t.Fatalf("re-entered REDO: %d image(s) over %d page(s), %d written; want %d over %d and fewer writes than pages",
					rep.Redone, rep.RedonePages, rep.RedoneWrites, pages*slots, pages)
			}
			if err := db.VerifyRecovered(); err != nil {
				t.Fatal(err)
			}
			check := mustBegin(t, db)
			for p := PageID(0); p < pages; p++ {
				for slot := 0; slot < slots; slot++ {
					got, err := check.ReadRecord(p, slot)
					if err != nil || !bytes.Equal(got, rec(p, slot)) {
						t.Fatalf("page %d slot %d after recovery: %x (err %v)", p, slot, got, err)
					}
				}
			}
			if err := check.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
