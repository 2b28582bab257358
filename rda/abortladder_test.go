package rda

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/page"
)

// ladderFault is the fault state a no-log steal is undone in: the stolen
// page corrupt, a sibling of its group corrupt, the stolen page's disk dead
// (a fail-stop the engine meets at its next access).
type ladderFault struct {
	name                  string
	stolen, sibling, dead bool
}

// stealUnder builds one no-log steal of page 0 on layout and puts the group
// in fault state f: a transaction writes page 0, a checkpoint flush steals
// it without logging, and a committed reader leaves a clean frame of the
// sibling in the buffer pool.  It returns the database, the open
// transaction, the group's pages (the stolen page first, then the sibling)
// and the committed images.
func stealUnder(t *testing.T, layout Layout, f ladderFault) (*DB, *Tx, []PageID, map[PageID][]byte) {
	t.Helper()
	db, err := Open(smallConfig(PageLogging, Force, true, layout))
	if err != nil {
		t.Fatal(err)
	}
	imgs := loadAll(t, db)
	const p = PageID(0)
	g := db.arr.GroupOf(page.PageID(p))
	var pages []PageID
	for _, q := range db.arr.GroupPages(g) {
		pages = append(pages, PageID(q))
	}
	i := slices.Index(pages, p)
	pages[0], pages[i] = pages[i], pages[0]
	sib := pages[1]

	tx := mustBegin(t, db)
	if err := tx.WritePage(p, fillPage(db, 0x5C)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, dirty := db.store.Dirty.Lookup(g); !dirty {
		t.Fatal("the checkpoint flush did not take the no-log steal path")
	}
	rd := mustBegin(t, db)
	if _, err := rd.ReadPage(sib); err != nil {
		t.Fatal(err)
	}
	if err := rd.Commit(); err != nil {
		t.Fatal(err)
	}
	if f.stolen {
		if err := db.CorruptBlock(p); err != nil {
			t.Fatal(err)
		}
	}
	if f.sibling {
		if err := db.CorruptBlock(sib); err != nil {
			t.Fatal(err)
		}
	}
	if f.dead {
		db.arr.Disk(db.arr.DataLoc(page.PageID(p)).Disk).Fail()
	}
	return db, tx, pages, imgs
}

// groupContents reads every page of the group through a transaction —
// reconstructed where its disk is dead — nil where the read fails.
func groupContents(t *testing.T, db *DB, pages []PageID) [][]byte {
	t.Helper()
	tx := mustBegin(t, db)
	out := make([][]byte, len(pages))
	for i, p := range pages {
		out[i], _ = tx.ReadPage(p)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAbortAndRestartAgree undoes one no-log steal twice from the same
// state — by a live Abort, and by a crash and restart — in every fault
// state from none to beyond the group's redundancy, on both layouts.  The
// two must leave the group the same data and report the same lost pages.
// An abort finishes whatever it loses: its handle is done, it holds no
// lock, and the buffer pool keeps no stale image of a lost page, so a later
// small write of one leaves the parity consistent.
func TestAbortAndRestartAgree(t *testing.T) {
	faults := []ladderFault{
		{name: "none"},
		{name: "stolen-corrupt", stolen: true},
		{name: "sibling-corrupt", sibling: true},
		{name: "both-corrupt", stolen: true, sibling: true},
		{name: "disk-dead", dead: true},
		{name: "disk-dead-sibling-corrupt", dead: true, sibling: true},
	}
	for _, layout := range []Layout{DataStriping, ParityStriping} {
		for _, f := range faults {
			t.Run(fmt.Sprintf("%v/%s", layout, f.name), func(t *testing.T) {
				db, tx, pages, imgs := stealUnder(t, layout, f)
				err := tx.Abort()
				var lpe *LostPagesError
				var abortLost []PageID
				switch {
				case errors.As(err, &lpe):
					abortLost = lpe.Pages
					if !errors.Is(err, ErrUnrecoverableCorruption) {
						t.Fatalf("a lossy abort's error does not wrap ErrUnrecoverableCorruption: %v", err)
					}
				case err != nil:
					t.Fatalf("abort did not finish: %v", err)
				}
				if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
					t.Fatalf("second Abort = %v, want ErrTxDone", err)
				}
				if held := tx.st.locks.HeldResources(tx.st.t.ID); len(held) != 0 {
					t.Fatalf("the aborted transaction still holds %v", held)
				}
				for _, p := range abortLost {
					if fr := db.pool.Frame(page.PageID(p)); fr != nil && fr.DiskVersion != nil {
						t.Fatalf("the pool keeps a stale image of lost page %d", p)
					}
				}
				abortData := groupContents(t, db, pages)

				rdb, _, _, _ := stealUnder(t, layout, f)
				rdb.Crash()
				rep, err := rdb.Recover()
				if err != nil {
					t.Fatalf("restart failed: %v", err)
				}
				// The reads repair what latent corruption the group kept.
				restartData := groupContents(t, rdb, pages)
				if err := rdb.VerifyRecovered(); err != nil {
					t.Fatalf("restart left an inconsistent array: %v", err)
				}

				if !slices.Equal(abortLost, rep.LostPages) {
					t.Fatalf("abort lost %v, restart lost %v", abortLost, rep.LostPages)
				}
				for i, p := range pages {
					want := imgs[p]
					if slices.Contains(abortLost, p) {
						want = make([]byte, db.PageSize())
					}
					if !bytes.Equal(abortData[i], want) || !bytes.Equal(restartData[i], want) {
						t.Fatalf("page %d: abort left %x…, restart %x…, want %x…", p, head(abortData[i]), head(restartData[i]), head(want))
					}
				}
				wantLoss := f.stolen && f.sibling || f.dead && f.sibling
				if wantLoss != (len(abortLost) > 0) {
					t.Fatalf("lost %v in fault state %+v", abortLost, f)
				}

				if len(abortLost) == 0 {
					return
				}
				// A small write of every lost page folds what the platter
				// holds, not a stale buffered image, into the parity.
				w := mustBegin(t, db)
				for _, p := range abortLost {
					if err := w.WritePage(p, fillPage(db, 0xA5)); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Commit(); err != nil {
					t.Fatal(err)
				}
				if err := db.store.VerifyParityInvariant(); err != nil {
					t.Fatalf("after the abort: %v", err)
				}
			})
		}
	}
}

// head is the first bytes of an image, for a failure message.
func head(b []byte) []byte { return b[:min(len(b), 8)] }
