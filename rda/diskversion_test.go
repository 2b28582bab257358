package rda

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/page"
)

// TestNoLogStealReadsNoOldPage: a dirty frame keeps the page as the array
// holds it (its disk version), so a no-log steal — by eviction or by a
// checkpoint's flush — reads only the group's old redundancy, one page per
// equation, and writes it and the data page: the paper's a=3 small write,
// under ¬FORCE as under FORCE, on twin parity and P+Q.  The steal is a real
// one: the group turns dirty, the platter holds the new image, and an abort
// undoes it from the twins.
func TestNoLogStealReadsNoOldPage(t *testing.T) {
	for _, eot := range []EOTDiscipline{Force, NoForce} {
		for _, q := range []bool{false, true} {
			for _, via := range []string{"eviction", "checkpoint"} {
				cfg := smallConfig(PageLogging, eot, true, DataStriping)
				cfg.QParity = q
				eqs := int64(equations(cfg))
				t.Run(fmt.Sprintf("%v/eqs%d/%s", eot, eqs, via), func(t *testing.T) {
					db, err := Open(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want := loadAll(t, db)
					const p = PageID(0)
					tx := mustBegin(t, db)
					if err := tx.WritePage(p, fillPage(db, 0xA5)); err != nil {
						t.Fatal(err)
					}
					before := db.Stats()
					wantReads, wantWrites := eqs, 1+eqs
					switch via {
					case "eviction":
						wantReads++ // the miss that evicts page 0 reads its own page
						for r := PageID(8); db.pool.Contains(page.PageID(p)); r += 4 {
							before = db.Stats()
							if _, err := tx.ReadPage(r); err != nil {
								t.Fatal(err)
							}
						}
						if db.Stats().Steals-before.Steals != 1 {
							t.Fatal("the eviction stole no frame")
						}
					case "checkpoint":
						if err := db.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
					after := db.Stats()
					if r, w := after.DiskReads-before.DiskReads, after.DiskWrites-before.DiskWrites; r != wantReads || w != wantWrites {
						t.Fatalf("the steal made %d reads and %d writes, want %d and %d", r, w, wantReads, wantWrites)
					}
					if !db.store.Dirty.IsDirty(db.arr.GroupOf(page.PageID(p))) {
						t.Fatal("the write-back was not a no-log steal: the group is clean")
					}
					if got, err := db.PeekPage(p); err != nil || !bytes.Equal(got, fillPage(db, 0xA5)) {
						t.Fatalf("the platter does not hold the stolen image (%v)", err)
					}
					if err := tx.Abort(); err != nil {
						t.Fatal(err)
					}
					if got, err := db.PeekPage(p); err != nil || !bytes.Equal(got, want[p]) {
						t.Fatalf("the abort did not undo the steal (%v)", err)
					}
					if err := db.VerifyParity(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestAbortLeavesNeverStolenFrameClean: an abort rewinds a ¬FORCE frame
// that was never stolen to its disk version, so the frame is clean again,
// holds no disk version, and the next checkpoint writes nothing back.
func TestAbortLeavesNeverStolenFrameClean(t *testing.T) {
	for _, logging := range []LoggingMode{PageLogging, RecordLogging} {
		t.Run(logging.String(), func(t *testing.T) {
			db, err := Open(smallConfig(logging, NoForce, true, DataStriping))
			if err != nil {
				t.Fatal(err)
			}
			const p = PageID(3)
			orig, err := db.PeekPage(p)
			if err != nil {
				t.Fatal(err)
			}
			tx := mustBegin(t, db)
			if logging == PageLogging {
				err = tx.WritePage(p, fillPage(db, 0x3C))
			} else {
				err = tx.WriteRecord(p, 1, []byte("rewound"))
			}
			if err != nil {
				t.Fatal(err)
			}
			if f := db.pool.Frame(page.PageID(p)); f == nil || !f.Dirty {
				t.Fatal("the write left no dirty frame")
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			f := db.pool.Frame(page.PageID(p))
			if f == nil {
				t.Fatal("the abort dropped the frame; it should rewind it in place")
			}
			if f.Dirty || f.Residue || f.DiskVersion != nil || !bytes.Equal(f.Data, orig) {
				t.Fatalf("the rewound frame: dirty=%v residue=%v disk version %v, data restored %v",
					f.Dirty, f.Residue, f.DiskVersion != nil, bytes.Equal(f.Data, orig))
			}
			before := db.Stats()
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if w := db.Stats().DiskWrites - before.DiskWrites; w != 0 {
				t.Fatalf("the checkpoint after the abort wrote %d pages back, want 0", w)
			}
			if got, err := db.PeekPage(p); err != nil || !bytes.Equal(got, orig) {
				t.Fatalf("page %d on the platter changed (%v)", p, err)
			}
		})
	}
}
