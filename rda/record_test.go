package rda

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/record"
)

// readSlot returns the record at (p, slot) in its own transaction, or nil
// for an empty slot.
func readSlot(t *testing.T, db *DB, p PageID, slot int) []byte {
	t.Helper()
	tx := mustBegin(t, db)
	rec, err := tx.ReadRecord(p, slot)
	if errors.Is(err, record.ErrEmptySlot) {
		rec, err = nil, nil
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestRecordAbortRollsBackInsertUpdateDelete: an abort takes back an
// InsertRecord, a WriteRecord over a committed record and a DeleteRecord
// of another, on one page.
func TestRecordAbortRollsBackInsertUpdateDelete(t *testing.T) {
	for _, eot := range []EOTDiscipline{Force, NoForce} {
		t.Run(eot.String(), func(t *testing.T) {
			db, err := Open(smallConfig(RecordLogging, eot, true, DataStriping))
			if err != nil {
				t.Fatal(err)
			}
			setup := mustBegin(t, db)
			keep, err := setup.InsertRecord(3, []byte("keep"))
			if err != nil {
				t.Fatal(err)
			}
			gone, err := setup.InsertRecord(3, []byte("gone"))
			if err != nil {
				t.Fatal(err)
			}
			if err := setup.Commit(); err != nil {
				t.Fatal(err)
			}
			tx := mustBegin(t, db)
			if err := tx.WriteRecord(3, keep, []byte("clobber")); err != nil {
				t.Fatal(err)
			}
			phantom, err := tx.InsertRecord(3, []byte("phantom"))
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.DeleteRecord(3, gone); err != nil {
				t.Fatal(err)
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			if got := readSlot(t, db, 3, keep); !bytes.HasPrefix(got, []byte("keep")) {
				t.Errorf("aborted update leaked: slot %d holds %q", keep, got)
			}
			if got := readSlot(t, db, 3, gone); !bytes.HasPrefix(got, []byte("gone")) {
				t.Errorf("aborted delete leaked: slot %d holds %q", gone, got)
			}
			if got := readSlot(t, db, 3, phantom); got != nil {
				t.Errorf("aborted insert leaked: slot %d holds %q", phantom, got)
			}
		})
	}
}

// TestRecordCrashKeepsCommittedInserts: a restart keeps every committed
// InsertRecord and undoes a loser's insert and delete.
func TestRecordCrashKeepsCommittedInserts(t *testing.T) {
	for _, eot := range []EOTDiscipline{Force, NoForce} {
		t.Run(eot.String(), func(t *testing.T) {
			db, err := Open(smallConfig(RecordLogging, eot, true, DataStriping))
			if err != nil {
				t.Fatal(err)
			}
			type rid struct {
				page PageID
				slot int
			}
			tx := mustBegin(t, db)
			var rids []rid
			for i := 0; i < 15; i++ {
				p := PageID(i % 8)
				slot, err := tx.InsertRecord(p, []byte{byte(i)})
				if err != nil {
					t.Fatal(err)
				}
				rids = append(rids, rid{p, slot})
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			loser := mustBegin(t, db)
			inserted, err := loser.InsertRecord(0, []byte{0xEE})
			if err != nil {
				t.Fatal(err)
			}
			if err := loser.DeleteRecord(rids[3].page, rids[3].slot); err != nil {
				t.Fatal(err)
			}
			db.Crash()
			if _, err := db.Recover(); err != nil {
				t.Fatal(err)
			}
			for i, r := range rids {
				if got := readSlot(t, db, r.page, r.slot); len(got) == 0 || got[0] != byte(i) {
					t.Errorf("record %d at %d.%d after restart: %x", i, r.page, r.slot, got)
				}
			}
			if got := readSlot(t, db, 0, inserted); got != nil {
				t.Errorf("loser's insert survived the restart at 0.%d: %x", inserted, got)
			}
			if err := db.VerifyParity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentRecordInsertersGetDisjointSlots: inserters racing on one
// page fill it, each slot claimed by exactly one committed insert.
func TestConcurrentRecordInsertersGetDisjointSlots(t *testing.T) {
	cfg := smallConfig(RecordLogging, NoForce, true, DataStriping)
	cfg.PageSize = 512
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := db.RecordsPerPage()
	const workers = 6
	var mu sync.Mutex
	var slots []int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tx, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				slot, err := tx.InsertRecord(7, []byte{byte(w)})
				if errors.Is(err, record.ErrFull) {
					if err := tx.Abort(); err != nil {
						t.Error(err)
					}
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				slots = append(slots, slot)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	slices.Sort(slots)
	if len(slots) != n || len(slices.Compact(slices.Clone(slots))) != n {
		t.Fatalf("inserters got slots %v, want each of the page's %d slots once", slots, n)
	}
}
