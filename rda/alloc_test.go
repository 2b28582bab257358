package rda

import "testing"

// TestTxBookkeepingAllocs guards what a transaction's bookkeeping costs
// in allocations: a read-only transaction and a five-page update
// transaction on a FORCE engine whose pool holds every page.  The bounds
// are the measured counts, so per-transaction tables that come back — one
// map per Begin, a re-sort per commit — show up here first.  The update
// flushes a whole stripe on data striping and none on parity striping.
// Through a two-frame pool three of its pages are stolen before EOT, and
// the commit reads each back for its after-image into a recycled page.
// With a drive down every group is degraded, and the flush logs all five
// before-images in one batch ahead of its first array write.
func TestTxBookkeepingAllocs(t *testing.T) {
	open := func(layout Layout, frames int) *DB {
		cfg := smallConfig(PageLogging, Force, true, layout)
		cfg.BufferFrames = frames
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	openDown := func(qparity bool) *DB {
		cfg := smallConfig(PageLogging, Force, true, DataStriping)
		cfg.BufferFrames = 64
		cfg.QParity = qparity
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.FailDisk(1); err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open(DataStriping, 64)
	data := fillPage(db, 3)
	readOnly := func() {
		tx := mustBegin(t, db)
		if _, err := tx.ReadPage(1); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	updateOn := func(db *DB) func() {
		return func() {
			tx := mustBegin(t, db)
			for p := PageID(0); p < 5; p++ {
				if err := tx.WritePage(p, data); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	update := updateOn(db)
	for _, c := range []struct {
		name string
		fn   func()
		max  float64
	}{
		{"read-only", readOnly, 7},
		{"five-page update", update, 44},
		{"five-page update on parity striping", updateOn(open(ParityStriping, 64)), 65},
		{"five-page update stolen before EOT", updateOn(open(DataStriping, 2)), 69},
		{"five-page update with a drive down", updateOn(openDown(false)), 60},
		{"five-page update with a drive down on P+Q", updateOn(openDown(true)), 60},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n > c.max {
			t.Errorf("%s transaction: %v allocations, want at most %v", c.name, n, c.max)
		}
	}
}
