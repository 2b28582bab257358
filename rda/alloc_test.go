package rda

import "testing"

// TestTxBookkeepingAllocs guards what a transaction's bookkeeping costs
// in allocations: a read-only transaction and a five-page update
// transaction on a FORCE engine whose pool holds every page.  The bounds
// are the measured counts, so per-transaction tables that come back — one
// map per Begin, a re-sort per commit — show up here first.
func TestTxBookkeepingAllocs(t *testing.T) {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	cfg.BufferFrames = 64
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	update := func() {
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
	for _, c := range []struct {
		name string
		fn   func()
		max  float64
	}{
		{"read-only", readOnly, 7},
		{"five-page update", update, 44},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n > c.max {
			t.Errorf("%s transaction: %v allocations, want at most %v", c.name, n, c.max)
		}
	}
}
