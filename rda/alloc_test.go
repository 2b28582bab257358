package rda

import "testing"

// TestTxBookkeepingAllocs guards what a transaction's bookkeeping costs
// in allocations: a read-only transaction and a five-page update
// transaction on a FORCE engine whose pool holds every page, and a
// read-only and an updating transaction under record logging on a ¬FORCE
// one.  The bounds are the measured counts, so per-transaction tables
// that come back — one map per Begin, a re-sort per commit, a latch set
// or a record view per operation — show up here first.  What stays is
// Begin's three (the handle, its state, its txn.Txn), the copy a read
// hands its caller, a record update's before-image, the FORCE flush's
// page list, and four per full-stripe write (its frame, data and member
// lists, and the fan-out of its data writes).  The update flushes a whole stripe on data striping and
// none on parity striping.  Through a two-frame pool three of its pages
// are stolen before EOT, and the commit reads each back for its
// after-image into a recycled page.  With a drive down every group is
// degraded, and the flush logs all five before-images in one batch ahead
// of its first array write.  The record transactions are shaped like the
// benchmark's retrieval_noforce: 40 reads, or a few updates, each
// committed page's after-images encoded into a recycled page.
func TestTxBookkeepingAllocs(t *testing.T) {
	open := func(cfg Config) *DB {
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	pageDB := func(layout Layout, frames int) *DB {
		cfg := smallConfig(PageLogging, Force, true, layout)
		cfg.BufferFrames = frames
		return open(cfg)
	}
	openDown := func(qparity bool) *DB {
		cfg := smallConfig(PageLogging, Force, true, DataStriping)
		cfg.BufferFrames = 64
		cfg.QParity = qparity
		db := open(cfg)
		if err := db.FailDisk(1); err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := pageDB(DataStriping, 64)
	data := fillPage(db, 3)
	readPages := func(n int) func() {
		return func() {
			tx := mustBegin(t, db)
			for i := 0; i < n; i++ {
				if _, err := tx.ReadPage(PageID(1 + i%5)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
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

	// Record logging, ¬FORCE, shaped like the benchmark's
	// retrieval_noforce: a read-only transaction reads 40 records over a
	// pool that holds every page.
	rcfg := smallConfig(RecordLogging, NoForce, true, DataStriping)
	rcfg.BufferFrames = 64
	rdb := open(rcfg)
	slots := rdb.RecordsPerPage()
	rec := make([]byte, rcfg.RecordSize)
	writeRecords := func(n int) {
		tx := mustBegin(t, rdb)
		for i := 0; i < n; i++ {
			rec[0] = byte(i)
			if err := tx.WriteRecord(PageID(i/slots), i%slots, rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	writeRecords(40)
	readRecords := func(n int) func() {
		return func() {
			tx := mustBegin(t, rdb)
			for i := 0; i < n; i++ {
				if _, err := tx.ReadRecord(PageID(i%40/slots), i%40%slots); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, c := range []struct {
		name string
		fn   func()
		max  float64
	}{
		{"read-only", readPages(1), 4},
		{"five-page update", updateOn(db), 8},
		{"five-page update on parity striping", updateOn(pageDB(ParityStriping, 64)), 4},
		{"five-page update stolen before EOT", updateOn(pageDB(DataStriping, 2)), 4},
		{"five-page update with a drive down", updateOn(openDown(false)), 4},
		{"five-page update with a drive down on P+Q", updateOn(openDown(true)), 4},
		{"¬FORCE 40-record read-only", readRecords(40), 43},
		{"¬FORCE five-record update", func() { writeRecords(5) }, 8},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n > c.max {
			t.Errorf("%s transaction: %v allocations, want at most %v", c.name, n, c.max)
		}
	}

	// A read adds exactly one allocation: the copy it returns.
	const more = 16
	for _, c := range []struct {
		name string
		txn  func(reads int) func()
	}{
		{"ReadPage", readPages},
		{"ReadRecord", readRecords},
	} {
		one, many := testing.AllocsPerRun(100, c.txn(1)), testing.AllocsPerRun(100, c.txn(1+more))
		if many-one != more {
			t.Errorf("%d more %s calls add %v allocations, want %d (the copies returned)", more, c.name, many-one, more)
		}
	}
}
