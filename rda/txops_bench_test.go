package rda

import "testing"

// BenchmarkTxOps times the engine's four transactional steps on the
// default array with every page buffered: a page read and a record read
// inside one long reader (the only allocation a read keeps is the copy it
// returns), and a page write and a record write each in a transaction of
// their own, Begin to Commit — FORCE for pages, ¬FORCE for records, whose
// log a checkpoint every thousand commits keeps short.
func BenchmarkTxOps(b *testing.B) {
	open := func(b *testing.B, logging LoggingMode, eot EOTDiscipline) *DB {
		cfg := DefaultConfig()
		cfg.NumPages = 1000
		cfg.BufferFrames = 1000
		cfg.Logging, cfg.EOT = logging, eot
		db, err := Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	const pages = 64
	reader := func(b *testing.B, db *DB, read func(tx *Tx, i int) error) {
		tx, err := db.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < pages; i++ { // warm the pool and the locks
			if err := read(tx, i); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := read(tx, i%pages); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	writer := func(b *testing.B, db *DB, write func(tx *Tx, i int) error) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%1000 == 999 && db.Config().EOT == NoForce {
				b.StopTimer()
				if err := db.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			tx, err := db.Begin()
			if err != nil {
				b.Fatal(err)
			}
			if err := write(tx, i%pages); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("page read", func(b *testing.B) {
		db := open(b, PageLogging, Force)
		reader(b, db, func(tx *Tx, i int) error {
			_, err := tx.ReadPage(PageID(i))
			return err
		})
	})
	b.Run("page write+commit", func(b *testing.B) {
		db := open(b, PageLogging, Force)
		data := fillPage(db, 5)
		writer(b, db, func(tx *Tx, i int) error { return tx.WritePage(PageID(i), data) })
	})
	b.Run("record read", func(b *testing.B) {
		db := open(b, RecordLogging, NoForce)
		tx, err := db.Begin()
		if err != nil {
			b.Fatal(err)
		}
		rec := make([]byte, db.Config().RecordSize)
		for i := 0; i < pages; i++ {
			if err := tx.WriteRecord(PageID(i), 0, rec); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		reader(b, db, func(tx *Tx, i int) error {
			_, err := tx.ReadRecord(PageID(i), 0)
			return err
		})
	})
	b.Run("record write+commit", func(b *testing.B) {
		db := open(b, RecordLogging, NoForce)
		rec := make([]byte, db.Config().RecordSize)
		writer(b, db, func(tx *Tx, i int) error { return tx.WriteRecord(PageID(i), i%3, rec) })
	})
}
