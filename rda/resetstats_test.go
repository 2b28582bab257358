package rda

import (
	"errors"
	"reflect"
	"repro/internal/diskarray"
	"testing"
)

// cumulativeStats are the Stats fields ResetStats leaves alone: totals of
// the engine's history, plus the running rebuild's progress.
var cumulativeStats = map[string]bool{
	"TxStarted": true, "TxCommitted": true, "TxAborted": true, "Recoveries": true, "RebuiltGroups": true,
}

// TestResetStatsZeroesEveryCounterGroup drives every resettable counter
// off zero — array, log, buffer, self-healing, degraded serving and the
// integrity plane — and requires ResetStats to zero all of them, so that
// a Stats() taken afterwards is a delta in every field.  The cumulative
// totals must survive.
func TestResetStatsZeroesEveryCounterGroup(t *testing.T) {
	db, err := Open(smallConfig(PageLogging, Force, true, DataStriping))
	if err != nil {
		t.Fatal(err)
	}
	loadAll(t, db)
	commit := func(pages ...PageID) {
		t.Helper()
		tx := mustBegin(t, db)
		for _, p := range pages {
			if err := tx.WritePage(p, fillPage(db, byte(p+9))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	readThrough := func(p PageID) error {
		t.Helper()
		tx := mustBegin(t, db)
		defer tx.Abort()
		_, err := tx.ReadPage(p)
		return err
	}
	// Array, log and buffer counters: more pages than frames, so dirty
	// frames are stolen; an abort of a transaction with before-images on
	// the log charges the backward log read.  Two pages of one group are
	// one no-log steal and one logged write when a checkpoint flushes them.
	commit(0, 4, 8, 12, 16, 20, 24, 28)
	loser := mustBegin(t, db)
	for _, p := range []PageID{32, 33} {
		if err := loser.WritePage(p, fillPage(db, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := loser.Abort(); err != nil {
		t.Fatal(err)
	}
	// Integrity plane: a corrupt data block repaired by a read, a corrupt
	// parity block repaired by a small write, a corrupt block found by
	// the scrub.
	if err := db.CorruptBlock(40); err != nil {
		t.Fatal(err)
	}
	if err := readThrough(40); err != nil {
		t.Fatal(err)
	}
	g := db.arr.GroupOf(44)
	loc := db.arr.Loc(g, diskarray.P.Twin(db.store.Twins.Current(g)))
	if err := db.arr.Disk(loc.Disk).Corrupt(loc.Block); err != nil {
		t.Fatal(err)
	}
	commit(44)
	if err := db.CorruptBlock(36); err != nil {
		t.Fatal(err)
	}
	scrubCycle(t, db)
	// Self-healing and degraded serving: a persistent error storm on one
	// drive fail-stops it; page 0 is then read and written around it, and
	// a corrupt survivor of its group exhausts the redundancy.
	commit(20, 21, 22, 23, 24, 25) // push group 0 out of the buffer
	db.SetInjector(storm{disk: db.arr.DataLoc(0).Disk})
	if err := readThrough(0); err != nil {
		t.Fatal(err)
	}
	commit(0)
	db.SetInjector(nil)
	commit(20, 21, 22, 23, 24, 25)
	if err := db.CorruptBlock(1); err != nil {
		t.Fatal(err)
	}
	if err := readThrough(0); !errors.Is(err, ErrUnrecoverableCorruption) {
		t.Fatalf("read beyond the redundancy = %v, want ErrUnrecoverableCorruption", err)
	}

	before := reflect.ValueOf(db.Stats())
	for i := 0; i < before.NumField(); i++ {
		name := before.Type().Field(i).Name
		if !cumulativeStats[name] && before.Field(i).Int() == 0 {
			t.Errorf("%s is still zero: the test does not exercise it", name)
		}
	}
	db.ResetStats()
	after := reflect.ValueOf(db.Stats())
	for i := 0; i < after.NumField(); i++ {
		name := after.Type().Field(i).Name
		switch got := after.Field(i).Int(); {
		case cumulativeStats[name] && got != before.Field(i).Int():
			t.Errorf("%s = %d after ResetStats, want the cumulative %d", name, got, before.Field(i).Int())
		case !cumulativeStats[name] && got != 0:
			t.Errorf("%s = %d after ResetStats, want 0", name, got)
		}
	}
}
