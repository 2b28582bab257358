package recovery

import (
	"slices"
	"testing"

	"repro/internal/diskarray"
	"repro/internal/page"
	"repro/internal/txn"
	"repro/internal/wal"
)

// TestAnalyzeDecidesByTheFloor: the durable floor is the highest the log's
// anchor and its records carry; below it a transaction the log does not
// know committed and one the log saw undecided was rolled back, at or
// above it both are losers.
func TestAnalyzeDecidesByTheFloor(t *testing.T) {
	log := wal.New(wal.DefaultConfig())
	log.SetFloor(4)
	log.Append(wal.Record{Type: wal.TypeBeforeImage, Txn: 5, Page: 1, Slot: wal.NoSlot, Image: []byte{1}})
	log.Append(wal.Bracket(wal.TypeEOT, 6, 7))
	log.Append(wal.Record{Type: wal.TypeBeforeImage, Txn: 8, Page: 2, Slot: wal.NoSlot, Image: []byte{2}})
	a, err := analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if a.floor != 7 || a.next != 9 {
		t.Fatalf("floor %d, next %d; want 7 and 9", a.floor, a.next)
	}
	for tx, committed := range map[page.TxID]bool{3: true, 5: false, 6: true, 7: false, 8: false, 20: false} {
		if a.committed(tx) != committed {
			t.Errorf("committed(%d) = %v, want %v", tx, !committed, committed)
		}
	}
	for tx, loser := range map[page.TxID]bool{3: false, 5: false, 6: false, 7: true, 8: true, 20: true} {
		if a.isLoser(tx) != loser {
			t.Errorf("isLoser(%d) = %v, want %v", tx, !loser, loser)
		}
	}
	if a.outcomes[5] != outcomeAborted || !slices.Equal(a.losers, []page.TxID{8}) {
		t.Errorf("txn 5 %v, losers %v; want aborted and [8]", a.outcomes[5], a.losers)
	}
}

// TestRestartRaisesTheNextID: a restart whose transaction manager lost its
// counter gives out ids above every id the log names, above the floor and
// above the losers only the platter shows.  A working twin below the floor
// is a committed one's, at or above it a loser's.
func TestRestartRaisesTheNextID(t *testing.T) {
	for _, tc := range []struct {
		floor, next page.TxID
		losers      []page.TxID
	}{
		{floor: 9, next: 13, losers: []page.TxID{12}},
		{floor: 20, next: 20},
	} {
		s := newStore(t, diskarray.RAID5Twin)
		s.TM.Advance(12)
		tx := s.TM.Begin()
		data := page.NewBuf(page.MinSize)
		data[0] = 0xAA
		if err := s.StealNoLog(3, data, nil, tx, nil); err != nil {
			t.Fatal(err)
		}
		s.Log.Append(wal.Bracket(wal.TypeEOT, 5, tc.floor))
		s.ResetVolatile()
		// A fresh manager: ids from 1, timestamps above the platter's.
		fresh, last := txn.NewManager(), s.TM.NextTimestamp()
		for fresh.NextTimestamp() < last {
		}
		s.TM = fresh
		rep, err := CrashRecover(s, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rep.Losers, tc.losers) || s.TM.NextID() != tc.next {
			t.Errorf("floor %d: losers %v, next id %d; want %v and %d", tc.floor, rep.Losers, s.TM.NextID(), tc.losers, tc.next)
		}
		got, err := s.ReadPage(3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if kept := got[0] == 0xAA; kept != (len(tc.losers) == 0) {
			t.Errorf("floor %d: txn 12's page kept = %v", tc.floor, kept)
		}
		if err := s.VerifyParityInvariant(); err != nil {
			t.Fatal(err)
		}
	}
}
