package wal

import (
	"sync"
	"testing"
	"time"

	"repro/internal/page"
)

func TestUnforcedAppendChargesOnForceOnce(t *testing.T) {
	// Several unforced records packing into one log page must cost one
	// page write when forced together — that is the group-commit fold-in.
	l := New(Config{LogPageSize: 10000, WriteCost: 4})
	for i := 0; i < 5; i++ {
		l.AppendUnforced(Record{Type: TypeEOT, Txn: page.TxID(i + 1), Slot: NoSlot})
	}
	if got := l.Stats().Transfers; got != 0 {
		t.Fatalf("unforced appends charged %d transfers, want 0", got)
	}
	if got := l.ForcedLSN(); got != 0 {
		t.Fatalf("watermark = %d before any force, want 0", got)
	}
	charged := l.Force(5)
	if charged != 4 {
		t.Fatalf("folded force charged %d transfers, want 4 (one page)", charged)
	}
	if got := l.ForcedLSN(); got != 5 {
		t.Fatalf("watermark = %d after Force(5), want 5", got)
	}
	// Compare with the always-forced policy: same records, 5 separate
	// page writes.
	lf := New(Config{LogPageSize: 10000, WriteCost: 4})
	for i := 0; i < 5; i++ {
		lf.Append(Record{Type: TypeEOT, Txn: page.TxID(i + 1), Slot: NoSlot})
	}
	if got := lf.Stats().Transfers; got != 20 {
		t.Fatalf("forced appends charged %d, want 20", got)
	}
}

func TestForceIsIdempotentAndPartial(t *testing.T) {
	l := New(Config{LogPageSize: 100, WriteCost: 1})
	for i := 0; i < 6; i++ {
		l.AppendUnforced(Record{Type: TypeAfterImage, Txn: 1, Page: page.PageID(i), Slot: NoSlot, Image: make([]byte, 60)})
	}
	first := l.Force(3)
	if first <= 0 {
		t.Fatalf("partial force charged nothing")
	}
	if got := l.ForcedLSN(); got != 3 {
		t.Fatalf("watermark = %d, want 3", got)
	}
	if re := l.Force(3); re != 0 {
		t.Fatalf("re-forcing a covered LSN charged %d", re)
	}
	if re := l.Force(1); re != 0 {
		t.Fatalf("forcing below the watermark charged %d", re)
	}
	rest := l.Force(100) // clamps to the tail
	if rest <= 0 {
		t.Fatalf("forcing the remainder charged nothing")
	}
	if got := l.ForcedLSN(); got != 6 {
		t.Fatalf("watermark = %d, want tail 6", got)
	}
	// Splitting the force costs at most one extra page over forcing the
	// stream in one go: the partially filled boundary page is rewritten
	// when the second force covers the records appended into it.
	whole := New(Config{LogPageSize: 100, WriteCost: 1})
	for i := 0; i < 6; i++ {
		whole.AppendUnforced(Record{Type: TypeAfterImage, Txn: 1, Page: page.PageID(i), Slot: NoSlot, Image: make([]byte, 60)})
	}
	wholeCharge := whole.Force(6)
	if split := first + rest; split < wholeCharge || split > wholeCharge+1 {
		t.Fatalf("split forces charged %d+%d, one force charges %d", first, rest, wholeCharge)
	}
}

func TestPackedForceChargesASpanOnceHoweverSplit(t *testing.T) {
	// Under Packed a log page is charged once, when the stream enters it,
	// so forcing a span in one call must cost what forcing it in pieces
	// costs — pieces that end exactly on a page boundary included.
	const pageSize, n = 100, 12
	frame := Record{Type: TypeAfterImage, Txn: 1, Slot: NoSlot, Image: make([]byte, pageSize/2-29)}
	if got := frameLen(&frame); got != pageSize/2 {
		t.Fatalf("frame is %d bytes, want %d (two to a page)", got, pageSize/2)
	}
	charge := func(ends []LSN) int64 {
		l := New(Config{LogPageSize: pageSize, WriteCost: 4, Packed: true})
		for i := 0; i < n; i++ {
			l.AppendUnforced(frame)
		}
		for _, e := range ends {
			l.Force(e)
		}
		return l.Stats().Transfers
	}
	whole := charge([]LSN{n})
	if want := int64((n/2 - 1) * 4); whole != want {
		t.Fatalf("one force of %d frames charged %d, want %d (every page but the first)", n, whole, want)
	}
	for name, ends := range map[string][]LSN{
		"every frame":      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		"page aligned":     {2, 4, 6, 8, 10, 12},
		"two pages":        {4, 8, 12},
		"mid-page":         {1, 3, 5, 7, 9, 11, 12},
		"uneven":           {3, 4, 9, 12},
		"aligned then one": {6, 7, 12},
	} {
		if got := charge(ends); got != whole {
			t.Errorf("%s: forces at %v charged %d, one force charges %d", name, ends, got, whole)
		}
	}
	// The same holds for forced appends, each its own force: six frames
	// of exactly one log page cost every page but the first.
	l := New(Config{LogPageSize: 2020, WriteCost: 4, Packed: true})
	for i := 0; i < 6; i++ {
		l.Append(Record{Type: TypeAfterImage, Txn: 1, Slot: NoSlot, Image: make([]byte, 2020-29)})
	}
	if got := l.Stats().Transfers; got != 5*4 {
		t.Fatalf("six page-sized forced appends charged %d, want %d", got, 5*4)
	}
}

func TestForcedAppendDragsUnforcedPredecessors(t *testing.T) {
	// The log is sequential: forcing record N writes everything below it.
	l := New(DefaultConfig())
	l.AppendUnforced(Record{Type: TypeEOT, Txn: 1, Slot: NoSlot})
	l.AppendUnforced(Record{Type: TypeEOT, Txn: 2, Slot: NoSlot})
	lsn := l.Append(Record{Type: TypeEOT, Txn: 3, Slot: NoSlot})
	if got := l.ForcedLSN(); got != lsn {
		t.Fatalf("watermark = %d after forced append, want %d", got, lsn)
	}
	if dropped := l.DropUnforced(); dropped != 0 {
		t.Fatalf("DropUnforced dropped %d records covered by a forced append", dropped)
	}
}

func TestDropUnforcedLosesOnlyTheTail(t *testing.T) {
	l := New(DefaultConfig())
	for i := 1; i <= 4; i++ {
		l.Append(Record{Type: TypeEOT, Txn: page.TxID(i), Slot: NoSlot})
	}
	l.AppendUnforced(Record{Type: TypeEOT, Txn: 1, Slot: NoSlot}) // LSN 5
	l.AppendUnforced(Record{Type: TypeEOT, Txn: 2, Slot: NoSlot}) // LSN 6
	if dropped := l.DropUnforced(); dropped != 2 {
		t.Fatalf("dropped %d records, want 2", dropped)
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d after drop, want 4", l.Len())
	}
	if _, err := l.Read(5); err == nil {
		t.Fatalf("dropped record must be unreadable")
	}
	if r, err := l.Read(4); err != nil || r.Txn != 4 {
		t.Fatalf("forced record lost: %+v, %v", r, err)
	}
	// Appends resume at the watermark, reusing the dropped LSNs.
	if got := l.Append(Record{Type: TypeEOT, Txn: 9, Slot: NoSlot}); got != 5 {
		t.Fatalf("next LSN = %d after drop, want 5", got)
	}
}

func TestTruncateClampsWatermark(t *testing.T) {
	// Truncating past unforced records discards them for good;
	// DropUnforced must not resurrect or double-drop anything.
	l := New(DefaultConfig())
	l.Append(Record{Type: TypeEOT, Txn: 1, Slot: NoSlot})
	l.AppendUnforced(Record{Type: TypeEOT, Txn: 1, Slot: NoSlot})
	l.AppendUnforced(Record{Type: TypeEOT, Txn: 2, Slot: NoSlot})
	l.Truncate(3) // keeps only LSN 3, which is unforced
	if dropped := l.DropUnforced(); dropped != 1 {
		t.Fatalf("dropped %d, want 1 (the surviving unforced record)", dropped)
	}
	if l.FirstLSN() != 3 {
		t.Fatalf("first LSN = %d, want 3", l.FirstLSN())
	}
	if dropped := l.DropUnforced(); dropped != 0 {
		t.Fatalf("second drop removed %d records", dropped)
	}
}

func TestForcerBatchesConcurrentForces(t *testing.T) {
	l := New(Config{LogPageSize: 10000, WriteCost: 4})
	f := NewForcer(l, 2*time.Millisecond)
	const n = 16
	lsns := make([]LSN, n)
	for i := range lsns {
		lsns[i] = l.AppendUnforced(Record{Type: TypeEOT, Txn: page.TxID(i + 1), Slot: NoSlot})
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.Force(lsns[i])
			// Durability must hold at the moment Force returns.
			if got := l.ForcedLSN(); got < lsns[i] {
				t.Errorf("Force(%d) returned with watermark %d", lsns[i], got)
			}
		}(i)
	}
	wg.Wait()
	if f.Joins() != n {
		t.Fatalf("joins = %d, want %d", f.Joins(), n)
	}
	if b := f.Batches(); b < 1 || b > n {
		t.Fatalf("batches = %d, want within [1,%d]", b, n)
	}
	// All records shared one log page: however the cohorts formed, total
	// transfers stay a single page per physical force at most.
	if tr := l.Stats().Transfers; tr > f.Batches()*4 {
		t.Fatalf("transfers = %d exceed one page per batch (%d batches)", tr, f.Batches())
	}
}

func TestForcerZeroWindow(t *testing.T) {
	l := New(DefaultConfig())
	f := NewForcer(l, 0)
	lsn := l.AppendUnforced(Record{Type: TypeEOT, Txn: 1, Slot: NoSlot})
	f.Force(lsn)
	if got := l.ForcedLSN(); got != lsn {
		t.Fatalf("watermark = %d, want %d", got, lsn)
	}
}

func TestForceDelaySleepsOncePerForce(t *testing.T) {
	l := New(DefaultConfig())
	l.SetForceDelay(5 * time.Millisecond)
	for i := 0; i < 8; i++ {
		l.AppendUnforced(Record{Type: TypeEOT, Txn: page.TxID(i + 1), Slot: NoSlot})
	}
	start := time.Now()
	l.Force(8)
	if took := time.Since(start); took < 5*time.Millisecond {
		t.Fatalf("force returned in %v, want >= 5ms", took)
	}
	// Covered LSNs return without sleeping.
	start = time.Now()
	l.Force(8)
	if took := time.Since(start); took > 4*time.Millisecond {
		t.Fatalf("idempotent force slept (%v)", took)
	}
}
