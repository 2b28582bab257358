package wal

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/page"
)

func TestAppendReadRoundTrip(t *testing.T) {
	l := New(DefaultConfig())
	recs := []Record{
		{Type: TypeEOT, Txn: 1, Slot: NoSlot},
		{Type: TypeBeforeImage, Txn: 1, Page: 42, Slot: NoSlot, Image: []byte{1, 2, 3}},
		{Type: TypeBeforeImage, Txn: 1, Page: 43, Slot: 5, Image: []byte("record image")},
		{Type: TypeAfterImage, Txn: 1, Page: 44, Slot: NoSlot, Image: []byte{4}},
		{Type: TypeCheckpoint, Slot: NoSlot, Active: []page.TxID{1, 7, 9}},
		{Type: TypeEOT, Txn: 1, Slot: NoSlot},
	}
	for i, r := range recs {
		if got := l.Append(r); got != LSN(i+1) {
			t.Fatalf("Append #%d returned LSN %d, want %d", i, got, i+1)
		}
	}
	for i, want := range recs {
		got, err := l.Read(LSN(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		want.LSN = LSN(i + 1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: got %+v, want %+v", i+1, got, want)
		}
	}
}

func TestReadOutOfRange(t *testing.T) {
	l := New(DefaultConfig())
	if _, err := l.Read(1); err == nil {
		t.Fatalf("reading an empty log must fail")
	}
	l.Append(Record{Type: TypeEOT, Txn: 1, Slot: NoSlot})
	if _, err := l.Read(0); err == nil {
		t.Fatalf("LSN 0 must be rejected")
	}
	if _, err := l.Read(2); err == nil {
		t.Fatalf("LSN beyond tail must be rejected")
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	l := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		l.Append(Record{Type: TypeEOT, Txn: page.TxID(i + 1), Slot: NoSlot})
	}
	var seen []page.TxID
	if err := l.Scan(3, func(r Record) bool {
		seen = append(seen, r.Txn)
		return len(seen) < 4
	}); err != nil {
		t.Fatal(err)
	}
	want := []page.TxID{3, 4, 5, 6}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("scan saw %v, want %v", seen, want)
	}
}

func TestScanBackward(t *testing.T) {
	l := New(DefaultConfig())
	for i := 0; i < 5; i++ {
		l.Append(Record{Type: TypeEOT, Txn: page.TxID(i + 1), Slot: NoSlot})
	}
	var seen []page.TxID
	if err := l.ScanBackward(func(r Record) bool {
		seen = append(seen, r.Txn)
		return r.Txn != 2 // stop once we've seen txn 2
	}); err != nil {
		t.Fatal(err)
	}
	want := []page.TxID{5, 4, 3, 2}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("backward scan saw %v, want %v", seen, want)
	}
}

func TestLastCheckpoint(t *testing.T) {
	l := New(DefaultConfig())
	if _, ok := l.LastCheckpoint(); ok {
		t.Fatalf("empty log has no checkpoint")
	}
	l.Append(Record{Type: TypeCheckpoint, Slot: NoSlot, Active: []page.TxID{1}})
	l.Append(Record{Type: TypeEOT, Txn: 2, Slot: NoSlot})
	l.Append(Record{Type: TypeCheckpoint, Slot: NoSlot, Active: []page.TxID{2}})
	l.Append(Record{Type: TypeEOT, Txn: 2, Slot: NoSlot})
	ck, ok := l.LastCheckpoint()
	if !ok || ck.LSN != 3 || len(ck.Active) != 1 || ck.Active[0] != 2 {
		t.Fatalf("LastCheckpoint = %+v ok=%v, want the LSN-3 checkpoint", ck, ok)
	}
}

func TestTransferAccounting(t *testing.T) {
	// With WriteCost=4 and a large log page, small records pack into the
	// same tail page but each forced append still costs 4 transfers.
	l := New(Config{LogPageSize: 10000, WriteCost: 4})
	for i := 0; i < 5; i++ {
		l.Append(Record{Type: TypeEOT, Txn: page.TxID(i + 1), Slot: NoSlot})
	}
	if got := l.Stats().Transfers; got != 5*4 {
		t.Fatalf("transfers = %d, want 20", got)
	}
	// A record spanning multiple log pages charges once per page touched.
	l2 := New(Config{LogPageSize: 100, WriteCost: 4})
	l2.Append(Record{Type: TypeAfterImage, Txn: 1, Page: 1, Slot: NoSlot, Image: make([]byte, 450)})
	s := l2.Stats()
	if s.Transfers < 4*4 {
		t.Fatalf("multi-page record charged %d transfers, want at least 16", s.Transfers)
	}
	if s.LogPages < 4 {
		t.Fatalf("LogPages = %d, want at least 4", s.LogPages)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	l := New(DefaultConfig())
	l.Append(Record{Type: TypeEOT, Txn: 1, Slot: NoSlot})
	l.ResetStats()
	if l.Stats().Transfers != 0 {
		t.Fatalf("transfers not reset")
	}
	if l.Len() != 1 {
		t.Fatalf("ResetStats must not drop records")
	}
	if _, err := l.Read(1); err != nil {
		t.Fatalf("record unreadable after ResetStats: %v", err)
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	// Property: any record round-trips through the frame codec, even when
	// packed between other records.
	f := func(txn uint64, pg uint32, slot int32, img []byte, active []uint64) bool {
		l := New(DefaultConfig())
		l.Append(Record{Type: TypeEOT, Txn: 9, Slot: NoSlot})
		want := Record{
			Type: TypeBeforeImage,
			Txn:  page.TxID(txn),
			Page: page.PageID(pg),
			Slot: slot,
		}
		if len(img) > 0 {
			want.Image = img
		}
		for _, a := range active {
			want.Active = append(want.Active, page.TxID(a))
		}
		n := l.Append(want)
		l.Append(Record{Type: TypeEOT, Txn: 9, Slot: NoSlot})
		got, err := l.Read(n)
		if err != nil {
			return false
		}
		want.LSN = n
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppend(t *testing.T) {
	l := New(DefaultConfig())
	var wg sync.WaitGroup
	const goroutines, per = 8, 50
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				img := make([]byte, r.Intn(64))
				r.Read(img)
				l.Append(Record{Type: TypeAfterImage, Txn: page.TxID(g + 1), Page: page.PageID(i), Slot: NoSlot, Image: img})
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != goroutines*per {
		t.Fatalf("len = %d, want %d", l.Len(), goroutines*per)
	}
	// Every record must decode cleanly.
	count := 0
	if err := l.Scan(1, func(r Record) bool {
		if r.Type != TypeAfterImage {
			t.Errorf("unexpected record type %v", r.Type)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != goroutines*per {
		t.Fatalf("scanned %d records, want %d", count, goroutines*per)
	}
}

func TestTruncate(t *testing.T) {
	l := New(DefaultConfig())
	for i := 1; i <= 10; i++ {
		l.Append(Record{Type: TypeEOT, Txn: page.TxID(i), Slot: NoSlot})
	}
	if got := l.Truncate(5); got != 4 {
		t.Fatalf("dropped %d records, want 4", got)
	}
	if l.FirstLSN() != 5 {
		t.Fatalf("first LSN = %d, want 5", l.FirstLSN())
	}
	// LSNs are stable: record 5 is still txn 5.
	r, err := l.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Txn != 5 || r.LSN != 5 {
		t.Fatalf("record 5 = %+v", r)
	}
	if _, err := l.Read(4); err == nil {
		t.Fatalf("truncated record must be unreadable")
	}
	// Appends continue the sequence.
	if got := l.Append(Record{Type: TypeEOT, Txn: 99, Slot: NoSlot}); got != 11 {
		t.Fatalf("next LSN = %d, want 11", got)
	}
	if l.Len() != 11 {
		t.Fatalf("Len = %d, want 11 (tail LSN)", l.Len())
	}
	// Scans skip the truncated prefix.
	var seen []LSN
	if err := l.Scan(1, func(r Record) bool {
		seen = append(seen, r.LSN)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 7 || seen[0] != 5 || seen[6] != 11 {
		t.Fatalf("scan saw %v", seen)
	}
	// Backward scan stops at the truncation point.
	count := 0
	if err := l.ScanBackward(func(Record) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 7 {
		t.Fatalf("backward scan saw %d records, want 7", count)
	}
}

func TestTruncateEdgeCases(t *testing.T) {
	l := New(DefaultConfig())
	if l.Truncate(10) != 0 {
		t.Fatalf("truncating an empty log drops nothing")
	}
	for i := 1; i <= 3; i++ {
		l.Append(Record{Type: TypeEOT, Txn: page.TxID(i), Slot: NoSlot})
	}
	// Truncate past the tail clamps to "drop everything".
	if got := l.Truncate(100); got != 3 {
		t.Fatalf("dropped %d, want 3", got)
	}
	if l.FirstLSN() != 4 {
		t.Fatalf("first LSN = %d, want 4 (one past tail)", l.FirstLSN())
	}
	// A truncate below the current first LSN is a no-op.
	if l.Truncate(2) != 0 {
		t.Fatalf("no-op truncate dropped records")
	}
	// ChargeScan over a fully truncated range charges nothing.
	if l.ChargeScan(1, 3) != 0 {
		t.Fatalf("charged reads for truncated records")
	}
}

func TestTruncateChargeScan(t *testing.T) {
	l := New(Config{LogPageSize: 100, WriteCost: 4})
	for i := 1; i <= 20; i++ {
		l.Append(Record{Type: TypeAfterImage, Txn: 1, Page: page.PageID(i), Slot: NoSlot, Image: make([]byte, 40)})
	}
	l.Truncate(10)
	before := l.Stats().ReadTransfers
	if l.ChargeScan(1, 20) <= 0 {
		t.Fatalf("surviving records must charge reads")
	}
	if l.Stats().ReadTransfers <= before {
		t.Fatalf("ReadTransfers not accumulated")
	}
}

func TestPackedCharging(t *testing.T) {
	// Packed: a log page is charged once, when first entered, no matter
	// how many appends it absorbs.
	l := New(Config{LogPageSize: 100, WriteCost: 4, Packed: true})
	small := Record{Type: TypeEOT, Txn: 1, Slot: NoSlot}
	l.Append(small) // stays in page 0: no crossing yet
	first := l.Stats().Transfers
	if first != 0 {
		t.Fatalf("first packed append charged %d transfers, want 0 until a page fills", first)
	}
	// Keep appending until the stream crosses into page 1.
	for i := 0; i < 10; i++ {
		l.Append(Record{Type: TypeBeforeImage, Txn: 1, Page: 1, Slot: NoSlot, Image: make([]byte, 30)})
	}
	s := l.Stats()
	if s.Transfers == 0 {
		t.Fatalf("crossing log pages must charge")
	}
	// Total charged pages ≈ pages filled (well below one charge per append).
	if s.Transfers >= s.Records*4 {
		t.Fatalf("packed charging (%d) should be far below per-append forcing (%d)", s.Transfers, s.Records*4)
	}
	// The forced policy charges every append.
	lf := New(Config{LogPageSize: 100, WriteCost: 4})
	lf.Append(small)
	if lf.Stats().Transfers != 4 {
		t.Fatalf("forced append charged %d, want 4", lf.Stats().Transfers)
	}
}

// Read returns the record at the given LSN.
func (l *Log) Read(n LSN) (Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.readLocked(n)
}

// ScanBackward calls fn for every record from the log tail down to (and
// including) LSN 1, until fn returns false.
func (l *Log) ScanBackward(fn func(Record) bool) error {
	l.mu.Lock()
	top := int(l.nextLSN) - 1
	bottom := int(l.firstLSN)
	l.mu.Unlock()
	for n := top; n >= bottom; n-- {
		l.mu.Lock()
		r, err := l.readLocked(LSN(n))
		l.mu.Unlock()
		if err != nil {
			return err
		}
		if !fn(r) {
			return nil
		}
	}
	return nil
}

// LastCheckpoint returns the most recent checkpoint record, or ok=false
// if none exists.
func (l *Log) LastCheckpoint() (Record, bool) {
	var found Record
	ok := false
	_ = l.ScanBackward(func(r Record) bool {
		if r.Type == TypeCheckpoint {
			found, ok = r, true
			return false
		}
		return true
	})
	return found, ok
}
