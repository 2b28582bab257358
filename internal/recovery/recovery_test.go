package recovery

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dirtyset"
	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/wal"
)

func newStore(t *testing.T, kind diskarray.Kind) *core.Store {
	t.Helper()
	arr, err := diskarray.New(diskarray.Config{
		Kind: kind, DataDisks: 4, NumPages: 48, PageSize: page.MinSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return core.NewStore(arr, wal.New(wal.Config{LogPageSize: 256, WriteCost: 4}), txn.NewManager())
}

func TestAnalyzeOutcomes(t *testing.T) {
	log := wal.New(wal.DefaultConfig())
	log.Append(wal.Record{Type: wal.TypeEOT, Txn: 1, Slot: wal.NoSlot})
	log.Append(wal.Record{Type: wal.TypeCheckpoint, Slot: wal.NoSlot, Active: []page.TxID{2}})
	log.Append(wal.Record{Type: wal.TypeBeforeImage, Txn: 3, Page: 9, Slot: wal.NoSlot, Image: []byte{1}})
	log.Append(wal.Record{Type: wal.TypeAbort, Txn: 4, Slot: wal.NoSlot})
	log.Append(wal.Record{Type: wal.TypeAfterImage, Txn: 2, Page: 5, Slot: wal.NoSlot, Image: []byte{2}})
	log.Append(wal.Record{Type: wal.TypeEOT, Txn: 2, Slot: wal.NoSlot})

	a, err := analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	want := map[page.TxID]outcome{
		1: outcomeCommitted, 2: outcomeCommitted, 3: outcomeLoser, 4: outcomeAborted,
	}
	for tx, o := range want {
		if a.outcomes[tx] != o {
			t.Errorf("txn %d outcome = %v, want %v", tx, a.outcomes[tx], o)
		}
	}
	if len(a.losers) != 1 || a.losers[0] != 3 {
		t.Errorf("losers = %v, want [3]", a.losers)
	}
	if len(a.loserImages[3]) != 1 || a.loserImages[3][0].Page != 9 {
		t.Errorf("loser images = %+v", a.loserImages)
	}
	// Txn 2's after-image is after the checkpoint → needs replay; txn 1
	// committed before any after-images were written.
	if len(a.redoImages) != 1 || a.redoImages[0].Txn != 2 {
		t.Errorf("redo images = %+v", a.redoImages)
	}
	if !a.committed(1) || a.committed(3) {
		t.Errorf("Committed predicate wrong")
	}
	// The analysis scan must charge log reads.
	if log.Stats().ReadTransfers == 0 {
		t.Errorf("analysis must charge log read transfers")
	}
}

func TestCrashRecoverEmptyLog(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	rep, err := CrashRecover(s, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Losers) != 0 || rep.Redone != 0 || rep.UndoneViaLog != 0 || rep.UndoneViaParity != 0 {
		t.Fatalf("empty-log recovery did work: %+v", rep)
	}
}

func TestCrashRecoverBadPageImage(t *testing.T) {
	s := newStore(t, diskarray.RAID5)
	s.Log.Append(wal.Record{Type: wal.TypeBeforeImage, Txn: 1, Page: 0, Slot: wal.NoSlot, Image: []byte{1, 2}}) // wrong size
	if _, err := CrashRecover(s, false, false); err == nil || !strings.Contains(err.Error(), "image") {
		t.Fatalf("err = %v, want image-size error", err)
	}
}

func TestCrashRecoverLaundersWinnerTwins(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	tm := s.TM
	tx := tm.Begin()
	data := page.NewBuf(page.MinSize)
	data[0] = 0xAA
	if err := s.StealNoLog(3, data, nil, tx, nil); err != nil {
		t.Fatal(err)
	}
	s.Log.Append(wal.Record{Type: wal.TypeEOT, Txn: tx.ID, Slot: wal.NoSlot})
	// Crash before the lazily-updated twin header is touched again.
	s.ResetVolatile()
	rep, err := CrashRecover(s, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LaunderedTwins != 1 {
		t.Fatalf("laundered = %d, want 1", rep.LaunderedTwins)
	}
	// After recovery no working twins remain and the data survives.
	walk, err := s.WalkGroups(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	working, err := walk.Working()
	if err != nil {
		t.Fatal(err)
	}
	if len(working) != 0 {
		t.Fatalf("working twins remain after recovery: %+v", working)
	}
	got, err := s.ReadPage(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAA {
		t.Fatalf("winner's page lost")
	}
	if err := s.VerifyParityInvariant(); err != nil {
		t.Fatal(err)
	}
}

// recoverMedia is media recovery over a bare store: the failed drives ds
// are swapped for fresh ones and every group is rebuilt in order, a group
// beyond the redundancy given up, as the engine's repair loop does it.  It
// returns the given-up groups.
func recoverMedia(s *core.Store, ds []int, before BeforeImageFunc) ([]page.GroupID, error) {
	if err := s.Arr.BeginRebuild(ds...); err != nil {
		return nil, err
	}
	var lost []page.GroupID
	for g := range s.Arr.NumGroups() {
		gid := page.GroupID(g)
		ok, err := RebuildGroup(s, gid, ds, before)
		if err != nil {
			return lost, err
		}
		if !ok {
			lost = append(lost, gid)
			if _, err := s.LoseGroup(gid, func(page.GroupID, diskarray.Red) bool { return true }); err != nil {
				return lost, err
			}
		}
	}
	s.Arr.FinishRebuild()
	return lost, nil
}

func TestRecoverMediaRejectsMissingBeforeImage(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	tx := s.TM.Begin()
	data := page.NewBuf(page.MinSize)
	data[0] = 1
	if err := s.StealNoLog(0, data, nil, tx, nil); err != nil {
		t.Fatal(err)
	}
	// Fail the disk holding the group's COMMITTED twin while the group
	// is dirty; without a before-image the rebuild must refuse.
	g := s.Arr.GroupOf(0)
	e, _ := s.Dirty.Lookup(g)
	committedTwin := 1 - e.WorkingTwin
	d := s.Arr.Loc(g, parity(committedTwin)).Disk
	if err := s.Arr.FailDisk(d); err != nil {
		t.Fatal(err)
	}
	_, err := recoverMedia(s, []int{d}, func(page.GroupID, dirtyset.Entry) page.Buf { return nil })
	if err == nil || !strings.Contains(err.Error(), "before-image") {
		t.Fatalf("err = %v, want missing before-image error", err)
	}
}

func TestRecoverMediaWithBeforeImage(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	// Commit a baseline so the before-image is non-trivial.
	base := page.NewBuf(page.MinSize)
	base[0] = 0x11
	if err := s.WriteCommitted(0, base, nil); err != nil {
		t.Fatal(err)
	}
	tx := s.TM.Begin()
	newData := page.NewBuf(page.MinSize)
	newData[0] = 0x22
	if err := s.StealNoLog(0, newData, base, tx, nil); err != nil {
		t.Fatal(err)
	}
	g := s.Arr.GroupOf(0)
	e, _ := s.Dirty.Lookup(g)
	committedTwin := 1 - e.WorkingTwin
	d := s.Arr.Loc(g, parity(committedTwin)).Disk
	if err := s.Arr.FailDisk(d); err != nil {
		t.Fatal(err)
	}
	lost, err := recoverMedia(s, []int{d}, func(gg page.GroupID, ee dirtyset.Entry) page.Buf {
		if gg == g && ee.Page == 0 {
			return base
		}
		return nil
	})
	if err != nil || len(lost) > 0 {
		t.Fatalf("lost %v, err %v", lost, err)
	}
	// The rebuilt committed twin must still support the Figure 6 undo.
	p, restored, err := abortSteal(s, g)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 || !restored.Equal(base) {
		t.Fatalf("undo after committed-twin rebuild failed")
	}
	if err := s.VerifyParityInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverMediaEveryKindEveryDisk loses each drive of each
// organization in turn — with and without the Q equation — over random
// contents: every page must come back bit exact and every redundancy page
// consistent.
func TestRecoverMediaEveryKindEveryDisk(t *testing.T) {
	kinds := []diskarray.Kind{diskarray.RAID5, diskarray.RAID5Twin, diskarray.ParityStripe, diskarray.ParityStripeTwin}
	for _, kind := range kinds {
		for _, q := range []bool{false, true} {
			arr, err := diskarray.New(diskarray.Config{Kind: kind, DataDisks: 3, NumPages: 24, PageSize: page.MinSize, QParity: q && kind.Twinned()})
			if err != nil {
				t.Fatal(err)
			}
			s := core.NewStore(arr, wal.New(wal.Config{LogPageSize: 256, WriteCost: 4}), txn.NewManager())
			rng := rand.New(rand.NewSource(int64(kind) + 10))
			want := make([]page.Buf, arr.NumPages())
			for p := range want {
				want[p] = page.NewBuf(page.MinSize)
				rng.Read(want[p])
				if err := s.WriteCommitted(page.PageID(p), want[p], nil); err != nil {
					t.Fatal(err)
				}
			}
			for d := 0; d < arr.NumDisks(); d++ {
				if err := arr.FailDisk(d); err != nil {
					t.Fatal(err)
				}
				if lost, err := recoverMedia(s, []int{d}, nil); err != nil || len(lost) > 0 {
					t.Fatalf("%v q=%v: disk %d: lost %v, err %v", kind, q, d, lost, err)
				}
				for p := range want {
					if got, err := arr.PeekData(page.PageID(p)); err != nil || !got.Equal(want[p]) {
						t.Fatalf("%v q=%v: after rebuilding disk %d, page %d is wrong (%v)", kind, q, d, p, err)
					}
				}
				if err := s.VerifyParityInvariant(); err != nil {
					t.Fatalf("%v q=%v: after rebuilding disk %d: %v", kind, q, d, err)
				}
			}
		}
	}
}

func TestRecoverMediaMultiBothTwins(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	want := page.NewBuf(page.MinSize)
	want[0] = 0x66
	if err := s.WriteCommitted(0, want, nil); err != nil {
		t.Fatal(err)
	}
	g := s.Arr.GroupOf(0)
	d0 := s.Arr.Loc(g, parity(0)).Disk
	d1 := s.Arr.Loc(g, parity(1)).Disk
	if err := s.Arr.FailDisk(d0); err != nil {
		t.Fatal(err)
	}
	if err := s.Arr.FailDisk(d1); err != nil {
		t.Fatal(err)
	}
	lost, err := recoverMedia(s, []int{d0, d1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, lg := range lost {
		if lg == g {
			t.Fatalf("group %d lost only twins; must be recoverable", g)
		}
	}
	got, err := s.ReadPage(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("page 0 corrupted")
	}
	if err := s.VerifyParityInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverMediaMultiDirtyCommittedPlusData(t *testing.T) {
	// A dirty group loses its committed twin AND a non-dirty data page;
	// the before-image lets both rebuild.
	s := newStore(t, diskarray.RAID5Twin)
	g := page.GroupID(0)
	pages := s.Arr.GroupPages(g)
	base := make(map[page.PageID]page.Buf)
	for i, p := range pages {
		b := pattern(page.MinSize, byte(0x10+i))
		if err := s.WriteCommitted(p, b, nil); err != nil {
			t.Fatal(err)
		}
		base[p] = b
	}
	tx := s.TM.Begin()
	dirtyPage := pages[0]
	newData := pattern(page.MinSize, 0xC7)
	if err := s.StealNoLog(dirtyPage, newData, base[dirtyPage], tx, nil); err != nil {
		t.Fatal(err)
	}
	e, _ := s.Dirty.Lookup(g)
	committedTwin := 1 - e.WorkingTwin
	victim := pages[1]
	dA := s.Arr.Loc(g, parity(committedTwin)).Disk
	dB := s.Arr.DataLoc(victim).Disk
	if err := s.Arr.FailDisk(dA); err != nil {
		t.Fatal(err)
	}
	if err := s.Arr.FailDisk(dB); err != nil {
		t.Fatal(err)
	}
	before := func(gg page.GroupID, ee dirtyset.Entry) page.Buf {
		if gg == g && ee.Page == dirtyPage {
			return base[dirtyPage]
		}
		return nil
	}
	lost, err := recoverMedia(s, []int{dA, dB}, before)
	if err != nil {
		t.Fatal(err)
	}
	for _, lg := range lost {
		if lg == g {
			t.Fatalf("group %d should rebuild via the before-image", g)
		}
	}
	got, err := s.ReadPage(victim, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(base[victim]) {
		t.Fatalf("victim page not rebuilt correctly")
	}
	// The twin-parity undo must still work for the dirty page.
	p, restored, err := abortSteal(s, g)
	if err != nil {
		t.Fatal(err)
	}
	if p != dirtyPage || !restored.Equal(base[dirtyPage]) {
		t.Fatalf("undo after double-failure rebuild broken")
	}
	if err := s.VerifyParityInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverMediaMultiDirtyWorkingPlusData: a dirty group loses the index
// that tracks its on-disk data — the working twin, P and (on a P+Q array)
// Q page alike — AND a bystander data page.  The committed twin describes
// the group with the dirty page at its before-image, so with that image
// supplied the bystander still solves (solveFromCommitted), and the
// working twin is then recomputed over the whole data.
func TestRecoverMediaMultiDirtyWorkingPlusData(t *testing.T) {
	for _, pq := range []bool{false, true} {
		arr, err := diskarray.New(diskarray.Config{
			Kind: diskarray.RAID5Twin, QParity: pq, DataDisks: 4, NumPages: 48, PageSize: page.MinSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := core.NewStore(arr, wal.New(wal.Config{LogPageSize: 256, WriteCost: 4}), txn.NewManager())
		g := page.GroupID(0)
		pages := s.Arr.GroupPages(g)
		base := make(map[page.PageID]page.Buf)
		for i, p := range pages {
			base[p] = pattern(page.MinSize, byte(0x30+i))
			if err := s.WriteCommitted(p, base[p], nil); err != nil {
				t.Fatal(err)
			}
		}
		dirtyPage, victim := pages[0], pages[2]
		newData := pattern(page.MinSize, 0x9B)
		if err := s.StealNoLog(dirtyPage, newData, base[dirtyPage], s.TM.Begin(), nil); err != nil {
			t.Fatal(err)
		}
		e, _ := s.Dirty.Lookup(g)
		drives := []int{s.Arr.DataLoc(victim).Disk}
		for _, eq := range s.Arr.Equations() {
			drives = append(drives, s.Arr.Loc(g, eq.Twin(e.WorkingTwin)).Disk)
		}
		for _, d := range drives {
			s.Arr.Disk(d).Fail()
		}
		before := func(page.GroupID, dirtyset.Entry) page.Buf { return base[dirtyPage] }
		// Without the before-image the bystander is beyond the redundancy.
		if ok, err := RebuildGroup(s, g, drives, nil); err != nil || ok {
			t.Fatalf("pq=%v: rebuild without the before-image: ok=%v err=%v, want reported loss", pq, ok, err)
		}
		lost, err := recoverMedia(s, drives, before)
		if err != nil {
			t.Fatalf("pq=%v: %v", pq, err)
		}
		for _, lg := range lost {
			if lg == g {
				t.Fatalf("pq=%v: group %d should rebuild via the before-image", pq, g)
			}
		}
		if got, err := s.ReadPage(victim, nil); err != nil || !got.Equal(base[victim]) {
			t.Fatalf("pq=%v: bystander page not rebuilt (err %v)", pq, err)
		}
		if got, err := s.ReadPage(dirtyPage, nil); err != nil || !got.Equal(newData) {
			t.Fatalf("pq=%v: the dirty page lost its stolen contents (err %v)", pq, err)
		}
		if err := s.VerifyParityInvariant(); err != nil {
			t.Fatalf("pq=%v: %v", pq, err)
		}
		// The rebuilt working twin must still fund the undo.
		if p, restored, err := abortSteal(s, g); err != nil || p != dirtyPage || !restored.Equal(base[dirtyPage]) {
			t.Fatalf("pq=%v: undo after the rebuild broken (err %v)", pq, err)
		}
	}
}

func TestRecoverMediaMultiReportsLoss(t *testing.T) {
	s := newStore(t, diskarray.RAID5)
	if err := s.WriteCommitted(0, pattern(page.MinSize, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Arr.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Arr.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	lost, err := recoverMedia(s, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) == 0 {
		t.Fatalf("single parity cannot survive a double failure; loss must be reported")
	}
	// The array is internally consistent again even where data was lost.
	if err := s.VerifyParityInvariant(); err != nil {
		t.Fatal(err)
	}
}

// pattern fills a buffer with a deterministic byte sequence.
func pattern(size int, seed byte) page.Buf {
	b := page.NewBuf(size)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// recordPage returns a formatted record page holding the given slots.
func recordPage(t testing.TB, size, recSize int, recs map[int][]byte) page.Buf {
	t.Helper()
	b := page.NewBuf(size)
	if err := record.Format(b, recSize); err != nil {
		t.Fatal(err)
	}
	v, err := record.View(b)
	if err != nil {
		t.Fatal(err)
	}
	for slot, rec := range recs {
		if err := v.Write(slot, rec); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// logRecordImage appends winner tx's after-image of one record.
func logRecordImage(s *core.Store, tx page.TxID, p page.PageID, slot int, rec []byte) {
	s.Log.Append(wal.Record{Type: wal.TypeAfterImage, Txn: tx, Page: p, Slot: int32(slot),
		Image: record.EncodeImage(record.Image{Present: true, Data: rec})})
}

// TestCrashRecoverRedoIdempotent: REDO reads each page once, writes only
// the pages its images change, and a second restart over the same log —
// no checkpoint in between — finds every page current and writes nothing.
func TestCrashRecoverRedoIdempotent(t *testing.T) {
	const recSize = 8
	s := newStore(t, diskarray.RAID5Twin)
	rec := func(seed byte) []byte { return pattern(recSize, seed) }
	// Page 3 takes three record images, page 9 a full-page image, and page
	// 20 already holds what its two images produce.
	for p, recs := range map[page.PageID]map[int][]byte{3: nil, 9: nil, 20: {0: rec(7), 1: rec(8)}} {
		if err := s.WriteCommitted(p, recordPage(t, page.MinSize, recSize, recs), nil); err != nil {
			t.Fatal(err)
		}
	}
	full := recordPage(t, page.MinSize, recSize, map[int][]byte{2: rec(9)})
	logRecordImage(s, 1, 3, 0, rec(1))
	logRecordImage(s, 1, 20, 0, rec(7))
	logRecordImage(s, 1, 3, 1, rec(2))
	s.Log.Append(wal.Record{Type: wal.TypeEOT, Txn: 1, Slot: wal.NoSlot})
	logRecordImage(s, 2, 3, 0, rec(3)) // overwrites txn 1's slot 0
	logRecordImage(s, 2, 20, 1, rec(8))
	s.Log.Append(wal.Record{Type: wal.TypeAfterImage, Txn: 2, Page: 9, Slot: wal.NoSlot, Image: full})
	s.Log.Append(wal.Record{Type: wal.TypeEOT, Txn: 2, Slot: wal.NoSlot})
	const images, pages, stale = 6, 3, 2

	// The cost of a restart with nothing to apply: the header scans.
	restart := func(redo bool) (*Report, disk.Stats) {
		t.Helper()
		s.ResetVolatile()
		before := s.Arr.Stats()
		rep, err := CrashRecover(s, redo, false)
		if err != nil {
			t.Fatal(err)
		}
		after := s.Arr.Stats()
		return rep, disk.Stats{Reads: after.Reads - before.Reads, Writes: after.Writes - before.Writes}
	}
	_, scan := restart(false)
	if scan.Writes != 0 {
		t.Fatalf("restart without REDO wrote %d block(s)", scan.Writes)
	}

	rep, io := restart(true)
	if rep.Redone != images || rep.RedonePages != pages || rep.RedoneWrites != stale {
		t.Fatalf("first restart: redone %d image(s) over %d page(s), %d written; want %d/%d/%d",
			rep.Redone, rep.RedonePages, rep.RedoneWrites, images, pages, stale)
	}
	// One read per page; a written page adds the a = 3 small write: parity
	// read, parity write, data write.
	if r, w := io.Reads-scan.Reads, io.Writes; r != pages+stale || w != 2*stale {
		t.Fatalf("first restart: REDO cost %d read(s) and %d write(s), want %d and %d", r, w, pages+stale, 2*stale)
	}
	want := map[page.PageID]page.Buf{
		3:  recordPage(t, page.MinSize, recSize, map[int][]byte{0: rec(3), 1: rec(2)}),
		9:  full,
		20: recordPage(t, page.MinSize, recSize, map[int][]byte{0: rec(7), 1: rec(8)}),
	}
	for p, img := range want {
		if got, err := s.ReadPage(p, nil); err != nil || !got.Equal(img) {
			t.Fatalf("page %d after REDO: %v (err %v)", p, got, err)
		}
	}

	rep, io = restart(true)
	if rep.Redone != images || rep.RedonePages != pages || rep.RedoneWrites != 0 {
		t.Fatalf("second restart: redone %d image(s) over %d page(s), %d written; want %d/%d/0",
			rep.Redone, rep.RedonePages, rep.RedoneWrites, images, pages)
	}
	if r := io.Reads - scan.Reads; r != pages || io.Writes != 0 {
		t.Fatalf("second restart: REDO cost %d read(s) and %d write(s), want %d and 0", r, io.Writes, pages)
	}
	if err := s.VerifyParityInvariant(); err != nil {
		t.Fatal(err)
	}
}

// redoStore builds the leaf benchmark's restart: a twinned array of 2 KiB
// pages and a log of perPage committed record images for each of the first
// pages pages, of which every seventh page (≈ 15 %) is stale on the platter
// and the rest already hold what their images produce.  reset puts the
// stale pages back after a restart has redone them.
func redoStore(tb testing.TB, pages, perPage int) (s *core.Store, reset func()) {
	tb.Helper()
	const pageSize, recSize = 2048, 100
	arr, err := diskarray.New(diskarray.Config{Kind: diskarray.RAID5Twin, DataDisks: 4, NumPages: pages, PageSize: pageSize})
	if err != nil {
		tb.Fatal(err)
	}
	s = core.NewStore(arr, wal.New(wal.DefaultConfig()), txn.NewManager())
	blank := recordPage(tb, pageSize, recSize, nil)
	load := make([]page.Buf, pages)
	var stale []page.PageID
	for p := range load {
		recs := make(map[int][]byte, perPage)
		for slot := 0; slot < perPage; slot++ {
			recs[slot] = pattern(recSize, byte(p+slot))
		}
		load[p] = recordPage(tb, pageSize, recSize, recs)
		if p%7 == 0 {
			load[p] = blank
			stale = append(stale, page.PageID(p))
		}
	}
	// Images of one page are spread over the log, as commits leave them.
	for slot := 0; slot < perPage; slot++ {
		for p := range load {
			logRecordImage(s, 1, page.PageID(p), slot, pattern(recSize, byte(p+slot)))
		}
	}
	s.Log.Append(wal.Record{Type: wal.TypeEOT, Txn: 1, Slot: wal.NoSlot})
	if _, err := s.BulkLoad(0, load); err != nil {
		tb.Fatal(err)
	}
	return s, func() {
		for _, p := range stale {
			if err := s.WriteCommitted(p, blank, nil); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkCrashRecoverRedo is the leaf benchmark of pass 6 at the shape
// the retrieval_noforce workload gives it: ≈ 4 000 record images over
// ≈ 2 000 pages, ≈ 85 % of them already current.  ns/op is one whole
// quiescent restart, header scans and analysis included.
func BenchmarkCrashRecoverRedo(b *testing.B) {
	const pages, perPage = 2000, 2
	s, reset := redoStore(b, pages, perPage)
	var transfers int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reset()
		s.ResetVolatile()
		before := s.Arr.Stats().Transfers()
		b.StartTimer()
		rep, err := CrashRecover(s, true, false)
		if err != nil || rep.Redone != pages*perPage {
			b.Fatalf("redone %d, err %v", rep.Redone, err)
		}
		transfers += s.Arr.Stats().Transfers() - before
	}
	images := float64(b.N) * pages * perPage
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/images, "ns/image")
	b.ReportMetric(float64(transfers)/images, "transfers/image")
}

// TestRedoAllocationsIndependentOfImages: pass 6 works in the restart's two
// page buffers, so replaying four times the images over the same pages
// allocates no more — what is left is one record view per page.
func TestRedoAllocationsIndependentOfImages(t *testing.T) {
	const pages = 64
	allocs := func(perPage int) float64 {
		s, _ := redoStore(t, pages, perPage)
		a, err := analyze(s.Log)
		if err != nil {
			t.Fatal(err)
		}
		st := &state{s: s, a: a, lost: map[page.PageID]bool{}, old: s.Pages.Get(), new: s.Pages.Get()}
		return testing.AllocsPerRun(10, func() {
			st.rep = &Report{}
			if err := st.redo(); err != nil || st.rep.Redone != pages*perPage {
				t.Fatalf("redone %d, err %v", st.rep.Redone, err)
			}
		})
	}
	few, many := allocs(2), allocs(8)
	t.Logf("allocs: %v for 2 images a page, %v for 8", few, many)
	if many > few || few > 2*pages {
		t.Fatalf("pass 6 allocated %.0f time(s) for 2 images a page and %.0f for 8, over %d pages", few, many, pages)
	}
}

// TestParitySlotRebuildReusesPages: rebuilding a group's lost block reads
// the group into pages from Store.Pages and hands them all back — a lost
// redundancy page is computed in one more, a lost data page is solved in
// the ones read and written from there — so a warmed store rebuilds parity
// slots (P and Q, current and obsolete) and data members without
// allocating a page.
func TestParitySlotRebuildReusesPages(t *testing.T) {
	const size = 2048
	arr, err := diskarray.New(diskarray.Config{Kind: diskarray.RAID5Twin, DataDisks: 4, NumPages: 48, PageSize: size, QParity: true})
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewStore(arr, wal.New(wal.DefaultConfig()), txn.NewManager())
	for p := 0; p < arr.NumPages(); p++ {
		if err := s.WriteCommitted(page.PageID(p), pattern(size, byte(p)), nil); err != nil {
			t.Fatal(err)
		}
	}
	const g = 5
	var slots, members []int // the drives holding the group's blocks
	for slot := 0; slot < 4; slot++ {
		slots = append(slots, arr.Loc(g, diskarray.Eq(slot%2).Twin(slot/2)).Disk)
	}
	for i := 0; i < arr.GroupWidth(); i++ {
		members = append(members, arr.DataLoc(arr.GroupPage(g, i)).Disk)
	}
	for _, c := range []struct {
		name   string
		drives []int
	}{{"parity-slot", slots}, {"data-member", members}} {
		next := 0
		rebuild := func() {
			d := c.drives[next%len(c.drives)]
			next++
			if ok, err := RebuildGroup(s, g, []int{d}, nil); err != nil || !ok {
				t.Fatalf("%s rebuild on disk %d: ok %v, err %v", c.name, d, ok, err)
			}
		}
		rebuild()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const rounds = 200
		for i := 0; i < rounds; i++ {
			rebuild()
		}
		runtime.ReadMemStats(&after)
		per := float64(after.TotalAlloc-before.TotalAlloc) / rounds
		t.Logf("%.0f bytes allocated per %s rebuild", per, c.name)
		if per >= size/2 {
			t.Errorf("%.0f bytes allocated per %s rebuild, want well under one %d-byte page", per, c.name, size)
		}
	}
	if err := s.VerifyParityInvariant(); err != nil {
		t.Error(err)
	}
	for p := 0; p < arr.NumPages(); p++ {
		if got, err := arr.PeekData(page.PageID(p)); err != nil || !got.Equal(pattern(size, byte(p))) {
			t.Fatalf("page %d wrong after the rebuilds (err %v)", p, err)
		}
	}
}

// abortSteal undoes the no-log steal that dirtied group g down the undo
// ladder, as a live abort does, and returns the page and what its platter
// holds afterwards.
func abortSteal(s *core.Store, g page.GroupID) (page.PageID, page.Buf, error) {
	e, ok := s.Dirty.Lookup(g)
	if !ok {
		return 0, nil, fmt.Errorf("group %d is not dirty", g)
	}
	w := core.WorkingTwinInfo{Group: g, Twin: e.WorkingTwin, Meta: disk.Meta{DirtyPage: e.Page, Txn: e.Txn}}
	if _, lost, err := s.UndoSteal(w, core.RungFigure6, false); err != nil || len(lost) > 0 {
		return e.Page, nil, fmt.Errorf("undo of group %d: lost %v: %v", g, lost, err)
	}
	got, err := s.Arr.PeekData(e.Page)
	return e.Page, got, err
}
