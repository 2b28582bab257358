package twinpage

import (
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
	"repro/internal/xorparity"
)

func newTwinArray(t *testing.T) *diskarray.Array {
	t.Helper()
	a, err := diskarray.New(diskarray.Config{
		Kind: diskarray.RAID5Twin, DataDisks: 3, NumPages: 24, PageSize: page.MinSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFormattedStateTwinZeroCurrent(t *testing.T) {
	a := newTwinArray(t)
	m := New(a)
	for g := 0; g < a.NumGroups(); g++ {
		if m.Current(page.GroupID(g)) != 0 || m.Obsolete(page.GroupID(g)) != 1 {
			t.Fatalf("group %d not formatted with twin 0 current", g)
		}
	}
}

func TestWriteWorkingTargetsObsoleteTwin(t *testing.T) {
	a := newTwinArray(t)
	m := New(a)
	parity := page.NewBuf(a.PageSize())
	parity[0] = 0xAB
	twin, err := m.WriteWorking(2, parity, 5, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if twin != 1 {
		t.Fatalf("working parity written to twin %d, want the obsolete twin 1", twin)
	}
	meta, err := a.PeekParityMeta(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if meta.State != disk.StateWorking || meta.Timestamp != 100 || meta.Txn != 5 {
		t.Fatalf("working twin header = %+v", meta)
	}
	// The bitmap still points at twin 0 until a commit promotes twin 1.
	if m.Current(2) != 0 {
		t.Fatalf("current twin changed before commit")
	}
	m.Promote(2, twin)
	if m.Current(2) != 1 || m.Obsolete(2) != 0 {
		t.Fatalf("promotion did not flip the bitmap")
	}
}

func TestInvalidate(t *testing.T) {
	a := newTwinArray(t)
	m := New(a)
	parity := page.NewBuf(a.PageSize())
	twin, err := m.WriteWorking(0, parity, 9, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Invalidate(0, twin); err != nil {
		t.Fatal(err)
	}
	meta, err := a.PeekParityMeta(0, twin)
	if err != nil {
		t.Fatal(err)
	}
	if meta.State != disk.StateInvalid || meta.Timestamp != 0 {
		t.Fatalf("invalidated twin header = %+v", meta)
	}
	if m.Current(0) != 0 {
		t.Fatalf("current twin must remain 0 after an abort")
	}
}

// TestCurrentParityFigure7 exercises the timestamp comparison of the
// Current_Parity algorithm.
func TestCurrentParityFigure7(t *testing.T) {
	a := newTwinArray(t)
	m := New(a)
	buf := page.NewBuf(a.PageSize())

	// Freshly formatted: twin 0 (committed, ts 0) wins the tie.
	twin, err := m.CurrentParityFromDisk(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if twin != 0 {
		t.Fatalf("formatted group: current twin %d, want 0", twin)
	}

	// Commit a parity on twin 1 with a larger timestamp: twin 1 wins.
	if err := a.WriteParity(0, 1, buf, disk.Meta{State: disk.StateCommitted, Timestamp: 7, Txn: 1}); err != nil {
		t.Fatal(err)
	}
	if twin, err = m.CurrentParityFromDisk(0, nil); err != nil || twin != 1 {
		t.Fatalf("twin = %d err = %v, want twin 1", twin, err)
	}

	// An even larger timestamp back on twin 0 reclaims it.
	if err := a.WriteParity(0, 0, buf, disk.Meta{State: disk.StateCommitted, Timestamp: 9, Txn: 2}); err != nil {
		t.Fatal(err)
	}
	if twin, err = m.CurrentParityFromDisk(0, nil); err != nil || twin != 0 {
		t.Fatalf("twin = %d err = %v, want twin 0", twin, err)
	}
}

// TestTwinStateDiagramFigure8 exercises the four states of Figure 8 as
// seen by the crash-time scan: committed wins over working-with-aborted
// writer; working-with-committed writer wins over old committed.
func TestTwinStateDiagramFigure8(t *testing.T) {
	a := newTwinArray(t)
	m := New(a)
	buf := page.NewBuf(a.PageSize())

	// Group 1: twin 0 committed(ts 5); twin 1 working by txn 3 (ts 8).
	if err := a.WriteParity(1, 0, buf, disk.Meta{State: disk.StateCommitted, Timestamp: 5, Txn: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteParity(1, 1, buf, disk.Meta{State: disk.StateWorking, Timestamp: 8, Txn: 3}); err != nil {
		t.Fatal(err)
	}

	committed := func(tx page.TxID) bool { return tx == 3 }
	notCommitted := func(tx page.TxID) bool { return false }

	// Writer committed: the working twin is the real current parity.
	if twin, err := m.CurrentParityFromDisk(1, committed); err != nil || twin != 1 {
		t.Fatalf("twin = %d err = %v, want working twin 1 (writer committed)", twin, err)
	}
	// Writer lost: the committed twin stays current.
	if twin, err := m.CurrentParityFromDisk(1, notCommitted); err != nil || twin != 0 {
		t.Fatalf("twin = %d err = %v, want committed twin 0 (writer aborted)", twin, err)
	}

	// After undo, the loser's twin is invalidated; the scan must then
	// pick twin 0 regardless of outcomes.
	if err := m.Invalidate(1, 1); err != nil {
		t.Fatal(err)
	}
	if twin, err := m.CurrentParityFromDisk(1, nil); err != nil || twin != 0 {
		t.Fatalf("twin = %d err = %v, want 0 after invalidation", twin, err)
	}
}

func TestNoValidTwinIsAnError(t *testing.T) {
	a := newTwinArray(t)
	m := New(a)
	buf := page.NewBuf(a.PageSize())
	for twin := 0; twin < 2; twin++ {
		if err := a.WriteParity(3, twin, buf, disk.Meta{State: disk.StateInvalid}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.CurrentParityFromDisk(3, nil); err == nil || !strings.Contains(err.Error(), "no valid parity twin") {
		t.Fatalf("err = %v, want no-valid-twin error", err)
	}
}

func TestRebuildBitmap(t *testing.T) {
	a := newTwinArray(t)
	m := New(a)
	buf := page.NewBuf(a.PageSize())
	// Scatter some commits: odd groups get twin 1 current.
	for g := 0; g < a.NumGroups(); g++ {
		if g%2 == 1 {
			if err := a.WriteParity(page.GroupID(g), 1, buf, disk.Meta{State: disk.StateCommitted, Timestamp: 3}); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Reset() // crash wipes the bitmap
	if err := m.RebuildBitmap(nil); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < a.NumGroups(); g++ {
		want := g % 2
		if got := m.Current(page.GroupID(g)); got != want {
			t.Fatalf("group %d rebuilt to twin %d, want %d", g, got, want)
		}
	}
}

// TestUndoViaTwinParityFigure6 ties the manager to the XOR identity of
// Figure 6: after a no-logging steal, the before-image is recoverable
// from the two twins and the new data.
func TestUndoViaTwinParityFigure6(t *testing.T) {
	a := newTwinArray(t)
	m := New(a)
	ps := a.PageSize()

	// Establish a non-trivial committed state for group 0.
	pages := a.GroupPages(0)
	for i, p := range pages {
		b := page.NewBuf(ps)
		for j := range b {
			b[j] = byte(i*31 + j)
		}
		if err := a.WriteData(p, b, disk.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.RecomputeParity(0, 0, disk.Meta{State: disk.StateCommitted, Timestamp: 1}); err != nil {
		t.Fatal(err)
	}

	// Transaction 7 overwrites the middle page without UNDO logging.
	victim := pages[1]
	oldData, _, err := a.ReadData(victim, nil)
	if err != nil {
		t.Fatal(err)
	}
	newData := page.NewBuf(ps)
	for j := range newData {
		newData[j] = byte(255 - j)
	}
	committedParity, _, err := a.ReadParity(0, m.Current(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	working := committedParity.Clone()
	xorparity.SmallWrite(working, oldData, newData)
	if _, err := m.WriteWorking(0, working, 7, 10, victim); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteData(victim, newData, disk.Meta{Txn: 7}); err != nil {
		t.Fatal(err)
	}

	// Figure 6: D_old = (P ⊕ P') ⊕ D_new.
	p0, _, err := a.ReadParity(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	p1, _, err := a.ReadParity(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, _, err := a.ReadData(victim, nil)
	if err != nil {
		t.Fatal(err)
	}
	recovered := xorparity.UndoTwin(p0, p1, onDisk)
	if !page.Buf(recovered).Equal(oldData) {
		t.Fatalf("twin undo did not recover the before-image")
	}
}

func TestRewriteWorking(t *testing.T) {
	a := newTwinArray(t)
	m := New(a)
	parity := page.NewBuf(a.PageSize())
	twin, err := m.WriteWorking(4, parity, 3, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	parity[0] = 0xEE
	if err := m.RewriteWorking(4, twin, parity, 3, 11, 16); err != nil {
		t.Fatal(err)
	}
	meta, err := a.PeekParityMeta(4, twin)
	if err != nil {
		t.Fatal(err)
	}
	if meta.State != disk.StateWorking || meta.Timestamp != 11 || meta.DirtyPage != 16 {
		t.Fatalf("rewritten header = %+v", meta)
	}
	got, err := a.PeekParity(4, twin)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xEE {
		t.Fatalf("rewrite did not update contents")
	}
}

func TestPromotePanicsOnBadTwin(t *testing.T) {
	a := newTwinArray(t)
	m := New(a)
	defer func() {
		if recover() == nil {
			t.Fatalf("Promote(2) must panic")
		}
	}()
	m.Promote(0, 2)
}

func TestManagerErrorsOnFailedDisk(t *testing.T) {
	a := newTwinArray(t)
	m := New(a)
	loc := a.ParityLoc(0, 1)
	a.Disk(loc.Disk).Fail()
	if _, err := m.WriteWorking(0, page.NewBuf(a.PageSize()), 1, 1, 0); err == nil {
		t.Fatalf("WriteWorking to a failed disk must error")
	}
	if _, err := m.CurrentParityFromDisk(0, nil); err == nil {
		t.Fatalf("scan over a failed disk must error")
	}
	if err := m.RebuildBitmap(nil); err == nil {
		t.Fatalf("rebuild over a failed disk must error")
	}
}

func TestNewPanicsOnSingleParity(t *testing.T) {
	arr, err := diskarray.New(diskarray.Config{
		Kind: diskarray.RAID5, DataDisks: 3, NumPages: 12, PageSize: page.MinSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("New on a single-parity array must panic")
		}
	}()
	New(arr)
}
