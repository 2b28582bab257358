package twinpage

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
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

// pTwin addresses the P page of a twin index.
func pTwin(t int) diskarray.Red { return diskarray.P.Twin(t) }

// headers reads the P headers of group g's two twins, the two transfers the
// restart scan charges before it applies the rule.
func headers(t *testing.T, a *diskarray.Array, g page.GroupID) (m0, m1 disk.Meta) {
	t.Helper()
	var err error
	if m0, err = a.ReadMeta(g, pTwin(0)); err != nil {
		t.Fatal(err)
	}
	if m1, err = a.ReadMeta(g, pTwin(1)); err != nil {
		t.Fatal(err)
	}
	return m0, m1
}

func TestPromoteFlipsBitmap(t *testing.T) {
	m := New(newTwinArray(t))
	m.Promote(2, m.Obsolete(2))
	if m.Current(2) != 1 || m.Obsolete(2) != 0 {
		t.Fatalf("promotion did not flip the bitmap")
	}
	if m.Current(1) != 0 {
		t.Fatalf("promotion leaked into another group")
	}
}

// TestCurrentParityFigure7 exercises the timestamp comparison of the
// Current_Parity algorithm.
func TestCurrentParityFigure7(t *testing.T) {
	a := newTwinArray(t)
	buf := page.NewBuf(a.PageSize())

	// Freshly formatted: twin 0 (committed, ts 0) wins the tie.
	m0, m1 := headers(t, a, 0)
	if twin, ok := CurrentParity(m0, m1, nil); !ok || twin != 0 {
		t.Fatalf("formatted group: current twin %d ok = %v, want twin 0", twin, ok)
	}

	// Commit a parity on twin 1 with a larger timestamp: twin 1 wins.
	if err := a.Write(0, pTwin(1), buf, disk.Meta{State: disk.StateCommitted, Timestamp: 7, Txn: 1}); err != nil {
		t.Fatal(err)
	}
	m0, m1 = headers(t, a, 0)
	if twin, ok := CurrentParity(m0, m1, nil); !ok || twin != 1 {
		t.Fatalf("twin = %d ok = %v, want twin 1", twin, ok)
	}

	// An even larger timestamp back on twin 0 reclaims it.
	if err := a.Write(0, pTwin(0), buf, disk.Meta{State: disk.StateCommitted, Timestamp: 9, Txn: 2}); err != nil {
		t.Fatal(err)
	}
	m0, m1 = headers(t, a, 0)
	if twin, ok := CurrentParity(m0, m1, nil); !ok || twin != 0 {
		t.Fatalf("twin = %d ok = %v, want twin 0", twin, ok)
	}
}

// TestTwinStateDiagramFigure8 exercises the four states of Figure 8 as
// seen by the crash-time scan: committed wins over working-with-aborted
// writer; working-with-committed writer wins over old committed.
func TestTwinStateDiagramFigure8(t *testing.T) {
	a := newTwinArray(t)
	buf := page.NewBuf(a.PageSize())

	// Group 1: twin 0 committed(ts 5); twin 1 working by txn 3 (ts 8).
	if err := a.Write(1, pTwin(0), buf, disk.Meta{State: disk.StateCommitted, Timestamp: 5, Txn: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(1, pTwin(1), buf, disk.Meta{State: disk.StateWorking, Timestamp: 8, Txn: 3}); err != nil {
		t.Fatal(err)
	}

	committed := func(tx page.TxID) bool { return tx == 3 }
	notCommitted := func(tx page.TxID) bool { return false }

	// Writer committed: the working twin is the real current parity.
	m0, m1 := headers(t, a, 1)
	if twin, ok := CurrentParity(m0, m1, committed); !ok || twin != 1 {
		t.Fatalf("twin = %d ok = %v, want working twin 1 (writer committed)", twin, ok)
	}
	// Writer lost: the committed twin stays current.
	if twin, ok := CurrentParity(m0, m1, notCommitted); !ok || twin != 0 {
		t.Fatalf("twin = %d ok = %v, want committed twin 0 (writer aborted)", twin, ok)
	}

	// After undo, the loser's twin is invalidated; the scan must then
	// pick twin 0 regardless of outcomes.
	if err := a.WriteMeta(1, pTwin(1), disk.Meta{State: disk.StateInvalid}); err != nil {
		t.Fatal(err)
	}
	m0, m1 = headers(t, a, 1)
	if twin, ok := CurrentParity(m0, m1, nil); !ok || twin != 0 {
		t.Fatalf("twin = %d ok = %v, want 0 after invalidation", twin, ok)
	}
}

// TestNoValidTwin: two invalid headers leave the rule nothing to pick.  The
// restart scan turns that into an error (core's
// TestRebuildAfterCrashNoValidTwin).
func TestNoValidTwin(t *testing.T) {
	a := newTwinArray(t)
	buf := page.NewBuf(a.PageSize())
	for tw := 0; tw < 2; tw++ {
		if err := a.Write(3, pTwin(tw), buf, disk.Meta{State: disk.StateInvalid}); err != nil {
			t.Fatal(err)
		}
	}
	m0, m1 := headers(t, a, 3)
	if twin, ok := CurrentParity(m0, m1, func(page.TxID) bool { return true }); ok || twin != 0 {
		t.Fatalf("twin = %d ok = %v over two invalid headers, want 0, false", twin, ok)
	}
	if Valid(m0, nil) || Valid(disk.Meta{}, nil) {
		t.Fatalf("an invalid or unread (StateNone) header must never be a valid basis")
	}
}

func TestBitmapRebuiltFromHeaders(t *testing.T) {
	a := newTwinArray(t)
	m := New(a)
	buf := page.NewBuf(a.PageSize())
	// Scatter some commits: odd groups get twin 1 current.
	for g := 0; g < a.NumGroups(); g++ {
		if g%2 == 1 {
			if err := a.Write(page.GroupID(g), pTwin(1), buf, disk.Meta{State: disk.StateCommitted, Timestamp: 3}); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Reset() // crash wipes the bitmap
	for g := 0; g < a.NumGroups(); g++ {
		m0, m1 := headers(t, a, page.GroupID(g))
		cur, ok := CurrentParity(m0, m1, nil)
		if !ok {
			t.Fatalf("group %d: no valid twin", g)
		}
		m.Promote(page.GroupID(g), cur)
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
	blocks := make([]page.Buf, len(pages))
	if err := a.ReadGroup(0, blocks); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(0, pTwin(0), diskarray.P.Compute(ps, page.Raw(blocks)...), disk.Meta{State: disk.StateCommitted, Timestamp: 1}); err != nil {
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
	committedParity, _, err := a.Read(0, pTwin(m.Current(0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	working := committedParity.Clone()
	diskarray.P.SmallWrite(working, oldData, newData, 1)
	if err := a.Write(0, pTwin(m.Obsolete(0)), working, disk.Meta{State: disk.StateWorking, Timestamp: 10, Txn: 7, DirtyPage: victim}); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteData(victim, newData, disk.Meta{Txn: 7}); err != nil {
		t.Fatal(err)
	}

	// Figure 6: D_old = (P ⊕ P') ⊕ D_new.
	p0, _, err := a.Read(0, pTwin(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	p1, _, err := a.Read(0, pTwin(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, _, err := a.ReadData(victim, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, twins := range [][2]page.Buf{{p0, p1}, {p1, p0}} {
		if recovered := diskarray.P.Compute(ps, twins[0], twins[1], onDisk); !page.Buf(recovered).Equal(oldData) {
			t.Fatalf("twin undo did not recover the before-image")
		}
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
