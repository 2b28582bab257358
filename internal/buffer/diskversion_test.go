package buffer

import (
	"testing"

	"repro/internal/page"
)

// TestMissLeavesNoDiskVersion: a clean frame holds no disk version — not
// after a miss, not after a hit, not after the write-back that cleaned it.
func TestMissLeavesNoDiskVersion(t *testing.T) {
	s := newFakeStore(10, 64)
	bp := newPool(s, 4)
	f, err := bp.Get(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.DiskVersion != nil {
		t.Fatalf("a miss left a disk version")
	}
	bp.Unpin(5)
	if f, err = bp.Get(5, nil); err != nil {
		t.Fatal(err)
	}
	if f.DiskVersion != nil {
		t.Fatalf("a hit left a disk version")
	}
	bp.Modify(f, 1)
	f.Data[0] = 99
	bp.Unpin(5)
	if err := bp.FlushPage(5); err != nil {
		t.Fatal(err)
	}
	if f.Dirty || f.DiskVersion != nil {
		t.Fatalf("the write-back left dirty=%v, disk version %v", f.Dirty, f.DiskVersion != nil)
	}
}

// TestFirstModifyCapturesOldData: the first Modify of a clean frame copies
// Data as it stands into a buffer of its own; later ones, the frame being
// dirty, keep that copy.
func TestFirstModifyCapturesOldData(t *testing.T) {
	s := newFakeStore(10, 64)
	bp := newPool(s, 4)
	f, err := bp.Get(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Unpin(3)
	old := f.Data.Clone()
	bp.Modify(f, 1)
	if f.DiskVersion == nil || !f.DiskVersion.Equal(old) || !f.DiskVersion.Equal(s.pages[3]) {
		t.Fatalf("the first Modify did not capture the page as stored")
	}
	if &f.DiskVersion[0] == &f.Data[0] {
		t.Fatalf("the disk version aliases Data")
	}
	f.Data[0], f.Data[63] = 0xAA, 0xBB
	bp.Modify(f, 2)
	f.Data[1] = 0xCC
	if !f.DiskVersion.Equal(old) {
		t.Fatalf("a later Modify of the dirty frame changed its disk version")
	}
	if !f.Dirty || len(f.ModifierList()) != 2 {
		t.Fatalf("dirty=%v modifiers=%v, want dirty with two", f.Dirty, f.ModifierList())
	}
}

// TestDiskVersionGoesBackOnce: every way a dirty frame stops being dirty —
// a write-back (FlushPage, FlushTogether, a steal), MarkClean, a discard, a
// Forget — returns its disk version to the free list exactly once, and the
// miss that reuses a discarded frame returns nothing more.  A write-back
// runs while the list does not hold the page it reads.
func TestDiskVersionGoesBackOnce(t *testing.T) {
	s := newFakeStore(10, 64)
	var bp *Pool
	const idle = 2
	held := 0 // disk versions the dirty frames hold
	bp = New(2, 64, s.fetch, func(f *Frame) error {
		if got := bp.Pages.Len(); got != idle-held {
			t.Errorf("page %d: %d idle pages during the write-back, want %d", f.Page, got, idle-held)
		}
		return s.writeBack(f)
	})
	bp.Pages.Put(page.NewBuf(64), page.NewBuf(64))
	dirty := func(p page.PageID) *Frame {
		t.Helper()
		f, err := bp.Get(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		bp.Modify(f, 1)
		f.Data[1]++
		bp.Unpin(p)
		if held++; bp.Pages.Len() != idle-held {
			t.Fatalf("page %d: %d idle pages after Modify, want %d", p, bp.Pages.Len(), idle-held)
		}
		return f
	}
	back := func(what string) {
		t.Helper()
		if held = 0; bp.Pages.Len() != idle {
			t.Fatalf("%s: %d idle pages, want %d", what, bp.Pages.Len(), idle)
		}
	}

	dirty(0)
	if err := bp.FlushPage(0); err != nil {
		t.Fatal(err)
	}
	back("write-back")
	if err := bp.FlushPage(0); err != nil {
		t.Fatal(err)
	}
	back("a second write-back of the clean frame")

	dirty(0)
	dirty(1)
	if done, err := bp.FlushTogether([]page.PageID{0, 1}, func([]page.Buf) error { return nil }); !done || err != nil {
		t.Fatalf("FlushTogether: done=%v err=%v", done, err)
	}
	back("a combined write-back")

	f := dirty(0)
	bp.Modify(f, 2) // dirty already: takes nothing
	f.Data[2]++
	bp.MarkClean(f)
	back("MarkClean")

	dirty(1)
	for _, p := range []page.PageID{0, 2} { // page 1 is the LRU when 2 misses
		if _, err := bp.Get(p, nil); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(p)
	}
	back("a steal")
	if st := bp.Stats(); st.Steals != 1 || bp.Contains(1) {
		t.Fatalf("steals = %d, page 1 resident %v: want page 1 stolen", st.Steals, bp.Contains(1))
	}

	dirty(2)
	bp.Discard(2)
	back("discard")
	if _, err := bp.Get(3, nil); err != nil { // reuses the discarded frame
		t.Fatal(err)
	}
	bp.Unpin(3)
	back("the miss that reuses the discarded frame")

	f = dirty(3)
	bp.Forget(3)
	back("Forget")
	if !f.Dirty || f.DiskVersion != nil {
		t.Fatalf("Forget left dirty=%v, disk version %v", f.Dirty, f.DiskVersion != nil)
	}
	if err := bp.FlushPage(3); err != nil {
		t.Fatal(err)
	}
	back("the write-back of a forgotten frame")
}

// TestWarmModifyWriteBackDoesNotAllocate: once the free list is warm, a
// frame's modify → write-back round trip allocates nothing — the disk
// version is a page off the list and back.  The modifier leaves the frame
// between the two as a committing ¬FORCE transaction's does, so its set
// keeps its slot.
func TestWarmModifyWriteBackDoesNotAllocate(t *testing.T) {
	bp := scratchPool(4)
	f, err := bp.Get(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(1)
	cycle := func() {
		bp.Modify(f, 7)
		f.Data[9]++
		f.RemoveModifier(7)
		if err := bp.FlushPage(1); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("a warm modify → write-back cycle allocates %.2f objects, want 0", n)
	}
}
