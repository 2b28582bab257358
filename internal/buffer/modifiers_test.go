package buffer

import (
	"slices"
	"testing"

	"repro/internal/page"
)

// TestModifierCycleDoesNotAllocate: a warm frame going dirty under one
// modifier, listed the way a write-back lists it, and rewound clean by an
// abort (MarkClean) allocates nothing — neither the modifier set nor its
// list.
func TestModifierCycleDoesNotAllocate(t *testing.T) {
	bp := scratchPool(4)
	f, err := bp.Get(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(2)
	cycle := func() {
		bp.Modify(f, 11)
		if mods := f.ModifierList(); len(mods) != 1 || mods[0] != 11 {
			t.Fatalf("modifiers = %v, want [11]", mods)
		}
		bp.MarkClean(f)
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("a warm Modify → ModifierList → MarkClean cycle allocates %.2f objects, want 0", n)
	}
	if f.Dirty || len(f.ModifierList()) != 0 {
		t.Fatalf("dirty=%v modifiers=%v after MarkClean, want a clean frame with none", f.Dirty, f.ModifierList())
	}
}

// TestModifiersOutgrowInlineBacking: record locking lets more transactions
// share a page than the set holds inline.  Every one is kept, once, and
// removing some keeps the rest; a frame that went clean and is modified
// again starts from an empty set.
func TestModifiersOutgrowInlineBacking(t *testing.T) {
	bp := scratchPool(2)
	f, err := bp.Get(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Unpin(0)
	var want []page.TxID
	for tx := page.TxID(1); tx <= 9; tx++ {
		bp.Modify(f, tx)
		bp.Modify(f, tx) // a second change by the same transaction
		want = append(want, tx)
	}
	if got := f.ModifierList(); !slices.Equal(got, want) {
		t.Fatalf("modifiers = %v, want %v", got, want)
	}
	for _, tx := range []page.TxID{1, 5, 9, 42} {
		f.RemoveModifier(tx)
	}
	if got, want := f.ModifierList(), []page.TxID{2, 3, 4, 6, 7, 8}; !slices.Equal(got, want) {
		t.Fatalf("after removals modifiers = %v, want %v", got, want)
	}
	if !f.Dirty {
		t.Fatalf("removing modifiers cleaned the frame")
	}
	bp.MarkClean(f)
	bp.Modify(f, 3)
	if got := f.ModifierList(); !slices.Equal(got, []page.TxID{3}) {
		t.Fatalf("modifiers after a clean frame is modified again = %v, want [3]", got)
	}
}

// TestModifierListAscends: whatever order transactions modify a frame in,
// ModifierList lists them in ascending id order — the order a write-back
// logs their undo in, which replayable crash schedules rely on.
func TestModifierListAscends(t *testing.T) {
	bp := scratchPool(2)
	f, err := bp.Get(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Unpin(0)
	for _, tx := range []page.TxID{40, 7, 23, 1, 99, 7, 15, 64, 2} {
		bp.Modify(f, tx)
	}
	want := []page.TxID{1, 2, 7, 15, 23, 40, 64, 99}
	if got := f.ModifierList(); !slices.Equal(got, want) {
		t.Fatalf("modifiers = %v, want %v", got, want)
	}
}
