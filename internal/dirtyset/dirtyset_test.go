package dirtyset

import (
	"testing"
	"testing/quick"

	"repro/internal/page"
)

// TestDirtySetStateDiagramFigure3 walks the exact transitions of the
// paper's Figure 3 state diagram for a page parity group, asserting the
// table's state at each (the policy that reads it is core.Decide).
func TestDirtySetStateDiagramFigure3(t *testing.T) {
	tbl := New()
	const (
		g  = page.GroupID(4)
		di = page.PageID(42) // the paper's D_i
		dj = page.PageID(43) // another page of the same group
		tx = page.TxID(1)    // the paper's transaction T
		t2 = page.TxID(2)
	)
	owner := func(state string, want Entry) {
		t.Helper()
		e, dirty := tbl.Lookup(g)
		if !dirty || e != want {
			t.Fatalf("%s: entry %+v (dirty %v), want %+v", state, e, dirty, want)
		}
		if got := tbl.GroupsOf(want.Txn); len(got) != 1 || got[0] != g {
			t.Fatalf("%s: GroupsOf(%d) = %v, want [%d]", state, want.Txn, got, g)
		}
	}
	refused := func(p page.PageID, tx page.TxID) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("MarkDirty(page %d, txn %d) of a group dirty under another pair must panic", p, tx)
			}
		}()
		tbl.MarkDirty(g, p, tx, 0)
	}

	// Clean state: no entry, no owner.
	if _, dirty := tbl.Lookup(g); dirty || len(tbl.GroupsOf(tx)) != 0 {
		t.Fatalf("a new table must hold group %d clean", g)
	}

	// "Transaction T modifies page D_i and D_i is written back to the
	// database before EOT" — clean → dirty.
	tbl.MarkDirty(g, di, tx, 1)
	owner("after the first no-logging steal", Entry{Page: di, Txn: tx, WorkingTwin: 1})

	// "T rereferences D_i, modifies it and D_i is written back to the
	// database before EOT" — dirty → dirty (self loop, still no logging).
	tbl.MarkDirty(g, di, tx, 1)
	owner("after the re-steal", Entry{Page: di, Txn: tx, WorkingTwin: 1})

	// A different page of the dirty group, or the same page on behalf of
	// a different transaction, cannot take the group over.
	refused(dj, tx)
	refused(di, t2)
	owner("after the refused steals", Entry{Page: di, Txn: tx, WorkingTwin: 1})

	// "Transaction T commits" — dirty → clean.
	tbl.Clean(g)
	if _, dirty := tbl.Lookup(g); dirty || len(tbl.GroupsOf(tx)) != 0 {
		t.Fatalf("group must be clean after commit")
	}
	// A clean group takes any owner again.
	tbl.MarkDirty(g, dj, t2, 0)
	owner("after a new owner's steal", Entry{Page: dj, Txn: t2})
}

func TestMarkDirtyConflictPanics(t *testing.T) {
	tbl := New()
	tbl.MarkDirty(1, 10, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatalf("MarkDirty under a different owner must panic")
		}
	}()
	tbl.MarkDirty(1, 11, 1, 0)
}

func TestGroupsOfAndCleanAllOf(t *testing.T) {
	tbl := New()
	tbl.MarkDirty(3, 30, 7, 0)
	tbl.MarkDirty(1, 10, 7, 1)
	tbl.MarkDirty(2, 20, 8, 0)
	got := tbl.GroupsOf(7)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("GroupsOf(7) = %v, want [1 3] sorted", got)
	}
	for _, g := range got {
		tbl.Clean(g)
	}
	if len(tbl.GroupsOf(7)) != 0 {
		t.Fatalf("txn 7 still owns groups after its commit cleaned them")
	}
	if !tbl.IsDirty(2) {
		t.Fatalf("txn 8's group must survive txn 7's commit")
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
}

func TestResetModelsCrash(t *testing.T) {
	tbl := New()
	tbl.MarkDirty(1, 10, 1, 0)
	tbl.MarkDirty(2, 20, 2, 1)
	tbl.Reset()
	if tbl.Len() != 0 {
		t.Fatalf("Reset must empty the table")
	}
	if len(tbl.GroupsOf(1)) != 0 {
		t.Fatalf("per-txn index must be dropped too")
	}
}

func TestQuickAtMostOneDirtyPagePerGroup(t *testing.T) {
	// Property: however ops interleave (a steal marks its group only
	// when Lookup shows it clean or owned by the same pair, as the
	// engine's write-back decision does), every dirty group has exactly
	// one owning (page, txn) pair, and cleaning is idempotent.
	type op struct {
		G     uint8
		P     uint8
		T     uint8
		Clean bool
	}
	f := func(ops []op) bool {
		tbl := New()
		for _, o := range ops {
			g := page.GroupID(o.G % 8)
			p := page.PageID(o.P % 64)
			tx := page.TxID(o.T%4 + 1)
			if o.Clean {
				tbl.Clean(g)
				tbl.Clean(g) // idempotent
				if tbl.IsDirty(g) {
					return false
				}
				continue
			}
			if e, dirty := tbl.Lookup(g); dirty && (e.Page != p || e.Txn != tx) {
				continue // the steal must log; the table is not touched
			}
			tbl.MarkDirty(g, p, tx, int(o.T%2))
			if e, ok := tbl.Lookup(g); !ok || e.Page != p || e.Txn != tx {
				return false
			}
		}
		// Cross-check the per-txn index against the main map.
		total := 0
		for tx := page.TxID(1); tx <= 4; tx++ {
			for _, g := range tbl.GroupsOf(tx) {
				e, ok := tbl.Lookup(g)
				if !ok || e.Txn != tx {
					return false
				}
				total++
			}
		}
		return total == tbl.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
