// Package dirtyset implements the paper's Dirty_Set table (Section 4.1,
// Figure 3).
//
// A parity group is *dirty* when one of its data pages has been written
// back to the database by a still-active transaction without UNDO
// logging, and *clean* otherwise.  The table records, for every dirty
// group, which page caused the transition, which transaction wrote it,
// and which twin parity page holds the working parity ("Only log N bits
// need to be used to store the page number ... and one bit for the parity
// page number").
//
// The table holds the state behind the central policy question of RDA
// recovery: may this steal proceed WITHOUT UNDO logging?  Per Figure 3
// the answer is yes exactly when the group is clean, or when it is dirty
// and the write is a re-steal of the very same page by the very same
// transaction (the page was stolen, re-referenced, modified and stolen
// again before EOT).  The table does not answer it: the one write-back
// decision, core.Decide, reads the group's entry through Lookup.
//
// The table lives in main memory only — it is lost in a system crash and
// crash recovery reconstructs what it needs from the log chains
// (Section 4.3).  Use Reset to model that loss.
package dirtyset

import (
	"slices"
	"sync"

	"repro/internal/page"
)

// Entry describes one dirty parity group.
type Entry struct {
	// Page is the data page whose no-UNDO-logging write made the group
	// dirty.
	Page page.PageID
	// Txn is the active transaction that wrote it.
	Txn page.TxID
	// WorkingTwin is the twin parity page (0 or 1) holding the working
	// parity for this group.
	WorkingTwin int
}

// Table is the Dirty_Set.  It is safe for concurrent use.
type Table struct {
	mu sync.Mutex
	m  map[page.GroupID]Entry
	// byTxn indexes dirty groups by owning transaction, each set in
	// ascending order, for commit and abort processing.
	byTxn map[page.TxID][]page.GroupID
	// spare holds the emptied sets of finished owners, reused by the next
	// transaction's first no-log steal.
	spare [][]page.GroupID
}

// New creates an empty table (every group clean).
func New() *Table {
	return &Table{
		m:     make(map[page.GroupID]Entry),
		byTxn: make(map[page.TxID][]page.GroupID),
	}
}

// Lookup returns the entry for group g and whether the group is dirty.
func (t *Table) Lookup(g page.GroupID) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[g]
	return e, ok
}

// IsDirty reports whether group g is dirty.
func (t *Table) IsDirty(g page.GroupID) bool {
	_, ok := t.Lookup(g)
	return ok
}

// MarkDirty records that tx's write of page p (working parity on the
// given twin) moved group g into the dirty state, or refreshes the entry
// on a re-steal.  It panics if the group is already dirty under a
// different (page, transaction) pair, because that would corrupt the undo
// guarantee — the write-back decision (core.Decide) must have allowed the
// no-log steal first.
func (t *Table) MarkDirty(g page.GroupID, p page.PageID, tx page.TxID, workingTwin int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, dirty := t.m[g]; dirty && (e.Page != p || e.Txn != tx) {
		panic("dirtyset: group already dirty under a different page/transaction")
	}
	t.m[g] = Entry{Page: p, Txn: tx, WorkingTwin: workingTwin}
	set, owns := t.byTxn[tx]
	if !owns {
		if n := len(t.spare); n > 0 {
			set, t.spare = t.spare[n-1], t.spare[:n-1]
		}
	}
	if i, found := slices.BinarySearch(set, g); !found {
		set = slices.Insert(set, i, g)
	}
	t.byTxn[tx] = set
}

// Clean returns group g to the clean state (Figure 3's commit
// transition, and the end of an abort's undo).
func (t *Table) Clean(g page.GroupID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[g]
	if !ok {
		return
	}
	delete(t.m, g)
	set := t.byTxn[e.Txn]
	if i, found := slices.BinarySearch(set, g); found {
		set = slices.Delete(set, i, i+1)
	}
	if len(set) > 0 {
		t.byTxn[e.Txn] = set
		return
	}
	delete(t.byTxn, e.Txn)
	if cap(set) > 0 {
		t.spare = append(t.spare, set)
	}
}

// GroupsOf appends the groups currently dirty on behalf of tx to dst, in
// ascending order (deterministic for tests and recovery), and returns the
// extended slice.  A caller that cleans the groups as it walks them passes
// a buffer of its own; the list does not change under it.
func (t *Table) GroupsOf(tx page.TxID, dst []page.GroupID) []page.GroupID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append(dst, t.byTxn[tx]...)
}

// Len returns the number of dirty groups.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Reset drops the whole table — the main-memory table does not survive a
// system crash.
func (t *Table) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m = make(map[page.GroupID]Entry)
	t.byTxn = make(map[page.TxID][]page.GroupID)
}
