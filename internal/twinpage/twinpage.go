// Package twinpage manages the paper's twin parity pages (Section 4.2,
// Figures 7 and 8).
//
// Every parity group of a twinned array has two parity pages on two
// different disks.  At any moment one of them is the *current* (valid)
// parity and the other is *obsolete*.  When a data page modified by an
// active transaction is written back without UNDO logging, the new parity
// is written over the obsolete twin with the transaction's timestamp in
// its header, putting it in the *working* state; if the transaction
// commits, that twin becomes the current parity (a pure bookkeeping flip:
// no I/O), and if it aborts, the twin's timestamp is reset, putting it in
// the *invalid* state while the other twin remains current.  The header
// and payload writes themselves are core.Store's (StealNoLog,
// WriteIndexMeta): it knows which of an index's slots are reachable and
// writes a Q partner ahead of each P page.
//
// In normal operation the identity of the current twin for each group is
// kept in a main-memory bitmap.  The bitmap is lost in a crash; it is
// reconstructed by scanning the parity page headers — the Current_Parity
// algorithm of Figure 7 picks the twin with the larger timestamp — with
// the refinement crash recovery needs: a twin left in the working state
// counts only if its writing transaction is known (from the log) to have
// committed.
package twinpage

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
)

// Manager tracks the current twin of every parity group.  The engine
// serializes access to it along with the rest of its volatile state.
type Manager struct {
	// current[g] is the index (0 or 1) of the current parity twin of
	// group g.  Volatile: Reset models its loss in a crash.
	current []uint8
}

// New creates a manager for a twinned array with twin 0 current for every
// group (the formatted state).
func New(arr *diskarray.Array) *Manager {
	if !arr.Twinned() {
		panic("twinpage: array has no twin parity pages")
	}
	return &Manager{current: make([]uint8, arr.NumGroups())}
}

// Current returns the current twin index for group g according to the
// in-memory bitmap.
func (m *Manager) Current(g page.GroupID) int { return int(m.current[g]) }

// Obsolete returns the non-current twin index for group g.
func (m *Manager) Obsolete(g page.GroupID) int { return 1 - int(m.current[g]) }

// Promote flips the bitmap so that the given twin becomes current (the
// commit transition of Figure 8: working → committed, and the old
// current becomes obsolete).  No I/O is performed; the on-disk state
// catches up lazily, which is safe because the log determines every
// transaction's outcome after a crash.
func (m *Manager) Promote(g page.GroupID, twin int) {
	if twin != 0 && twin != 1 {
		panic(fmt.Sprintf("twinpage: bad twin %d", twin))
	}
	m.current[g] = uint8(twin)
}

// Valid reports whether header m is a basis Current_Parity may pick: a
// committed page, an obsolete one (old committed parity — still valid,
// just expected to lose the timestamp comparison), or a working one whose
// writer committed(txn) reports committed (the lazy on-disk state trailing
// a successful commit).  Invalid pages and slots no header was read from
// (StateNone) never are.
func Valid(m disk.Meta, committed func(page.TxID) bool) bool {
	switch m.State {
	case disk.StateCommitted, disk.StateObsolete:
		return true
	case disk.StateWorking:
		return committed != nil && committed(m.Txn)
	}
	return false
}

// CurrentParity is the Current_Parity rule of Figure 7 extended with
// transaction outcomes — the one statement of it.  Given the headers of a
// group's two redundancy indexes it returns the index of the valid one:
// among Valid headers the larger timestamp wins, ties favouring index 0,
// matching the formatted state.  ok is false when neither is valid.  The
// rule is pure: whoever calls it has read the headers (two charged
// transfers on the restart scan) and supplies the log's verdicts.
func CurrentParity(m0, m1 disk.Meta, committed func(page.TxID) bool) (cur int, ok bool) {
	v0, v1 := Valid(m0, committed), Valid(m1, committed)
	if v1 && (!v0 || m1.Timestamp > m0.Timestamp) {
		return 1, true
	}
	return 0, v0
}

// Reset zeroes the bitmap to the formatted default (twin 0 current).
// Used to model the loss of main memory in a crash *before* recovery's
// group walk (core.Store.WalkGroups, Settle) promotes each group's
// CurrentParity again; reads between the two would be wrong, which
// is exactly why the paper rebuilds the bitmap before resuming normal
// processing.
func (m *Manager) Reset() {
	for i := range m.current {
		m.current[i] = 0
	}
}
