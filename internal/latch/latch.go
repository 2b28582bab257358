// Package latch implements the engine's per-parity-group latch table.
//
// The paper's array organizations make parity groups independent units of
// both serving and recovery: a small write touches one data block and one
// parity twin of a single group, a no-log steal consumes one group's
// redundancy, and a group's twin flip at commit involves no other group.
// The latch table turns that independence into concurrency — operations
// on disjoint groups run truly in parallel, while operations on the same
// group serialize for the duration of one protocol step (read, small
// write, steal, demotion, flip).
//
// Latches are short-term physical locks, distinct from the lock manager's
// transaction-duration 2PL locks and from the engine's stop-the-world
// recovery gate; see DESIGN.md ("The latching hierarchy").
//
// Deadlock freedom is by ordering: an operation that blocks for several
// latches must acquire them in ascending group order, and the table
// enforces this with an always-on assertion (the latches are the
// innermost blocking locks in the engine, so the check is cheap relative
// to the protected work).  The one consumer that cannot respect the
// order — buffer eviction, which runs while a latch of the *fetching*
// page's group is already held and targets an arbitrary victim group —
// uses TryAcquire, which never blocks and is therefore exempt.
package latch

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/page"
)

// Table is a fixed-size table of per-group latches.
type Table struct {
	mus []sync.Mutex
}

// New creates a table with one latch per parity group.
func New(numGroups int) *Table {
	if numGroups <= 0 {
		panic("latch: table needs at least one group")
	}
	return &Table{mus: make([]sync.Mutex, numGroups)}
}

func (t *Table) check(g page.GroupID) {
	if int(g) < 0 || int(g) >= len(t.mus) {
		panic(fmt.Sprintf("latch: group %d out of range [0,%d)", g, len(t.mus)))
	}
}

// Held tracks the set of group latches one operation currently holds.
// It is used by a single goroutine; releasing is idempotent so a deferred
// ReleaseAll unwinds cleanly even when a fault-injection panic cuts the
// operation mid-protocol.
type Held struct {
	t *Table
	// groups is the held set in ascending order, backed by inline until
	// an operation holds more groups than that.
	groups []page.GroupID
	inline [4]page.GroupID
}

// NewHeld returns an empty held-set for one operation.
func (t *Table) NewHeld() *Held {
	h := &Held{t: t}
	h.groups = h.inline[:0]
	return h
}

// Holds reports whether group g's latch is in the held set.
func (h *Held) Holds(g page.GroupID) bool {
	_, ok := slices.BinarySearch(h.groups, g)
	return ok
}

func (h *Held) insert(g page.GroupID) {
	i, _ := slices.BinarySearch(h.groups, g)
	h.groups = slices.Insert(h.groups, i, g)
}

// Acquire blocks until every listed group's latch is held.  Groups
// already in the held set are skipped.  The new groups are taken in
// ascending order, and — the lock-order assertion — every one of them
// must be greater than the maximum group already held: a blocking
// acquisition below or equal to a held latch could form a cycle with
// another operation doing the same in the opposite order.  Out-of-order
// acquisition must use TryAcquire instead.
func (h *Held) Acquire(groups ...page.GroupID) {
	if len(groups) == 1 {
		// The common case — one page's group — sorts nothing and
		// allocates nothing.
		g := groups[0]
		h.t.check(g)
		if !h.Holds(g) {
			h.lockAbove(g)
		}
		return
	}
	var buf [8]page.GroupID
	want := buf[:0]
	for _, g := range groups {
		h.t.check(g)
		if !h.Holds(g) {
			want = append(want, g)
		}
	}
	slices.Sort(want)
	for i, g := range want {
		if i > 0 && want[i-1] == g {
			continue // duplicate in the request
		}
		h.lockAbove(g)
	}
}

// lockAbove blocks for g's latch, which must rank above every held one.
func (h *Held) lockAbove(g page.GroupID) {
	if n := len(h.groups); n > 0 && g <= h.groups[n-1] {
		panic(fmt.Sprintf("latch: out-of-order blocking acquire of group %d while holding %v", g, h.groups))
	}
	h.t.mus[g].Lock()
	h.groups = append(h.groups, g)
}

// TryAcquire attempts to latch group g without blocking and reports
// whether it succeeded.  It is exempt from the ascending-order rule —
// a failed attempt leaves nothing held, so it cannot participate in a
// deadlock cycle — and fails (rather than self-deadlocking) when g is
// already in the held set.
func (h *Held) TryAcquire(g page.GroupID) bool {
	h.t.check(g)
	if h.Holds(g) {
		return false
	}
	if !h.t.mus[g].TryLock() {
		return false
	}
	h.insert(g)
	return true
}

// Release unlatches group g.  Releasing a group that is not held is a
// no-op, so deferred cleanup composes with explicit early release.
func (h *Held) Release(g page.GroupID) {
	i, ok := slices.BinarySearch(h.groups, g)
	if !ok {
		return
	}
	h.groups = slices.Delete(h.groups, i, i+1)
	h.t.mus[g].Unlock()
}

// ReleaseAll unlatches every held group.  Idempotent; meant to be
// deferred at operation entry so fault-injection panics unwind cleanly.
func (h *Held) ReleaseAll() {
	for _, g := range h.groups {
		h.t.mus[g].Unlock()
	}
	h.groups = h.groups[:0]
}
