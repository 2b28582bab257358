// Package lock implements a strict two-phase locking manager with shared
// and exclusive modes, page or record granularity, lock upgrades and
// waits-for deadlock detection.
//
// The paper assumes conventional locking underneath both granularities it
// analyzes — page locking for the page logging algorithms (Section 5.2,
// footnote 9: "the use of page locking along with UNDO logging implies
// that the sets of pages modified by concurrent transactions are
// disjoint") and record locking for the record logging algorithms
// (Section 5.3, where concurrent transactions may share pages, the
// appendix's s_u analysis).  RDA recovery itself "does not affect the
// degree of concurrency or interfere with the locking policy used in the
// system" (Section 4.1), which this package preserves: it knows nothing
// about parity groups.
package lock

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/page"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits a single writer.
	Exclusive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// Resource names a lockable object: a whole page (Slot == PageGranule) or
// one record within a page.
type Resource struct {
	Page page.PageID
	Slot int32
}

// PageGranule is the Slot value that addresses the whole page.
const PageGranule int32 = -1

// PageResource returns the page-granularity resource for p.
func PageResource(p page.PageID) Resource { return Resource{Page: p, Slot: PageGranule} }

// RecordResource returns the record-granularity resource for (p, slot).
func RecordResource(p page.PageID, slot int) Resource {
	return Resource{Page: p, Slot: int32(slot)}
}

// String implements fmt.Stringer.
func (r Resource) String() string {
	if r.Slot == PageGranule {
		return fmt.Sprintf("page %d", r.Page)
	}
	return fmt.Sprintf("record %d.%d", r.Page, r.Slot)
}

// ErrDeadlock is returned to a requester chosen as deadlock victim.  The
// engine reacts by aborting the transaction, which the paper's model
// folds into the abort probability p_b.
var ErrDeadlock = errors.New("lock: deadlock detected")

// ErrClosed is returned when the manager has been shut down (system
// crash); waiters must abandon their requests.
var ErrClosed = errors.New("lock: manager closed")

// holder is one transaction's grant on a resource.  A resource has few
// holders (one writer, or a handful of readers), so a slice scanned in
// place is cheaper than a map allocated per lock.
type holder struct {
	tx   page.TxID
	mode Mode
}

type lockState struct {
	res     Resource
	holders []holder
	// waiters in FIFO order.
	queue []*waiter
}

// find returns tx's index in st.holders, or -1.
func (st *lockState) find(tx page.TxID) int {
	for i, h := range st.holders {
		if h.tx == tx {
			return i
		}
	}
	return -1
}

type waiter struct {
	tx   page.TxID
	mode Mode
	// granted or aborted is signalled through ch.
	ch chan error
}

// Manager is the lock manager.  It is safe for concurrent use.
type Manager struct {
	mu    sync.Mutex
	locks map[Resource]*lockState
	// held[tx] = the locks tx holds, in acquisition order: ReleaseAll
	// visits these, not the whole table.
	held map[page.TxID][]*lockState
	// waiting[tx] = the lock tx is queued on; a transaction blocks in at
	// most one Acquire at a time.
	waiting map[page.TxID]*lockState
	// Emptied lock states and released held lists, reused so that a
	// steady stream of short transactions allocates nothing here.
	freeStates []*lockState
	freeLists  [][]*lockState
	closed     bool
}

// New creates an empty lock manager.
func New() *Manager {
	return &Manager{
		locks:   make(map[Resource]*lockState),
		held:    make(map[page.TxID][]*lockState),
		waiting: make(map[page.TxID]*lockState),
	}
}

// compatible reports whether a new request of mode m by tx can be granted
// given the current holders.
func compatible(st *lockState, tx page.TxID, m Mode) bool {
	for _, h := range st.holders {
		if h.tx == tx {
			continue // own lock: upgrade handled by caller
		}
		if m == Exclusive || h.mode == Exclusive {
			return false
		}
	}
	return true
}

// Acquire blocks until tx holds res in at least the requested mode.  A
// Shared request by a transaction already holding Exclusive is a no-op; a
// request for a mode already held is a no-op; Exclusive over an own
// Shared lock is an upgrade.  Returns ErrDeadlock if granting would be
// deadlock-prone and tx is chosen as the victim, or ErrClosed if the
// manager shuts down while waiting.
func (m *Manager) Acquire(tx page.TxID, res Resource, mode Mode) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	st := m.locks[res]
	if st == nil {
		st = m.newState(res)
		m.locks[res] = st
	}
	i := st.find(tx)
	if i >= 0 && (st.holders[i].mode == Exclusive || st.holders[i].mode == mode) {
		m.mu.Unlock()
		return nil
	}
	// Grant immediately when compatible and no earlier waiter would be
	// starved by a conflicting grant (upgrades jump the queue, as usual).
	upgrading := i >= 0
	if compatible(st, tx, mode) && (upgrading || len(st.queue) == 0) {
		m.grant(st, tx, mode)
		m.mu.Unlock()
		return nil
	}
	// Must wait, unless queueing would close a waits-for cycle.
	if m.deadlocks(tx, st) {
		m.mu.Unlock()
		return fmt.Errorf("%w: txn %d on %s", ErrDeadlock, tx, res)
	}
	w := &waiter{tx: tx, mode: mode, ch: make(chan error, 1)}
	m.waiting[tx] = st
	st.queue = append(st.queue, w)
	m.mu.Unlock()

	err := <-w.ch
	return err
}

// grant records tx as holding st in mode: an upgrade rewrites its entry,
// a new holder is appended and st joins tx's held list.
func (m *Manager) grant(st *lockState, tx page.TxID, mode Mode) {
	if i := st.find(tx); i >= 0 {
		st.holders[i].mode = mode
		return
	}
	st.holders = append(st.holders, holder{tx: tx, mode: mode})
	list, ok := m.held[tx]
	if !ok {
		list = m.newList()
	}
	m.held[tx] = append(list, st)
}

// deadlocks reports whether tx, about to queue on st, would close a cycle
// in the waits-for graph.  The edges are read off the live lock table — a
// waiter waits on every other holder of its lock and on every request
// queued ahead of it — so a transaction that was granted or has released
// leaves no stale edge behind and no request draws a spurious verdict.
func (m *Manager) deadlocks(tx page.TxID, st *lockState) bool {
	seen := make(map[page.TxID]bool)
	// reaches reports whether a blocker of from, which is (or is about to
	// be) queued on on, transitively waits on tx.
	var reaches func(from page.TxID, on *lockState) bool
	reaches = func(from page.TxID, on *lockState) bool {
		follow := func(next page.TxID) bool {
			if next == from || seen[next] {
				return false
			}
			if next == tx {
				return true
			}
			seen[next] = true
			if nst := m.waiting[next]; nst != nil {
				return reaches(next, nst)
			}
			return false
		}
		for _, h := range on.holders {
			if follow(h.tx) {
				return true
			}
		}
		for _, qw := range on.queue {
			if qw.tx == from {
				break
			}
			if follow(qw.tx) {
				return true
			}
		}
		return false
	}
	return reaches(tx, st)
}

// ReleaseAll releases every lock held or requested by tx and wakes any
// waiters that become grantable.  Strict 2PL: the engine calls this only
// at EOT (commit or completed abort).  It visits tx's own locks, in the
// order tx acquired them, and the one lock tx may be queued on — never
// the rest of the table.
func (m *Manager) ReleaseAll(tx page.TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	queued := m.waiting[tx]
	if queued != nil {
		delete(m.waiting, tx)
		for i := 0; i < len(queued.queue); {
			if queued.queue[i].tx == tx {
				queued.queue[i].ch <- ErrClosed // cancelled; the txn is going away anyway
				queued.queue = slices.Delete(queued.queue, i, i+1)
				continue
			}
			i++
		}
	}
	list := m.held[tx]
	delete(m.held, tx)
	for _, st := range list {
		i := st.find(tx)
		st.holders = slices.Delete(st.holders, i, i+1)
		if st == queued {
			queued = nil // an upgrader's own lock: settled here
		}
		m.settle(st)
	}
	if list != nil {
		clear(list)
		m.freeLists = append(m.freeLists, list[:0])
	}
	if queued != nil {
		m.settle(queued)
	}
}

// settle wakes st's grantable waiters and, once nobody holds or waits
// for it, takes st out of the table and keeps it for reuse.
func (m *Manager) settle(st *lockState) {
	m.wake(st)
	if len(st.holders) == 0 && len(st.queue) == 0 {
		delete(m.locks, st.res)
		m.freeStates = append(m.freeStates, st)
	}
}

// wake grants queued requests in FIFO order while they remain compatible.
func (m *Manager) wake(st *lockState) {
	for len(st.queue) > 0 {
		w := st.queue[0]
		if !compatible(st, w.tx, w.mode) {
			return
		}
		st.queue[0] = nil
		st.queue = st.queue[1:]
		m.grant(st, w.tx, w.mode)
		delete(m.waiting, w.tx) // the waiter no longer waits on anyone
		w.ch <- nil
	}
}

// newState returns an empty lock state for res, reused if one is free.
func (m *Manager) newState(res Resource) *lockState {
	n := len(m.freeStates)
	if n == 0 {
		return &lockState{res: res}
	}
	st := m.freeStates[n-1]
	m.freeStates = m.freeStates[:n-1]
	st.res = res
	return st
}

// newList returns an empty held list, reused if one is free.
func (m *Manager) newList() []*lockState {
	n := len(m.freeLists)
	if n == 0 {
		return nil
	}
	list := m.freeLists[n-1]
	m.freeLists = m.freeLists[:n-1]
	return list
}

// Close shuts the manager down (system crash): all waiters receive
// ErrClosed and all state is dropped.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	for _, st := range m.locks {
		for _, w := range st.queue {
			w.ch <- ErrClosed
		}
		st.queue = nil
	}
	m.locks = make(map[Resource]*lockState)
	m.held = make(map[page.TxID][]*lockState)
	m.waiting = make(map[page.TxID]*lockState)
	m.freeStates, m.freeLists = nil, nil
}

// HeldResources returns every resource tx holds, in the order tx
// acquired them; testing and debugging aid.
func (m *Manager) HeldResources(tx page.TxID) []Resource {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Resource
	for _, st := range m.held[tx] {
		out = append(out, st.res)
	}
	return out
}
