// Package txn implements transaction bookkeeping: identities and
// lifecycle states.  What a transaction modified, and how to undo it, is
// the engine's per-transaction undo table.
//
// The manager also issues the global monotonic timestamps the twin parity
// headers carry (Section 4.2): every transaction id doubles as an
// ordering point, and additional timestamps can be drawn for individual
// parity writes so that later writes always compare higher in the
// Current_Parity algorithm (Figure 7).
package txn

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/page"
)

// Status is a transaction lifecycle state.
type Status int

// Transaction states.
const (
	Active Status = iota
	Committed
	Aborted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Txn is one transaction's volatile bookkeeping.
type Txn struct {
	ID     page.TxID
	Status Status
}

// Manager allocates transaction ids and timestamps and tracks active
// transactions.  It is safe for concurrent use.
type Manager struct {
	mu     sync.Mutex
	nextID page.TxID
	nextTS page.Timestamp
	active map[page.TxID]*Txn
	// outcomes remembers finished transactions' outcomes for the
	// lifetime of the process; crash recovery uses the log instead.
	started   int64
	committed int64
	aborted   int64
}

// NewManager creates a manager.  IDs start at 1 (page.InvalidTx is 0).
func NewManager() *Manager {
	return &Manager{nextID: 1, nextTS: 1, active: make(map[page.TxID]*Txn)}
}

// Begin creates a new active transaction.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &Txn{ID: m.nextID, Status: Active}
	m.nextID++
	m.started++
	m.active[t.ID] = t
	return t
}

// NextID returns the id the next Begin gives out.
func (m *Manager) NextID() page.TxID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextID
}

// Advance raises the next id Begin gives out to at least id.  A restart
// calls it so that new transactions sort above every id the log and the
// platter still name, and above the durable floor.
func (m *Manager) Advance(id page.TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID = max(m.nextID, id)
}

// NextTimestamp draws a fresh globally monotonic timestamp for a parity
// page header.
func (m *Manager) NextTimestamp() page.Timestamp {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.nextTS
	m.nextTS++
	return ts
}

// Finish moves the transaction out of the active table with the given
// terminal status.
func (m *Manager) Finish(id page.TxID, status Status) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.active[id]
	if !ok {
		return
	}
	t.Status = status
	delete(m.active, id)
	if status == Committed {
		m.committed++
	} else {
		m.aborted++
	}
}

// Active returns the ids of all active transactions in ascending order.
func (m *Manager) Active() []page.TxID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]page.TxID, 0, len(m.active))
	for id := range m.active {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ActiveCount returns the number of active transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// Counts returns (started, committed, aborted) totals since creation.
func (m *Manager) Counts() (started, committed, aborted int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.started, m.committed, m.aborted
}

// Reset drops all volatile transaction state but preserves the id and
// timestamp counters — after a crash, new transactions and parity writes
// must still sort after every pre-crash one.
func (m *Manager) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.active = make(map[page.TxID]*Txn)
}
