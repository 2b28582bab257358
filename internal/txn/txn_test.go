package txn

import (
	"sync"
	"testing"

	"repro/internal/page"
)

func TestBeginAssignsMonotonicIDs(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	b := m.Begin()
	if a.ID == page.InvalidTx || b.ID <= a.ID {
		t.Fatalf("ids = %d, %d", a.ID, b.ID)
	}
	if a.Status != Active {
		t.Fatalf("fresh txn status = %v", a.Status)
	}
}

func TestFinishAndCounts(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	b := m.Begin()
	c := m.Begin()
	m.Finish(a.ID, Committed)
	m.Finish(b.ID, Aborted)
	if m.Get(a.ID) != nil || m.Get(b.ID) != nil {
		t.Fatalf("finished txns must leave the active table")
	}
	if m.Get(c.ID) == nil {
		t.Fatalf("txn c should still be active")
	}
	started, committed, aborted := m.Counts()
	if started != 3 || committed != 1 || aborted != 1 {
		t.Fatalf("counts = %d/%d/%d", started, committed, aborted)
	}
	if a.Status != Committed || b.Status != Aborted {
		t.Fatalf("statuses = %v, %v", a.Status, b.Status)
	}
	// Finishing a non-active txn is a no-op.
	m.Finish(a.ID, Aborted)
	if a.Status != Committed {
		t.Fatalf("double finish must not change the outcome")
	}
}

func TestActiveSorted(t *testing.T) {
	m := NewManager()
	var ids []page.TxID
	for i := 0; i < 5; i++ {
		ids = append(ids, m.Begin().ID)
	}
	m.Finish(ids[2], Committed)
	act := m.Active()
	if len(act) != 4 {
		t.Fatalf("active = %v", act)
	}
	for i := 1; i < len(act); i++ {
		if act[i] <= act[i-1] {
			t.Fatalf("active not sorted: %v", act)
		}
	}
	if m.ActiveCount() != 4 {
		t.Fatalf("ActiveCount = %d", m.ActiveCount())
	}
}

func TestTimestampsMonotonicAndSurviveReset(t *testing.T) {
	m := NewManager()
	t1 := m.NextTimestamp()
	t2 := m.NextTimestamp()
	if t2 <= t1 {
		t.Fatalf("timestamps not monotonic: %d then %d", t1, t2)
	}
	a := m.Begin()
	m.Reset()
	if m.Get(a.ID) != nil {
		t.Fatalf("Reset must drop active transactions")
	}
	if ts := m.NextTimestamp(); ts <= t2 {
		t.Fatalf("timestamps must keep increasing across a crash: %d after %d", ts, t2)
	}
	if b := m.Begin(); b.ID <= a.ID {
		t.Fatalf("ids must keep increasing across a crash: %d after %d", b.ID, a.ID)
	}
}

func TestConcurrentBegin(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	idCh := make(chan page.TxID, 16*20)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				idCh <- m.Begin().ID
			}
		}()
	}
	wg.Wait()
	close(idCh)
	seen := make(map[page.TxID]bool)
	for id := range idCh {
		if seen[id] {
			t.Fatalf("duplicate txn id %d", id)
		}
		seen[id] = true
	}
	if len(seen) != 16*20 {
		t.Fatalf("got %d unique ids", len(seen))
	}
}

// Get returns the active transaction with the given id, or nil.
func (m *Manager) Get(id page.TxID) *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active[id]
}
