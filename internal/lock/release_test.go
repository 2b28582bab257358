package lock

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/page"
)

// waitQueued polls until tx is queued in m, so a test never races the
// goroutine it started.
func waitQueued(t *testing.T, m *Manager, tx page.TxID) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m.mu.Lock()
		queued := m.waiting[tx] != nil
		m.mu.Unlock()
		if queued {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("txn %d never queued", tx)
		}
		time.Sleep(time.Millisecond)
	}
}

// queue starts tx's blocking request on res and waits until it is queued.
func queue(t *testing.T, m *Manager, tx page.TxID, res Resource, mode Mode) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- m.Acquire(tx, res, mode) }()
	waitQueued(t, m, tx)
	return done
}

func TestLockTableDrains(t *testing.T) {
	// Txn 1 holds X on five records; txns 2..11 each hold shared locks on
	// two of three common pages, then queue on one of the five records,
	// in txn order.  Releasing them in txn order grants each request in
	// turn, and once everyone has released nothing is left behind.
	m := New()
	rec := func(i int) Resource { return RecordResource(9, i%5) }
	for i := 0; i < 5; i++ {
		if err := m.Acquire(1, rec(i), Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	done := map[page.TxID]<-chan error{}
	for tx := page.TxID(2); tx <= 11; tx++ {
		for _, p := range []page.PageID{page.PageID(tx % 3), page.PageID((tx + 1) % 3)} {
			if err := m.Acquire(tx, PageResource(p), Shared); err != nil {
				t.Fatal(err)
			}
		}
		mode := Exclusive
		if tx%4 == 0 {
			mode = Shared
		}
		done[tx] = queue(t, m, tx, rec(int(tx)), mode)
	}
	// A request cancelled by its own transaction's release: the shared
	// request queued behind it is granted at once.
	cancelled := queue(t, m, 99, PageResource(0), Exclusive)
	behind := queue(t, m, 98, PageResource(0), Shared)
	m.ReleaseAll(99)
	if err := <-cancelled; !errors.Is(err, ErrClosed) {
		t.Fatalf("cancelled request: err = %v, want ErrClosed", err)
	}
	select {
	case err := <-behind:
		if err != nil {
			t.Fatalf("request behind the cancelled one: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("request behind the cancelled one was not granted")
	}
	m.ReleaseAll(98)
	m.ReleaseAll(1)
	for tx := page.TxID(2); tx <= 11; tx++ {
		if err := <-done[tx]; err != nil {
			t.Fatalf("txn %d: %v", tx, err)
		}
		if got := len(m.HeldResources(tx)); got != 3 {
			t.Fatalf("txn %d holds %d locks, want 3", tx, got)
		}
		m.ReleaseAll(tx)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.locks) != 0 || len(m.held) != 0 || len(m.waiting) != 0 {
		t.Fatalf("table not drained: %d locks, %d held lists, %d waiting", len(m.locks), len(m.held), len(m.waiting))
	}
}

func TestReleaseIsLocal(t *testing.T) {
	// Txn 1 holds X on a and b; waiters queue on both.  1 000 locks of
	// other transactions sit in the table, three of them with a queued
	// request.  Releasing txn 1 wakes exactly the waiters on a and b that
	// became grantable, in FIFO order, and touches nothing else.
	m := New()
	a, b := RecordResource(1, 0), RecordResource(1, 1)
	for _, res := range []Resource{a, b} {
		if err := m.Acquire(1, res, Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	other := func(k int) Resource { return PageResource(page.PageID(1000 + k)) }
	for k := 0; k < 1000; k++ {
		if err := m.Acquire(page.TxID(1000+k), other(k), Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 3; k++ {
		queue(t, m, page.TxID(5000+k), other(k), Shared)
	}
	woken := map[page.TxID]<-chan error{
		3: queue(t, m, 3, a, Shared),
		4: queue(t, m, 4, a, Shared),
		6: queue(t, m, 6, b, Exclusive),
	}
	still := map[page.TxID]<-chan error{
		5: queue(t, m, 5, a, Exclusive),
		7: queue(t, m, 7, b, Shared),
	}

	type snapshot struct {
		st      *lockState
		holders []holder
		queue   []*waiter
	}
	m.mu.Lock()
	before := make(map[Resource]snapshot, 1000)
	for k := 0; k < 1000; k++ {
		st := m.locks[other(k)]
		before[other(k)] = snapshot{st, slices.Clone(st.holders), slices.Clone(st.queue)}
	}
	m.mu.Unlock()

	m.ReleaseAll(1)

	m.mu.Lock()
	for res, s := range before {
		st := m.locks[res]
		if st != s.st || !slices.Equal(st.holders, s.holders) || !slices.Equal(st.queue, s.queue) {
			t.Errorf("%s changed by another transaction's release", res)
		}
		for _, w := range st.queue {
			if len(w.ch) != 0 {
				t.Errorf("waiter of txn %d on %s was signalled", w.tx, res)
			}
		}
	}
	wantA := []holder{{3, Shared}, {4, Shared}}
	if got := m.locks[a].holders; !slices.Equal(got, wantA) {
		t.Errorf("holders of %s = %v, want %v (FIFO)", a, got, wantA)
	}
	if got := m.locks[b].holders; !slices.Equal(got, []holder{{6, Exclusive}}) {
		t.Errorf("holders of %s = %v, want txn 6's X", b, got)
	}
	if q := m.locks[a].queue; len(q) != 1 || q[0].tx != 5 {
		t.Errorf("queue of %s: want txn 5 alone", a)
	}
	if q := m.locks[b].queue; len(q) != 1 || q[0].tx != 7 {
		t.Errorf("queue of %s: want txn 7 alone", b)
	}
	m.mu.Unlock()
	for tx, ch := range woken {
		if err := <-ch; err != nil {
			t.Fatalf("txn %d: %v", tx, err)
		}
	}
	for tx, ch := range still {
		select {
		case err := <-ch:
			t.Fatalf("txn %d returned %v, want it still queued", tx, err)
		default:
		}
	}
	m.Close()
}
