package lock

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/page"
)

func TestSharedCompatibility(t *testing.T) {
	m := New()
	res := PageResource(1)
	if err := m.Acquire(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, res, Shared); err != nil {
		t.Fatal(err)
	}
	if !m.Holds(1, res, Shared) || !m.Holds(2, res, Shared) {
		t.Fatalf("both readers should hold the lock")
	}
}

func TestExclusiveBlocksAndWakes(t *testing.T) {
	m := New()
	res := PageResource(1)
	if err := m.Acquire(1, res, Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, res, Exclusive) }()
	select {
	case <-done:
		t.Fatalf("conflicting X request must block")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("woken waiter got error: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatalf("waiter never woke up")
	}
	if !m.Holds(2, res, Exclusive) {
		t.Fatalf("txn 2 should now hold X")
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := New()
	res := PageResource(3)
	for i := 0; i < 3; i++ {
		if err := m.Acquire(1, res, Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	// Shared request under an own X lock is also a no-op.
	if err := m.Acquire(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	if !m.Holds(1, res, Exclusive) {
		t.Fatalf("X lock lost")
	}
}

func TestUpgrade(t *testing.T) {
	m := New()
	res := PageResource(4)
	if err := m.Acquire(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, res, Exclusive); err != nil {
		t.Fatal(err)
	}
	if !m.Holds(1, res, Exclusive) {
		t.Fatalf("upgrade failed")
	}
}

func TestUpgradeDeadlockDetected(t *testing.T) {
	// The classic upgrade deadlock: two readers both request X.  One of
	// them must be told ErrDeadlock rather than waiting forever.
	m := New()
	res := PageResource(5)
	if err := m.Acquire(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, res, Shared); err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() { first <- m.Acquire(1, res, Exclusive) }()
	time.Sleep(20 * time.Millisecond) // let txn 1 enqueue
	err := m.Acquire(2, res, Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("second upgrader: err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2)
	if err := <-first; err != nil {
		t.Fatalf("surviving upgrader got %v", err)
	}
}

func TestTwoResourceDeadlock(t *testing.T) {
	m := New()
	a, b := PageResource(10), PageResource(11)
	if err := m.Acquire(1, a, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, b, Exclusive); err != nil {
		t.Fatal(err)
	}
	block := make(chan error, 1)
	go func() { block <- m.Acquire(1, b, Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	err := m.Acquire(2, a, Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	// Victim aborts; survivor proceeds.
	m.ReleaseAll(2)
	if err := <-block; err != nil {
		t.Fatalf("survivor got %v", err)
	}
}

func TestRecordGranularityIndependent(t *testing.T) {
	m := New()
	// Two records of the same page lock independently.
	if err := m.Acquire(1, RecordResource(7, 0), Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, RecordResource(7, 1), Exclusive); err != nil {
		t.Fatal(err)
	}
	// But the same record conflicts.
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, RecordResource(7, 0), Shared) }()
	select {
	case <-done:
		t.Fatalf("conflicting record lock must block")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestFIFONoStarvation(t *testing.T) {
	// A shared request arriving after a queued exclusive request must not
	// jump the queue.
	m := New()
	res := PageResource(20)
	if err := m.Acquire(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	xDone := make(chan error, 1)
	go func() { xDone <- m.Acquire(2, res, Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	sDone := make(chan error, 1)
	go func() { sDone <- m.Acquire(3, res, Shared) }()
	select {
	case <-sDone:
		t.Fatalf("late shared request must queue behind the exclusive waiter")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-xDone; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-sDone; err != nil {
		t.Fatal(err)
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	m := New()
	res := PageResource(30)
	if err := m.Acquire(1, res, Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, res, Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	m.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := m.Acquire(3, res, Shared); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close: err = %v, want ErrClosed", err)
	}
}

func TestHeldResources(t *testing.T) {
	m := New()
	if err := m.Acquire(1, PageResource(1), Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, RecordResource(2, 3), Exclusive); err != nil {
		t.Fatal(err)
	}
	if got := len(m.HeldResources(1)); got != 2 {
		t.Fatalf("held %d resources, want 2", got)
	}
	m.ReleaseAll(1)
	if got := len(m.HeldResources(1)); got != 0 {
		t.Fatalf("held %d resources after release, want 0", got)
	}
}

func TestReleasedBlockerLeavesNoEdge(t *testing.T) {
	// Txn 2 queues behind two readers; one of them finishes and starts
	// over.  Its next request must wait on txn 2's lock, not be told it
	// deadlocks with a waits-for edge that ended when it released.
	m := New()
	a, b := PageResource(20), PageResource(21)
	for _, tx := range []page.TxID{1, 3} {
		if err := m.Acquire(tx, a, Shared); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Acquire(2, b, Exclusive); err != nil {
		t.Fatal(err)
	}
	writer := make(chan error, 1)
	go func() { writer <- m.Acquire(2, a, Exclusive) }()
	time.Sleep(20 * time.Millisecond) // let txn 2 enqueue behind 1 and 3
	m.ReleaseAll(1)
	reader := make(chan error, 1)
	go func() { reader <- m.Acquire(1, b, Shared) }()
	select {
	case err := <-reader:
		t.Fatalf("request behind txn 2's X lock returned %v, want it to wait", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(3)
	if err := <-writer; err != nil {
		t.Fatalf("txn 2 got %v", err)
	}
	m.ReleaseAll(2)
	if err := <-reader; err != nil {
		t.Fatalf("txn 1 got %v", err)
	}
}

func TestConcurrentStress(t *testing.T) {
	// Many goroutines acquire two random page locks in order (no
	// deadlock possible) and release; everything must terminate.
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tx := page.TxID(g + 1)
			for i := 0; i < 50; i++ {
				a := page.PageID((g + i) % 5)
				b := a + 1
				if err := m.Acquire(tx, PageResource(a), Shared); err != nil {
					t.Error(err)
					return
				}
				if err := m.Acquire(tx, PageResource(b), Exclusive); err != nil && !errors.Is(err, ErrDeadlock) {
					t.Error(err)
					return
				}
				m.ReleaseAll(tx)
			}
		}(g)
	}
	wg.Wait()
}

// Holds reports whether tx currently holds res in at least the given
// mode.
func (m *Manager) Holds(tx page.TxID, res Resource, mode Mode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.locks[res]
	if st == nil {
		return false
	}
	i := st.find(tx)
	if i < 0 {
		return false
	}
	held := st.holders[i].mode
	return held == Exclusive || held == mode
}
