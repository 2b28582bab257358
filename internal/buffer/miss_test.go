package buffer

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/page"
)

// The read of a miss runs with the pool mutex released.  These tests hold
// a fetch open on a channel and do everything else meanwhile; nothing in
// them sleeps.  A pool that kept its mutex across the fetch deadlocks in
// them, which the guard below turns into a failure.

// deadlockGuard bounds every wait: generous, and only ever reached by a
// pool that is stuck.
const deadlockGuard = 10 * time.Second

// await fails the test if done is not closed within the guard.
func await(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(deadlockGuard):
		t.Fatalf("%s did not finish while a miss was in flight: the pool is closed during a fetch", what)
	}
}

// gatedStore is a page store whose fetch of a page with a gate
// announces itself and then waits for the gate to be closed.
type gatedStore struct {
	mu      sync.Mutex
	pages   map[page.PageID]page.Buf
	gates   map[page.PageID]chan struct{}
	entered chan page.PageID
	fail    map[page.PageID]error
	panics  map[page.PageID]bool
}

func newGatedStore(n, size int) *gatedStore {
	s := &gatedStore{
		pages:   make(map[page.PageID]page.Buf),
		gates:   make(map[page.PageID]chan struct{}),
		entered: make(chan page.PageID, n), // one announcement per page at most
		fail:    make(map[page.PageID]error),
		panics:  make(map[page.PageID]bool),
	}
	for i := 0; i < n; i++ {
		b := page.NewBuf(size)
		b[0] = byte(i)
		s.pages[page.PageID(i)] = b
	}
	return s
}

// awaitEntered returns the page whose gated fetch has started.
func (s *gatedStore) awaitEntered(t *testing.T) page.PageID {
	t.Helper()
	select {
	case p := <-s.entered:
		return p
	case <-time.After(deadlockGuard):
		t.Fatal("a miss did not reach its fetch while another was in flight: the pool is closed during a fetch")
		return 0
	}
}

func (s *gatedStore) gate(p page.PageID) chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := make(chan struct{})
	s.gates[p] = g
	return g
}

func (s *gatedStore) fetchInto(p page.PageID, dst page.Buf) error {
	s.mu.Lock()
	g, err, boom := s.gates[p], s.fail[p], s.panics[p]
	src := s.pages[p]
	s.mu.Unlock()
	if g != nil {
		s.entered <- p
		<-g
	}
	if boom {
		panic("injected crash inside the fetch")
	}
	if err != nil {
		return err
	}
	copy(dst, src)
	return nil
}

func (s *gatedStore) writeBack(f *Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages[f.Page] = f.Data.Clone()
	return nil
}

func newGatedPool(s *gatedStore, capacity int) *Pool {
	bp := New(capacity, 64, nil, s.writeBack)
	bp.FetchInto = s.fetchInto
	return bp
}

func mustGet(t *testing.T, bp *Pool, p page.PageID) *Frame {
	t.Helper()
	f, err := bp.Get(p, nil)
	if err != nil {
		t.Fatalf("get page %d: %v", p, err)
	}
	return f
}

func TestPoolStaysOpenDuringMiss(t *testing.T) {
	s := newGatedStore(10, 64)
	bp := newGatedPool(s, 6)
	for _, p := range []page.PageID{1, 2} {
		mustGet(t, bp, p)
		bp.Unpin(p)
	}

	release := s.gate(0)
	missed := make(chan struct{})
	go func() {
		defer close(missed)
		if f, err := bp.Get(0, nil); err != nil {
			t.Errorf("gated miss: %v", err)
		} else if f.Data[0] != 0 {
			t.Errorf("gated miss returned the wrong page")
		}
	}()
	if p := s.awaitEntered(t); p != 0 {
		t.Fatalf("fetch of page %d entered, want 0", p)
	}

	// Page 0's fetch is now in flight and stays there until released.
	// A hit and an unpin of a resident page, a Modify and a FlushPage
	// of another, and a miss on a third page all go through meanwhile.
	others := make(chan struct{})
	go func() {
		defer close(others)
		if _, err := bp.Get(1, nil); err != nil {
			t.Errorf("hit during a miss: %v", err)
			return
		}
		bp.Unpin(1)
		f, err := bp.Get(2, nil)
		if err != nil {
			t.Errorf("hit during a miss: %v", err)
			return
		}
		bp.Modify(f, 7)
		f.Data[1] = 0xEE
		bp.Unpin(2)
		if err := bp.FlushPage(2); err != nil {
			t.Errorf("flush during a miss: %v", err)
		}
		if bp.Frame(2).Dirty {
			t.Errorf("flush during a miss left the frame dirty")
		}
	}()
	second := make(chan struct{})
	go func() {
		defer close(second)
		if f, err := bp.Get(3, nil); err != nil {
			t.Errorf("second miss during a miss: %v", err)
		} else if f.Data[0] != 3 {
			t.Errorf("second miss returned the wrong page")
		}
	}()
	await(t, others, "hit, unpin, Modify and FlushPage")
	await(t, second, "a miss on another page")
	select {
	case <-missed:
		t.Fatal("the gated miss finished before its fetch was released")
	default:
	}
	if !bp.Contains(0) || bp.Len() != 4 {
		t.Fatalf("a frame in flight must be resident: contains=%v len=%d", bp.Contains(0), bp.Len())
	}

	close(release)
	await(t, missed, "the released miss")
	bp.Unpin(0)
	bp.Unpin(3)
	if st := bp.Stats(); st.Misses != 4 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 4 misses / 2 hits", st)
	}
}

// poolShape is what a failed miss must leave as it found it.
type poolShape struct {
	resident []page.PageID
	free     []*Frame
	stats    Stats
}

func shapeOf(bp *Pool) poolShape {
	bp.mu.Lock()
	free := append([]*Frame(nil), bp.free...)
	bp.mu.Unlock()
	return poolShape{resident: bp.Resident(), free: free, stats: bp.Stats()}
}

func TestFailedMissLeavesNothingBehind(t *testing.T) {
	boom := errors.New("injected read failure")
	for _, tc := range []struct {
		name   string
		panics bool
	}{{"error", false}, {"panic", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := newGatedStore(10, 64)
			bp := newGatedPool(s, 4)
			for _, p := range []page.PageID{1, 2, 3} {
				mustGet(t, bp, p)
				bp.Unpin(p)
			}
			bp.Discard(2) // a frame on the free list for the miss to draw
			before := shapeOf(bp)

			s.fail[0], s.panics[0] = boom, tc.panics
			func() {
				defer func() {
					if r := recover(); (r != nil) != tc.panics {
						t.Fatalf("recovered %v, want a panic: %v", r, tc.panics)
					}
				}()
				if _, err := bp.Get(0, nil); !errors.Is(err, boom) {
					t.Fatalf("err = %v, want the injected failure", err)
				}
			}()

			after := shapeOf(bp)
			if bp.Len() != 2 || bp.Contains(0) {
				t.Fatalf("failed miss left page 0 behind: len=%d", bp.Len())
			}
			if len(after.resident) != len(before.resident) {
				t.Fatalf("LRU ring = %v, want %v", after.resident, before.resident)
			}
			for i := range before.resident {
				if after.resident[i] != before.resident[i] {
					t.Fatalf("LRU ring = %v, want %v", after.resident, before.resident)
				}
			}
			if len(after.free) != 1 || after.free[0] != before.free[0] {
				t.Fatalf("free list = %v, want the one frame it held", after.free)
			}
			if after.free[0].pins != 0 {
				t.Fatalf("the frame went back pinned")
			}
			if after.stats.Misses != before.stats.Misses+1 {
				t.Fatalf("misses = %d, want the failed one counted", after.stats.Misses)
			}

			// The mutex is free and the page is fetchable again.
			delete(s.fail, 0)
			delete(s.panics, 0)
			f := mustGet(t, bp, 0)
			if f.Data[0] != 0 || f.Dirty || len(f.ModifierList()) != 0 || f != before.free[0] {
				t.Fatalf("refetch after a failed miss: frame %+v", f)
			}
			bp.Unpin(0)
		})
	}
}

// DropAll (a crash) while a miss is in flight: the read may still succeed,
// but its frame is no longer the pool's, so Get must not hand it out.
func TestDropAllDuringMiss(t *testing.T) {
	s := newGatedStore(10, 64)
	bp := newGatedPool(s, 4)
	mustGet(t, bp, 1)
	bp.Unpin(1)

	release := s.gate(0)
	missed := make(chan error, 1)
	go func() {
		_, err := bp.Get(0, nil)
		missed <- err
	}()
	s.awaitEntered(t)
	bp.DropAll()
	close(release)
	select {
	case err := <-missed:
		if !errors.Is(err, ErrDropped) {
			t.Fatalf("err = %v, want ErrDropped", err)
		}
	case <-time.After(deadlockGuard):
		t.Fatal("the miss did not return after DropAll")
	}
	if bp.Len() != 0 || len(bp.Resident()) != 0 {
		t.Fatalf("dropped pool holds %d frame(s), ring %v", bp.Len(), bp.Resident())
	}
	// The pool works on: the page is fetched afresh and can be unpinned.
	s.mu.Lock()
	delete(s.gates, 0)
	s.mu.Unlock()
	if f := mustGet(t, bp, 0); f.Data[0] != 0 {
		t.Fatalf("refetch after DropAll returned the wrong page")
	}
	bp.Unpin(0)
}

func TestCapacityHoldsWithMissesInFlight(t *testing.T) {
	const capacity = 3
	s := newGatedStore(10, 64)
	bp := newGatedPool(s, capacity)
	release := make([]chan struct{}, capacity)
	var wg sync.WaitGroup
	for p := range release {
		release[p] = s.gate(page.PageID(p))
		wg.Add(1)
		go func(p page.PageID) {
			defer wg.Done()
			if _, err := bp.Get(p, nil); err != nil {
				t.Errorf("miss %d: %v", p, err)
			}
		}(page.PageID(p))
	}
	for range release {
		s.awaitEntered(t)
	}
	// Every frame is loading, hence pinned: one more page has nowhere to
	// go, and says so instead of growing the pool or evicting a load.
	if n := bp.Len(); n != capacity {
		t.Fatalf("len = %d with %d misses in flight", n, capacity)
	}
	if _, err := bp.Get(7, nil); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("err = %v, want ErrNoFrames", err)
	}
	if n := bp.Len(); n != capacity {
		t.Fatalf("len = %d after the refused miss", n)
	}
	for _, g := range release {
		close(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	await(t, done, "the released misses")
	for p := range release {
		if f := bp.Frame(page.PageID(p)); f == nil || f.Data[0] != byte(p) {
			t.Fatalf("page %d not loaded", p)
		}
		bp.Unpin(page.PageID(p))
	}
	mustGet(t, bp, 7) // evicts one of them
	if n := bp.Len(); n != capacity {
		t.Fatalf("len = %d, want %d", n, capacity)
	}
}
