package buffer

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/page"
)

// Resident returns the resident page ids in LRU order (most recent
// first), for the tests that check the ring.
func (bp *Pool) Resident() []page.PageID {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	out := make([]page.PageID, 0, len(bp.frames))
	for f := bp.lru.next; f != &bp.lru; f = f.next {
		out = append(out, f.Page)
	}
	return out
}

// fakeStore is a trivial page store for exercising the pool.
type fakeStore struct {
	pages      map[page.PageID]page.Buf
	fetches    int
	writeBacks []page.PageID
	failWrites bool
}

func newFakeStore(n, size int) *fakeStore {
	s := &fakeStore{pages: make(map[page.PageID]page.Buf)}
	for i := 0; i < n; i++ {
		b := page.NewBuf(size)
		b[0] = byte(i)
		s.pages[page.PageID(i)] = b
	}
	return s
}

func (s *fakeStore) fetch(p page.PageID) (page.Buf, error) {
	s.fetches++
	b, ok := s.pages[p]
	if !ok {
		return nil, fmt.Errorf("no page %d", p)
	}
	return b.Clone(), nil
}

func (s *fakeStore) writeBack(f *Frame) error {
	if s.failWrites {
		return errors.New("injected write failure")
	}
	s.pages[f.Page] = f.Data.Clone()
	s.writeBacks = append(s.writeBacks, f.Page)
	return nil
}

func newPool(s *fakeStore, capacity int) *Pool {
	return New(capacity, 64, s.fetch, s.writeBack)
}

func TestGetHitMiss(t *testing.T) {
	s := newFakeStore(10, 64)
	bp := newPool(s, 4)
	f, err := bp.Get(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Data[0] != 3 {
		t.Fatalf("wrong page contents")
	}
	bp.Unpin(3)
	if _, err := bp.Get(3, nil); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(3)
	st := bp.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if s.fetches != 1 {
		t.Fatalf("fetches = %d, want 1", s.fetches)
	}
}

func TestLRUEviction(t *testing.T) {
	s := newFakeStore(10, 64)
	bp := newPool(s, 3)
	for _, p := range []page.PageID{0, 1, 2} {
		if _, err := bp.Get(p, nil); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(p)
	}
	// Touch 0 so 1 becomes LRU.
	if _, err := bp.Get(0, nil); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(0)
	if _, err := bp.Get(3, nil); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(3)
	if bp.Contains(1) {
		t.Fatalf("page 1 (LRU) should have been evicted")
	}
	for _, p := range []page.PageID{0, 2, 3} {
		if !bp.Contains(p) {
			t.Fatalf("page %d should be resident", p)
		}
	}
}

func TestStealWritesBackDirtyVictim(t *testing.T) {
	s := newFakeStore(10, 64)
	bp := newPool(s, 2)
	f, err := bp.Get(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bp.Modify(f, 7)
	f.Data[1] = 0xEE
	bp.Unpin(0)
	if _, err := bp.Get(1, nil); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(1)
	// Fill the pool: page 0 is LRU and dirty, so it must be stolen.
	if _, err := bp.Get(2, nil); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(2)
	if len(s.writeBacks) != 1 || s.writeBacks[0] != 0 {
		t.Fatalf("writeBacks = %v, want [0]", s.writeBacks)
	}
	if s.pages[0][1] != 0xEE {
		t.Fatalf("stolen page not persisted")
	}
	if st := bp.Stats(); st.Steals != 1 {
		t.Fatalf("steals = %d, want 1", st.Steals)
	}
}

func TestPinnedFramesNotEvicted(t *testing.T) {
	s := newFakeStore(10, 64)
	bp := newPool(s, 2)
	if _, err := bp.Get(0, nil); err != nil { // stays pinned
		t.Fatal(err)
	}
	if _, err := bp.Get(1, nil); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(1)
	if _, err := bp.Get(2, nil); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(2)
	if !bp.Contains(0) {
		t.Fatalf("pinned page 0 must not be evicted")
	}
	if bp.Contains(1) {
		t.Fatalf("unpinned page 1 should have been the victim")
	}
	// With every frame pinned, Get must fail rather than evict.
	if _, err := bp.Get(2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Get(3, nil); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("err = %v, want ErrNoFrames", err)
	}
}

func TestDiscardOfPinnedFramePanics(t *testing.T) {
	// A removed frame is refilled by the next miss, so a holder's pin
	// must stop it leaving the pool.
	s := newFakeStore(10, 64)
	bp := newPool(s, 4)
	if _, err := bp.Get(1, nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Discard of a pinned frame must panic")
		}
	}()
	bp.Discard(1)
}

func TestFlushAllWithFilter(t *testing.T) {
	s := newFakeStore(10, 64)
	bp := newPool(s, 5)
	for _, p := range []page.PageID{0, 1, 2} {
		f, err := bp.Get(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		bp.Modify(f, page.TxID(p+1))
		f.Data[2] = 0xAB
		bp.Unpin(p)
	}
	err := bp.FlushAll(func(f *Frame) bool {
		_, ok := f.Modifiers[2]
		return ok // only txn 2's page (page 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.writeBacks) != 1 || s.writeBacks[0] != 1 {
		t.Fatalf("writeBacks = %v, want [1]", s.writeBacks)
	}
	if err := bp.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	if len(s.writeBacks) != 3 {
		t.Fatalf("writeBacks = %v, want all three pages", s.writeBacks)
	}
	if len(bp.DirtyPages()) != 0 {
		t.Fatalf("dirty pages remain after FlushAll")
	}
}

func TestDiscardAndDropAll(t *testing.T) {
	s := newFakeStore(10, 64)
	bp := newPool(s, 4)
	f, err := bp.Get(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bp.Modify(f, 1)
	f.Data[0] = 111
	bp.Unpin(0)
	bp.Discard(0)
	if bp.Contains(0) {
		t.Fatalf("discarded page still resident")
	}
	if len(s.writeBacks) != 0 {
		t.Fatalf("discard must not write back")
	}
	for _, p := range []page.PageID{1, 2} {
		if _, err := bp.Get(p, nil); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(p)
	}
	bp.DropAll()
	if bp.Len() != 0 {
		t.Fatalf("DropAll left %d resident pages", bp.Len())
	}
}

func TestWriteBackFailurePropagates(t *testing.T) {
	s := newFakeStore(10, 64)
	bp := newPool(s, 1)
	f, err := bp.Get(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bp.Modify(f, 1)
	f.Data[0] = 9
	bp.Unpin(0)
	s.failWrites = true
	if _, err := bp.Get(1, nil); err == nil {
		t.Fatalf("steal failure must propagate from Get")
	}
	if err := bp.FlushPage(0); err == nil {
		t.Fatalf("flush failure must propagate")
	}
}

func TestResidentOrder(t *testing.T) {
	s := newFakeStore(10, 64)
	bp := newPool(s, 4)
	for _, p := range []page.PageID{4, 5, 6} {
		if _, err := bp.Get(p, nil); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(p)
	}
	got := bp.Resident()
	want := []page.PageID{6, 5, 4} // MRU first
	if len(got) != len(want) {
		t.Fatalf("resident = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resident = %v, want %v", got, want)
		}
	}
}

func TestModifiersAccumulateAndClearOnWriteBack(t *testing.T) {
	s := newFakeStore(10, 64)
	bp := newPool(s, 4)
	f, err := bp.Get(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bp.Modify(f, 1)
	bp.Modify(f, 2)
	bp.Unpin(0)
	if len(f.Modifiers) != 2 {
		t.Fatalf("modifiers = %v, want two", f.ModifierList())
	}
	if err := bp.FlushPage(0); err != nil {
		t.Fatal(err)
	}
	if len(f.Modifiers) != 0 {
		t.Fatalf("modifiers must clear after write back")
	}
}

// Len returns the number of resident pages.
func (bp *Pool) Len() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}
