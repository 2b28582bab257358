package latch

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/page"
)

func TestAscendingOrderEnforced(t *testing.T) {
	tab := New(8)
	h := tab.NewHeld()
	defer h.ReleaseAll()
	h.Acquire(3)
	defer func() {
		if recover() == nil {
			t.Fatalf("blocking acquire of a lower group while holding a higher one must panic")
		}
	}()
	h.Acquire(1)
}

func TestReacquireHeldGroupIsNoop(t *testing.T) {
	tab := New(4)
	h := tab.NewHeld()
	defer h.ReleaseAll()
	h.Acquire(2)
	h.Acquire(2) // held set filters it: no self-deadlock, no panic
	if got := h.Groups(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("held set after re-acquire: %v, want [2]", got)
	}
	h.Acquire(2, 3) // mixed request: 2 skipped, 3 taken in order
	if !h.Holds(3) {
		t.Fatalf("mixed re-acquire dropped the new group")
	}
}

func TestMultiAcquireSortsAndDedups(t *testing.T) {
	tab := New(16)
	h := tab.NewHeld()
	defer h.ReleaseAll()
	h.Acquire(7, 2, 11, 2, 7)
	want := []page.GroupID{2, 7, 11}
	got := h.Groups()
	if len(got) != len(want) {
		t.Fatalf("held %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("held %v, want %v", got, want)
		}
	}
	// Acquiring a superset skips the held ones and stays ordered.
	h.Acquire(12, 11, 15)
	if !h.Holds(12) || !h.Holds(15) || !h.Holds(2) {
		t.Fatalf("superset acquire lost groups: %v", h.Groups())
	}
}

func TestTryAcquireOutOfOrder(t *testing.T) {
	tab := New(8)
	h := tab.NewHeld()
	defer h.ReleaseAll()
	h.Acquire(5)
	if !h.TryAcquire(1) {
		t.Fatalf("TryAcquire of a free lower group must succeed")
	}
	if !h.Holds(1) || !h.Holds(5) {
		t.Fatalf("held set wrong: %v", h.Groups())
	}
	if h.TryAcquire(5) {
		t.Fatalf("TryAcquire of an already-held group must fail, not self-deadlock")
	}
	h.Release(1)
	if h.Holds(1) {
		t.Fatalf("Release(1) did not remove the group")
	}
	// Another operation can now take group 1 without blocking.
	h2 := tab.NewHeld()
	defer h2.ReleaseAll()
	if !h2.TryAcquire(1) {
		t.Fatalf("released latch still held")
	}
}

func TestTryAcquireContended(t *testing.T) {
	tab := New(4)
	h1 := tab.NewHeld()
	h1.Acquire(2)
	h2 := tab.NewHeld()
	if h2.TryAcquire(2) {
		t.Fatalf("TryAcquire of a latch held by another operation must fail")
	}
	h1.ReleaseAll()
	if !h2.TryAcquire(2) {
		t.Fatalf("TryAcquire after release must succeed")
	}
	h2.ReleaseAll()
}

// TestNoLeakAfterPanic models a fault-injection crash point firing while
// an operation holds latches: the deferred ReleaseAll must leave the
// table fully unlocked.
func TestNoLeakAfterPanic(t *testing.T) {
	tab := New(8)
	func() {
		defer func() { recover() }()
		h := tab.NewHeld()
		defer h.ReleaseAll()
		h.Acquire(1, 3, 6)
		h.TryAcquire(0)
		panic("injected crash point")
	}()
	// Every latch must be free again: a fresh operation can block-acquire
	// the whole table.
	done := make(chan struct{})
	go func() {
		h := tab.NewHeld()
		h.Acquire(0, 1, 2, 3, 4, 5, 6, 7)
		h.ReleaseAll()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("latch leaked after panic: table not fully acquirable")
	}
}

// TestReleaseAllIdempotent: double release must not unlock latches the
// operation no longer holds (which would corrupt another holder).
func TestReleaseAllIdempotent(t *testing.T) {
	tab := New(4)
	h := tab.NewHeld()
	h.Acquire(1)
	h.ReleaseAll()
	h.ReleaseAll() // must be a no-op
	h.Release(1)   // ditto
	h2 := tab.NewHeld()
	h2.Acquire(1) // must not find a poisoned mutex
	// If the double release had unlocked an unheld mutex, h3 could now
	// acquire group 1 concurrently with h2.
	h3 := tab.NewHeld()
	if h3.TryAcquire(1) {
		t.Fatalf("double release broke mutual exclusion")
	}
	h2.ReleaseAll()
}

// TestConcurrentStress drives many goroutines through random latch
// protocols and checks mutual exclusion (at most one holder per group)
// and progress (no lost wakeups: every goroutine finishes).
func TestConcurrentStress(t *testing.T) {
	const (
		goroutines = 8
		iterations = 3000
		numGroups  = 12
	)
	tab := New(numGroups)
	inCrit := make([]int32, numGroups) // guarded by the latch under test
	var wg sync.WaitGroup
	var violations atomic.Int64
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iterations; i++ {
				h := tab.NewHeld()
				n := 1 + rng.Intn(3)
				set := make([]page.GroupID, n)
				for j := range set {
					set[j] = page.GroupID(rng.Intn(numGroups))
				}
				h.Acquire(set...)
				// Occasionally grab an out-of-order extra via TryAcquire.
				if rng.Intn(4) == 0 {
					h.TryAcquire(page.GroupID(rng.Intn(numGroups)))
				}
				for _, g := range h.Groups() {
					inCrit[g]++
					if inCrit[g] != 1 {
						violations.Add(1)
					}
				}
				for _, g := range h.Groups() {
					inCrit[g]--
				}
				h.ReleaseAll()
			}
		}(int64(w) * 7919)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("stress did not finish: deadlock or lost wakeup")
	}
	if n := violations.Load(); n != 0 {
		t.Fatalf("mutual exclusion violated %d times", n)
	}
}

func TestOneGroupAcquireAllocatesNothing(t *testing.T) {
	tab := New(8)
	h := tab.NewHeld()
	// One group, then a second one above it, then a re-acquire of a held
	// group: the per-page paths of the engine.
	if n := testing.AllocsPerRun(100, func() {
		h.Acquire(3)
		h.Acquire(5)
		h.Acquire(3)
		h.ReleaseAll()
	}); n != 0 {
		t.Fatalf("one-group Acquire allocates %.1f times a run, want 0", n)
	}
}

// BenchmarkAcquireOne times the engine's per-page latch step: a held set,
// one group latched, released.
func BenchmarkAcquireOne(b *testing.B) {
	tab := New(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := tab.NewHeld()
		h.Acquire(page.GroupID(i % 64))
		h.ReleaseAll()
	}
}

// Groups returns the held set in ascending order (shared slice; callers
// must not modify it).
func (h *Held) Groups() []page.GroupID { return h.groups }
