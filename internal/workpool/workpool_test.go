package workpool

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestSequentialOrder(t *testing.T) {
	var got []int
	err := Run(1, 5, func(i int) error {
		got = append(got, i)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("sequential mode out of order: %v", got)
		}
	}
}

func TestSequentialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var calls int
	err := Run(1, 10, func(i int) error {
		calls++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 4 {
		t.Fatalf("err=%v calls=%d, want boom after 4 calls", err, calls)
	}
}

func TestParallelRunsAll(t *testing.T) {
	var count atomic.Int64
	seen := make([]atomic.Bool, 100)
	if err := Run(8, 100, func(i int) error {
		count.Add(1)
		if seen[i].Swap(true) {
			t.Errorf("index %d ran twice", i)
		}
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count.Load() != 100 {
		t.Fatalf("ran %d of 100", count.Load())
	}
}

func TestParallelErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	err := Run(4, 10000, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want boom", err)
	}
	if calls.Load() == 10000 {
		t.Fatalf("error did not cancel remaining work")
	}
}

// TestLowestPanicWins: when two indices panic, the lower index's value is
// re-raised, whichever panicked first.  Index 5 panics at once; index 2
// waits until it has begun to, then panics too.  The pause after the wait
// only lets the pool record index 5's panic first, so that a rule keeping
// the first panic observed fails here every time.
func TestLowestPanicWins(t *testing.T) {
	for range 20 {
		first := make(chan struct{})
		func() {
			defer func() {
				if r := recover(); r != "index 2" {
					t.Fatalf("recovered %v, want index 2's panic", r)
				}
			}()
			Run(8, 8, func(i int) error {
				switch i {
				case 2:
					<-first
					time.Sleep(time.Millisecond)
					panic("index 2")
				case 5:
					close(first)
					panic("index 5")
				}
				return nil
			})
			t.Fatalf("panic swallowed")
		}()
	}
}

func TestPanicPropagates(t *testing.T) {
	sentinel := "crash point"
	defer func() {
		if r := recover(); r != sentinel {
			t.Fatalf("recovered %v, want sentinel", r)
		}
	}()
	Run(4, 50, func(i int) error {
		if i == 7 {
			panic(sentinel)
		}
		return nil
	})
	t.Fatalf("panic swallowed")
}
