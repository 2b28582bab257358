package disk

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/page"
)

const (
	qtBlocks    = 64
	qtBlockSize = 64
)

func queueDisk() *Disk { return New(0, qtBlocks, qtBlockSize) }

func payload(b byte) page.Buf {
	buf := make(page.Buf, qtBlockSize)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

// recorder is an injector that records the dispatch order of accesses,
// each with a copy of its payload.
type recorder struct {
	mu   sync.Mutex
	seen []Access
	// panicAt, when non-nil, panics with panicVal on the first matching
	// access (a crash point firing as the transfer runs).
	panicAt  func(Access) bool
	panicVal any
}

func (r *recorder) Observe(a Access) Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.panicAt != nil && r.panicAt(a) {
		r.panicAt = nil
		return Decision{Panic: r.panicVal}
	}
	a.Data = append(page.Buf(nil), a.Data...)
	r.seen = append(r.seen, a)
	return Decision{}
}

func (r *recorder) indexOf(op Op, block int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, a := range r.seen {
		if a.Op == op && a.Block == block {
			return i
		}
	}
	return -1
}

// outcome is what one staged Do returned, or the value it panicked with.
type outcome struct {
	err      error
	panicked any
}

// stage issues r on a goroutine of its own and returns once that caller
// waits in the drive's queue, so on a frozen drive callers staged one
// after another arrive in the order staged.  The queue must have a free
// slot.
func stage(t *testing.T, d *Disk, r Request) <-chan outcome {
	t.Helper()
	n := d.QueueLen()
	c := make(chan outcome, 1)
	go func() {
		var o outcome
		defer func() {
			o.panicked = recover()
			c <- o
		}()
		_, _, _, o.err = d.Do(r)
	}()
	for deadline := time.Now().Add(10 * time.Second); d.QueueLen() == n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("staged %v of block %d never queued", r.Op, r.Block)
		}
	}
	return c
}

// TestQueueLookOrder drives the picker over a fixed set: LOOK continues
// in its direction from the head and reverses only when nothing is left
// ahead; window 0 is strict FIFO.
func TestQueueLookOrder(t *testing.T) {
	blocks := []int{5, 30, 2, 18, 40, 10}
	for _, tc := range []struct {
		window int
		want   []int
	}{
		{100, []int{10, 18, 30, 40, 5, 2}},
		{0, blocks},
	} {
		q := queue{window: tc.window, pos: 10, dir: 1}
		for i, b := range blocks {
			q.items = append(q.items, waiter{block: b, ticket: uint64(i + 1)})
		}
		var got []int
		for len(q.items) > 0 {
			got = append(got, q.pick().block)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("window %d: dispatch order %v, want %v", tc.window, got, tc.want)
		}
	}
}

// TestQueueStarvationBound replays scripted arrival sequences through
// the picker, the queue kept at its depth, and asserts the aging rule's
// bound: no waiter is passed over more than window+depth times.  One
// script is adversarial — arrivals always just ahead of the head, one
// waiter behind it — and there the window alone gets the waiter served.
func TestQueueStarvationBound(t *testing.T) {
	const (
		depth    = 32
		window   = 8
		arrivals = 5000
	)
	run := func(next func(arrived int) int) (maxSkips int) {
		q := &queue{window: window, pos: 1, dir: 1}
		for arrived := 0; arrived < arrivals || len(q.items) > 0; {
			for ; arrived < arrivals && len(q.items) < depth; arrived++ {
				q.items = append(q.items, waiter{block: next(arrived)})
			}
			maxSkips = max(maxSkips, q.pick().skips)
		}
		return maxSkips
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if got := run(func(int) int { return rng.Intn(qtBlocks) }); got > window+depth {
			t.Errorf("seed %d: a waiter was bypassed %d times; the bound is window+depth = %d", seed, got, window+depth)
		}
	}
	// The first waiter sits behind the ascending head; every later one
	// lands just ahead of it, so LOOK alone would never turn round.
	got := run(func(arrived int) int {
		if arrived == 0 {
			return 0
		}
		return 1 + arrived
	})
	if got != window {
		t.Fatalf("adversarial script: the waiter behind the head was bypassed %d times, want exactly window = %d", got, window)
	}
}

// TestQueueExactlyOnceCompletions runs a mixed concurrent load through
// Do and asserts every request completes exactly once: every caller
// returns, and the drive's charged transfer counters match the requests.
func TestQueueExactlyOnceCompletions(t *testing.T) {
	const (
		depth   = 16
		workers = 8
		perW    = 250
	)
	d := queueDisk()
	d.StartQueue(depth, 8)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perW; i++ {
				block := rng.Intn(qtBlocks)
				var err error
				if rng.Intn(2) == 0 {
					err = d.Write(block, payload(byte(i)), Meta{})
				} else {
					_, _, err = d.Read(block)
				}
				if err != nil {
					t.Errorf("io: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := d.QueueLen(); got != 0 {
		t.Fatalf("%d callers still queued after every caller returned", got)
	}
	st := d.Stats()
	if total := int64(workers * perW); st.Reads+st.Writes != total {
		t.Fatalf("charged transfers = %d, want %d (each request exactly once)", st.Reads+st.Writes, total)
	}
}

// TestQueueDepthLimit holds a frozen queue full and asserts that a
// caller beyond the depth waits outside it until a slot frees.
func TestQueueDepthLimit(t *testing.T) {
	const depth = 4
	d := queueDisk()
	d.StartQueue(depth, 8)
	d.Freeze()
	var held []<-chan outcome
	for i := 0; i < depth; i++ {
		held = append(held, stage(t, d, Request{Op: OpWrite, Block: i, Data: payload(1)}))
	}
	extra := make(chan error, 1)
	go func() { extra <- d.Write(depth, payload(2), Meta{}) }()
	select {
	case <-extra:
		t.Fatal("a caller beyond the depth limit did not wait")
	case <-time.After(50 * time.Millisecond):
	}
	if got := d.QueueLen(); got != depth {
		t.Fatalf("queue length = %d, want %d", got, depth)
	}
	d.Thaw()
	if err := <-extra; err != nil {
		t.Fatalf("unblocked write: %v", err)
	}
	for _, c := range held {
		if o := <-c; o.err != nil || o.panicked != nil {
			t.Fatalf("held write: %v, panic %v", o.err, o.panicked)
		}
	}
}

// TestQueueSameBlockFIFO stages writes to one block interleaved with
// writes to others and asserts, at several windows, that the block's
// writes reach the drive in submission order and the platter keeps the
// last payload.
func TestQueueSameBlockFIFO(t *testing.T) {
	const hot = 20
	for _, window := range []int{0, 2, 8} {
		rec := &recorder{}
		d := queueDisk()
		d.SetInjector(rec)
		d.StartQueue(16, window)
		d.Freeze()
		var staged []<-chan outcome
		for i, other := range []int{40, 3, 21, 19, 63, 0} {
			staged = append(staged,
				stage(t, d, Request{Op: OpWrite, Block: hot, Data: payload(byte(i + 1))}),
				stage(t, d, Request{Op: OpWrite, Block: other, Data: payload(0xF0)}))
		}
		d.Thaw()
		for _, c := range staged {
			if o := <-c; o.err != nil || o.panicked != nil {
				t.Fatalf("window %d: write: %v, panic %v", window, o.err, o.panicked)
			}
		}
		var order []byte
		for _, a := range rec.seen {
			if a.Block == hot {
				order = append(order, a.Data[0])
			}
		}
		if string(order) != "\x01\x02\x03\x04\x05\x06" {
			t.Fatalf("window %d: writes to block %d reached the drive as %v, want submission order", window, hot, order)
		}
		if got, _ := d.PeekData(hot, nil); !got.Equal(payload(6)) {
			t.Fatalf("window %d: block %d holds payload %d, want the last one", window, hot, got[0])
		}
	}
}

// TestQueueFuzzDeterministic stages seeded random batches on a frozen
// drive, thaws, and asserts the recorder sees them in the order the
// picker alone dictates — a model queue fed the same batches — so two
// identical runs dispatch alike and leave identical platters.  Run under
// -race this is the determinism contract: callers staged one at a time
// make the elevator's choices a pure function of the request set.
func TestQueueFuzzDeterministic(t *testing.T) {
	const window = 6
	run := func(seed int64) ([]Access, []page.Buf) {
		rec := &recorder{}
		d := queueDisk()
		d.SetInjector(rec)
		d.StartQueue(128, window)
		model := queue{window: window, dir: 1}
		var want []int
		rng := rand.New(rand.NewSource(seed))
		for batch := 0; batch < 20; batch++ {
			d.Freeze()
			n := 1 + rng.Intn(32)
			staged := make([]<-chan outcome, 0, n)
			for i := 0; i < n; i++ {
				r := Request{Op: OpRead, Block: rng.Intn(qtBlocks)}
				if rng.Intn(4) != 0 {
					r.Op, r.Data = OpWrite, payload(byte(rng.Intn(256)))
				}
				staged = append(staged, stage(t, d, r))
				model.items = append(model.items, waiter{block: r.Block})
			}
			d.Thaw()
			for _, c := range staged {
				if o := <-c; o.err != nil || o.panicked != nil {
					t.Fatalf("fuzz io: %v, panic %v", o.err, o.panicked)
				}
			}
			for len(model.items) > 0 {
				want = append(want, model.pick().block)
			}
		}
		if len(rec.seen) != len(want) {
			t.Fatalf("seed %d: %d transfers, want %d", seed, len(rec.seen), len(want))
		}
		for i, a := range rec.seen {
			if a.Block != want[i] {
				t.Fatalf("seed %d: transfer %d went to block %d, the picker chose %d", seed, i, a.Block, want[i])
			}
		}
		var blocks []page.Buf
		for b := 0; b < qtBlocks; b++ {
			buf, err := d.PeekData(b, nil)
			if err != nil {
				t.Fatalf("peek: %v", err)
			}
			blocks = append(blocks, buf)
		}
		return rec.seen, blocks
	}
	for _, seed := range []int64{1, 7, 42} {
		o1, b1 := run(seed)
		o2, b2 := run(seed)
		for i := range o1 {
			if o1[i].Op != o2[i].Op || o1[i].Block != o2[i].Block || !o1[i].Data.Equal(o2[i].Data) {
				t.Fatalf("seed %d: dispatch order diverged at transfer %d: %v vs %v", seed, i, o1[i], o2[i])
			}
		}
		for b := range b1 {
			if !b1[b].Equal(b2[b]) {
				t.Fatalf("seed %d: block %d contents diverged between identical runs", seed, b)
			}
		}
	}
}

// TestQueueRunsOnCallersGoroutine: a queued transfer executes on the
// goroutine that called Do — the injector sees the caller on its stack.
func TestQueueRunsOnCallersGoroutine(t *testing.T) {
	d := queueDisk()
	var onCaller bool
	d.SetInjector(stackProbe(func() {
		pcs := make([]uintptr, 64)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(0, pcs)])
		for f, more := frames.Next(); more; f, more = frames.Next() {
			onCaller = onCaller || strings.Contains(f.Function, "TestQueueRunsOnCallersGoroutine")
		}
	}))
	d.StartQueue(4, 4)
	if err := d.Write(3, payload(1), Meta{}); err != nil {
		t.Fatal(err)
	}
	if !onCaller {
		t.Fatal("the queued write ran on another goroutine than its caller's")
	}
}

type stackProbe func()

func (p stackProbe) Observe(Access) Decision {
	p()
	return Decision{}
}

// TestQueueCrashDrain injects a crash panic into a queued transfer and
// asserts the sentinel reaches its caller, every waiting caller panics
// with the same value without touching the platter, a later caller does
// too, and ResetQueue restores service.
func TestQueueCrashDrain(t *testing.T) {
	sentinel := fmt.Errorf("crash sentinel")
	rec := &recorder{
		panicAt:  func(a Access) bool { return a.Op == OpWrite && a.Block == 5 },
		panicVal: sentinel,
	}
	d := queueDisk()
	d.SetInjector(rec)
	d.StartQueue(8, 8)
	d.Freeze()
	crash := stage(t, d, Request{Op: OpWrite, Block: 5, Data: payload(1)})
	// Waiters staged behind the crash point: higher blocks so the
	// elevator dispatches block 5 first from head position 0.
	backlog := []<-chan outcome{
		stage(t, d, Request{Op: OpWrite, Block: 30, Data: payload(2)}),
		stage(t, d, Request{Op: OpWrite, Block: 40, Data: payload(3)}),
	}
	d.Thaw()
	if o := <-crash; o.panicked != sentinel {
		t.Fatalf("crash request: recovered %v, want the sentinel", o.panicked)
	}
	for i, c := range backlog {
		if o := <-c; o.panicked != sentinel {
			t.Fatalf("backlog request %d: recovered %v, want the crash sentinel", i, o.panicked)
		}
	}
	// No post-crash write reached the platter.
	for _, b := range []int{30, 40} {
		if got, _ := d.PeekData(b, nil); rec.indexOf(OpWrite, b) != -1 || !got.Equal(payload(0)) {
			t.Fatalf("write to block %d executed after the crash", b)
		}
	}
	// A caller while crashed is poisoned too.
	later := func() (v any) {
		defer func() { v = recover() }()
		_ = d.Write(7, payload(4), Meta{})
		return nil
	}
	if got := later(); got != sentinel {
		t.Fatalf("post-crash write: recovered %v, want the crash sentinel", got)
	}
	if got := d.QueueLen(); got != 0 {
		t.Fatalf("%d callers left queued after the crash", got)
	}
	d.ResetQueue()
	if err := d.Write(7, payload(5), Meta{}); err != nil {
		t.Fatalf("write after ResetQueue: %v", err)
	}
	if got, _ := d.PeekData(7, nil); !got.Equal(payload(5)) {
		t.Fatal("the write after ResetQueue did not reach the platter")
	}
}
