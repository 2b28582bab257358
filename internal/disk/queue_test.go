package disk

import (
	"fmt"
	"math/rand"
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

// recorder is an injector that records the dequeue order of accesses.
type recorder struct {
	mu   sync.Mutex
	seen []Access
	// panicAt, when non-nil, panics with panicVal on the first matching
	// access (a crash point firing at dequeue time).
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

// TestQueueStarvationBound floods the queue from several goroutines with
// random-block writes and asserts the aging rule's bound: no request is
// bypassed more than window+depth times before being served.
func TestQueueStarvationBound(t *testing.T) {
	const (
		depth   = 32
		window  = 8
		workers = 4
		perW    = 500
	)
	d := queueDisk()
	d.StartQueue(depth, window)
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		max int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				p := d.Submit(Request{Op: OpWrite, Block: rng.Intn(qtBlocks), Data: payload(byte(i)), Meta: Meta{}})
				if err := p.Err(); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if s := p.Skips(); s > 0 {
					mu.Lock()
					if s > max {
						max = s
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if max > window+depth {
		t.Fatalf("request bypassed %d times; starvation bound is window+depth = %d", max, window+depth)
	}
	d.StopQueue()
}

// TestQueueExactlyOnceCompletions submits a mixed concurrent load and
// asserts every request completes exactly once: completion count equals
// submissions, and the drive's charged transfer counters match.
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
				var p *Pending
				if rng.Intn(2) == 0 {
					p = d.Submit(Request{Op: OpWrite, Block: block, Data: payload(byte(i)), Meta: Meta{}})
				} else {
					p = d.Submit(Request{Op: OpRead, Block: block})
				}
				if err := p.Err(); err != nil {
					t.Errorf("io: %v", err)
					return
				}
				// A second Wait must observe the same completed result,
				// not a second execution.
				if err := p.Err(); err != nil {
					t.Errorf("re-wait: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := int64(workers * perW)
	if got := d.Completions(); got != total {
		t.Fatalf("completions = %d, want %d", got, total)
	}
	st := d.Stats()
	if st.Reads+st.Writes != total {
		t.Fatalf("charged transfers = %d, want %d (each request exactly once)", st.Reads+st.Writes, total)
	}
	d.StopQueue()
}

// TestQueueDepthLimit holds the queue full with gated requests and
// asserts that the depth+1-th submission blocks until a slot frees.
func TestQueueDepthLimit(t *testing.T) {
	const depth = 4
	d := queueDisk()
	d.StartQueue(depth, 8)
	gate := make(chan struct{})
	var held []*Pending
	for i := 0; i < depth; i++ {
		held = append(held, d.Submit(Request{Op: OpWrite, Block: i, Data: payload(1), Meta: Meta{}, Gate: gate}))
	}
	if got := d.QueueLen(); got != depth {
		t.Fatalf("queue length = %d, want %d", got, depth)
	}
	extra := make(chan *Pending, 1)
	go func() {
		extra <- d.Submit(Request{Op: OpWrite, Block: depth, Data: payload(2), Meta: Meta{}})
	}()
	select {
	case <-extra:
		t.Fatal("submission beyond the depth limit did not block")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	p := <-extra
	if err := p.Err(); err != nil {
		t.Fatalf("unblocked write: %v", err)
	}
	for _, h := range held {
		if err := h.Err(); err != nil {
			t.Fatalf("gated write: %v", err)
		}
	}
	d.StopQueue()
}

// TestQueueFuzzDeterministic stages seeded random batches with dispatch
// frozen, thaws, and asserts two identical runs dispatch in the same
// order and leave identical platter contents.  Run under -race this is
// the Workers=1 determinism contract: a single submitting goroutine and
// a frozen-staged batch make the elevator's choices a pure function of
// the request set.
func TestQueueFuzzDeterministic(t *testing.T) {
	run := func(seed int64) ([]int64, []page.Buf) {
		d := queueDisk()
		d.StartQueue(128, 6)
		rng := rand.New(rand.NewSource(seed))
		var order []int64
		for batch := 0; batch < 20; batch++ {
			d.Freeze()
			n := 1 + rng.Intn(32)
			pending := make([]*Pending, 0, n)
			for i := 0; i < n; i++ {
				block := rng.Intn(qtBlocks)
				if rng.Intn(4) == 0 {
					pending = append(pending, d.Submit(Request{Op: OpRead, Block: block}))
				} else {
					pending = append(pending, d.Submit(Request{Op: OpWrite, Block: block, Data: payload(byte(rng.Intn(256))), Meta: Meta{}}))
				}
			}
			d.Thaw()
			for _, p := range pending {
				if err := p.Err(); err != nil {
					t.Fatalf("fuzz io: %v", err)
				}
				order = append(order, p.CompletionSeq())
			}
		}
		d.StopQueue()
		var blocks []page.Buf
		for b := 0; b < qtBlocks; b++ {
			buf, err := d.PeekData(b, nil)
			if err != nil {
				t.Fatalf("peek: %v", err)
			}
			blocks = append(blocks, buf)
		}
		return order, blocks
	}
	for _, seed := range []int64{1, 7, 42} {
		o1, b1 := run(seed)
		o2, b2 := run(seed)
		if len(o1) != len(o2) {
			t.Fatalf("seed %d: run lengths differ: %d vs %d", seed, len(o1), len(o2))
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("seed %d: dispatch order diverged at request %d: seq %d vs %d", seed, i, o1[i], o2[i])
			}
		}
		for b := range b1 {
			if !b1[b].Equal(b2[b]) {
				t.Fatalf("seed %d: block %d contents diverged between identical runs", seed, b)
			}
		}
	}
}

// TestQueueGateOrdersWriteAfterForce is the write-ahead regression test:
// a data write gated on its log record's force must not be dequeued
// before the force completes, no matter how the elevator would otherwise
// order it.
func TestQueueGateOrdersWriteAfterForce(t *testing.T) {
	rec := &recorder{}
	d := queueDisk()
	d.SetInjector(rec)
	d.StartQueue(8, 8)
	force := make(chan struct{}) // closed when the "log force" completes
	d.Freeze()
	// The gated data write targets block 0 — the elevator's favourite
	// position from the initial head — so only the gate holds it back.
	gated := d.Submit(Request{Op: OpWrite, Block: 0, Data: payload(0xAA), Meta: Meta{}, Gate: force})
	others := []*Pending{
		d.Submit(Request{Op: OpWrite, Block: 9, Data: payload(1), Meta: Meta{}}),
		d.Submit(Request{Op: OpWrite, Block: 3, Data: payload(2), Meta: Meta{}}),
	}
	d.Thaw()
	for _, p := range others {
		if err := p.Err(); err != nil {
			t.Fatalf("ungated write: %v", err)
		}
	}
	if got := rec.indexOf(OpWrite, 0); got != -1 {
		t.Fatalf("gated data write was dequeued before its log force completed (observe index %d)", got)
	}
	close(force)
	if err := gated.Err(); err != nil {
		t.Fatalf("gated write: %v", err)
	}
	i0 := rec.indexOf(OpWrite, 0)
	if i0 < 0 {
		t.Fatal("gated write never observed")
	}
	for _, b := range []int{9, 3} {
		if ib := rec.indexOf(OpWrite, b); ib > i0 {
			t.Fatalf("gated write observed at %d before ungated write to block %d at %d", i0, b, ib)
		}
	}
	d.StopQueue()
}

// TestQueueBarrier asserts a barrier completes only after everything
// queued before it, and nothing queued after it is dispatched earlier.
func TestQueueBarrier(t *testing.T) {
	rec := &recorder{}
	d := queueDisk()
	d.SetInjector(rec)
	d.StartQueue(16, 8)
	d.Freeze()
	before := []*Pending{
		d.Submit(Request{Op: OpWrite, Block: 20, Data: payload(1), Meta: Meta{}}),
		d.Submit(Request{Op: OpWrite, Block: 10, Data: payload(2), Meta: Meta{}}),
	}
	bar := d.Barrier()
	after := []*Pending{
		// Block 11 sits between the pre-barrier blocks: without the
		// barrier the elevator would dispatch it among them.
		d.Submit(Request{Op: OpWrite, Block: 11, Data: payload(3), Meta: Meta{}}),
		d.Submit(Request{Op: OpWrite, Block: 1, Data: payload(4), Meta: Meta{}}),
	}
	d.Thaw()
	for _, p := range append(append([]*Pending{}, before...), after...) {
		if err := p.Err(); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if _, _, err := bar.Wait(); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	barSeq := bar.CompletionSeq()
	for _, p := range before {
		if p.CompletionSeq() > barSeq {
			t.Fatalf("pre-barrier write completed after the barrier")
		}
	}
	for _, p := range after {
		if p.CompletionSeq() < barSeq {
			t.Fatalf("post-barrier write dispatched before the barrier")
		}
	}
	d.StopQueue()
}

// TestQueueCrashDrain injects a crash panic at dequeue time and asserts
// the sentinel reaches the submitter's Wait, the backlog completes with
// the same value without touching the platter, and ResetQueue restores
// service.
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
	crash := d.Submit(Request{Op: OpWrite, Block: 5, Data: payload(1), Meta: Meta{}})
	// Backlog staged behind the crash point: higher blocks so the
	// elevator dispatches block 5 first from head position 0.
	backlog := []*Pending{
		d.Submit(Request{Op: OpWrite, Block: 30, Data: payload(2), Meta: Meta{}}),
		d.Submit(Request{Op: OpWrite, Block: 40, Data: payload(3), Meta: Meta{}}),
	}
	d.Thaw()
	waitPanic := func(p *Pending) (v any) {
		defer func() { v = recover() }()
		_, _, _ = p.Wait()
		return nil
	}
	if got := waitPanic(crash); got != sentinel {
		t.Fatalf("crash request: recovered %v, want the sentinel", got)
	}
	for i, p := range backlog {
		if got := waitPanic(p); got != sentinel {
			t.Fatalf("backlog request %d: recovered %v, want the crash sentinel", i, got)
		}
	}
	// No post-crash write reached the platter.
	for _, b := range []int{30, 40} {
		if rec.indexOf(OpWrite, b) != -1 {
			t.Fatalf("write to block %d executed after the crash", b)
		}
	}
	// A submission while crashed is poisoned too.
	if got := waitPanic(d.Submit(Request{Op: OpWrite, Block: 7, Data: payload(4), Meta: Meta{}})); got != sentinel {
		t.Fatalf("post-crash submit: recovered %v, want the crash sentinel", got)
	}
	d.ResetQueue()
	if err := d.Submit(Request{Op: OpWrite, Block: 7, Data: payload(5), Meta: Meta{}}).Err(); err != nil {
		t.Fatalf("write after ResetQueue: %v", err)
	}
	d.StopQueue()
}
