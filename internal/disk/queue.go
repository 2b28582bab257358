// Per-drive request queue and elevator scheduler.
//
// By default every Disk I/O executes synchronously on the caller's
// goroutine — the deterministic mode that replayable crash-point
// schedules require.  StartQueue switches the drive to pipelined mode:
// up to `depth` requests sit in a queue that a per-drive scheduler
// goroutine drains in elevator (LOOK) order over block addresses, the
// NCQ-style reordering real drives perform.  The configured service time
// (SetLatency) is charged per dequeued transfer, exactly as in
// synchronous mode, and the fault injector observes each transfer at
// dequeue time — so crash schedules count *dequeued* writes, the order
// the platter actually sees.
//
// Correctness properties the scheduler maintains:
//
//   - Starvation bound: a request bypassed more than `window` times is
//     served next (FIFO among the overdue).  window=0 degenerates to
//     strict FIFO — no reordering at all.
//   - Same-block FIFO: two queued requests for one block complete in
//     submission order (the engine's group latches already prevent such
//     conflicts; the queue preserves the property anyway).
//   - Barriers: a Barrier request completes only after everything queued
//     before it, and nothing queued after it is dispatched earlier.
//   - Gates: a Request with a Gate channel stays in the queue, ineligible
//     for dispatch, until the channel closes.  The engine gates data and
//     parity writes on the force of the WAL records that cover them, so
//     the write-ahead rule survives reordering.
//   - Crash drain: when a fault-injection crash panics out of a dequeued
//     request, the machine is off — the backlog and all later submissions
//     complete immediately with the same panic value, never touching the
//     platter, until ResetQueue (called from the engine's crash entry
//     point) clears the state for recovery.
//
// The scheduler goroutine is lazy: it starts on the first queued request
// and exits when the queue drains, so an idle engine holds no goroutines
// (the DB type has no Close and must not leak).
package disk

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/page"
)

// Request describes one block I/O handed to a drive's queue.
type Request struct {
	Op    Op
	Block int
	// Data is the payload for OpWrite and, when it has the block's size,
	// the buffer an OpRead fills and returns instead of allocating one; the
	// submitter must leave it alone until the request completes.
	Data page.Buf
	// Meta is the header for OpWrite and OpWriteMeta.
	Meta Meta
	// Gate, when non-nil, holds the request in the queue, ineligible for
	// dispatch, until the channel is closed (the queue's write-ahead
	// barrier: a data write gated on its log force cannot be reordered in
	// front of it).  The channel must eventually close; the gate's closer
	// must not itself wait on this drive's queue capacity.
	Gate <-chan struct{}
}

// Pending is the completion handle of a submitted request.
type Pending struct {
	op    Op
	block int
	data  page.Buf
	meta  Meta

	// Scheduler bookkeeping, guarded by the queue mutex until done.
	gateOpen bool
	barrier  bool
	skips    int

	done     chan struct{}
	seq      int64 // drive-local completion sequence number
	resData  page.Buf
	resMeta  Meta
	err      error
	panicked any
}

// completed is the done channel of every handle that finished inside
// Submit; the synchronous path allocates none of its own.
var completed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Wait blocks until the request completes and returns its results.  If
// execution panicked inside the scheduler goroutine (fault-injection
// crash points fire at dequeue time), Wait re-panics with the same value
// on the caller's goroutine, so crash harnesses recover it exactly as
// they would from a synchronous disk call.
func (p *Pending) Wait() (page.Buf, Meta, error) {
	<-p.done
	if p.panicked != nil {
		panic(p.panicked)
	}
	return p.resData, p.resMeta, p.err
}

// Err waits for completion and returns only the error (the write-shaped
// half of Wait).
func (p *Pending) Err() error {
	_, _, err := p.Wait()
	return err
}

// Skips returns how many times the scheduler bypassed this request
// before serving it.  Valid once the request has completed; the property
// tests assert the starvation bound with it.
func (p *Pending) Skips() int {
	<-p.done
	return p.skips
}

// CompletionSeq returns the drive-local completion sequence number,
// assigned in dispatch-completion order.  Valid once the request has
// completed.
func (p *Pending) CompletionSeq() int64 {
	<-p.done
	return p.seq
}

// queue is the per-drive scheduler state, embedded in Disk.
type queue struct {
	// on is the synchronous/pipelined mode switch, read lock-free on the
	// I/O fast path.
	on atomic.Bool

	mu   sync.Mutex
	cond *sync.Cond
	// depth bounds the number of queued requests; Submit blocks when the
	// queue is full.
	depth int
	// window is the starvation bound: a request bypassed more than this
	// many times is served next.
	window int
	// items holds queued requests in submission (FIFO) order.
	items   []*Pending
	running bool // scheduler goroutine live
	pos     int  // elevator head position (last dispatched block)
	dir     int  // elevator direction: +1 ascending, -1 descending
	// crashed, when non-nil, is the panic value that escaped a dequeued
	// request; the queue completes everything with it until ResetQueue.
	crashed any
	// frozen pauses dispatch (requests still enqueue) so a batch can be
	// staged atomically; Thaw releases the scheduler over the full set.
	frozen      bool
	seq         int64 // next completion sequence number
	completions int64 // total completions (exactly-once accounting)
}

// StartQueue switches the drive to pipelined mode with the given queue
// depth and reordering window.  depth < 1 is clamped to 1; window < 0 to
// 0 (strict FIFO).  Safe to call on an idle drive only.
func (d *Disk) StartQueue(depth, window int) {
	if depth < 1 {
		depth = 1
	}
	if window < 0 {
		window = 0
	}
	q := &d.q
	q.mu.Lock()
	if q.cond == nil {
		q.cond = sync.NewCond(&q.mu)
	}
	q.depth = depth
	q.window = window
	if q.dir == 0 {
		q.dir = 1
	}
	q.mu.Unlock()
	q.on.Store(true)
}

// StopQueue drains the queue and returns the drive to synchronous mode.
func (d *Disk) StopQueue() {
	q := &d.q
	q.on.Store(false)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.cond == nil {
		return
	}
	for q.running || len(q.items) > 0 {
		q.cond.Wait()
	}
	q.depth = 0
}

// QueueEnabled reports whether the drive is in pipelined mode.
func (d *Disk) QueueEnabled() bool { return d.q.on.Load() }

// ResetQueue clears the crash-drain state after the engine's crash entry
// point has quiesced all I/O, so recovery can use the drive again.
func (d *Disk) ResetQueue() {
	q := &d.q
	q.mu.Lock()
	q.crashed = nil
	if q.cond != nil {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// Freeze pauses dispatch: queued and newly submitted requests are held
// until Thaw, which releases the scheduler over the whole staged set at
// once.  With a single submitting goroutine this makes the dispatch
// sequence a pure function of the staged requests — the determinism
// contract the seeded scheduler fuzz asserts.
func (d *Disk) Freeze() {
	d.q.mu.Lock()
	d.q.frozen = true
	d.q.mu.Unlock()
}

// Thaw resumes dispatch after Freeze.
func (d *Disk) Thaw() {
	q := &d.q
	q.mu.Lock()
	q.frozen = false
	if q.cond != nil {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// QueueLen returns the number of requests currently queued (excluding
// the one being executed).  Test instrumentation.
func (d *Disk) QueueLen() int {
	d.q.mu.Lock()
	defer d.q.mu.Unlock()
	return len(d.q.items)
}

// Completions returns how many queued requests have completed, poisoned
// ones included.  Test instrumentation for the exactly-once property.
func (d *Disk) Completions() int64 {
	d.q.mu.Lock()
	defer d.q.mu.Unlock()
	return d.q.completions
}

// Do executes a request and returns its results: Submit and Wait in one
// call.  In synchronous mode it runs inline on the caller's goroutine
// (after waiting on the gate, if any) and allocates no handle.
func (d *Disk) Do(r Request) (page.Buf, Meta, error) {
	if d.q.on.Load() {
		return d.Submit(r).Wait()
	}
	if r.Gate != nil {
		<-r.Gate
	}
	p := Pending{op: r.Op, block: r.Block, data: r.Data, meta: r.Meta}
	d.execInto(&p) // panics propagate on the caller's goroutine
	return p.resData, p.resMeta, p.err
}

// Submit hands a request to the drive.  In synchronous mode it executes
// inline on the caller's goroutine (after waiting on the gate, if any)
// and the returned handle is already complete.  In pipelined mode it
// enqueues, blocking while the queue is at its depth limit, and the
// request executes on the scheduler goroutine.
func (d *Disk) Submit(r Request) *Pending {
	p := &Pending{op: r.Op, block: r.Block, data: r.Data, meta: r.Meta}
	if !d.q.on.Load() {
		if r.Gate != nil {
			<-r.Gate
		}
		d.execInto(p) // panics propagate on the caller's goroutine
		p.done = completed
		return p
	}
	p.done = make(chan struct{})
	q := &d.q
	q.mu.Lock()
	for q.crashed == nil && q.depth > 0 && len(q.items) >= q.depth {
		q.cond.Wait()
	}
	if q.crashed != nil {
		d.completeLocked(p, q.crashed)
		q.mu.Unlock()
		return p
	}
	if q.depth == 0 {
		// The queue was stopped while we waited for a slot: run inline.
		q.mu.Unlock()
		if r.Gate != nil {
			<-r.Gate
		}
		d.execInto(p)
		close(p.done)
		return p
	}
	p.gateOpen = r.Gate == nil
	q.items = append(q.items, p)
	if !q.running {
		q.running = true
		go d.schedule()
	}
	if r.Gate != nil {
		gate := r.Gate
		go func() {
			<-gate
			q.mu.Lock()
			p.gateOpen = true
			q.cond.Broadcast()
			q.mu.Unlock()
		}()
	}
	q.cond.Broadcast()
	q.mu.Unlock()
	return p
}

// Barrier submits a marker that completes only after every request
// queued before it has completed, and that no later request may be
// dispatched ahead of.  It carries no I/O, charges no transfer, and does
// not count against the depth limit.  In synchronous mode the returned
// handle is already complete (the caller's program order is the
// barrier).
func (d *Disk) Barrier() *Pending {
	p := &Pending{barrier: true, gateOpen: true, done: make(chan struct{})}
	if !d.q.on.Load() {
		close(p.done)
		return p
	}
	q := &d.q
	q.mu.Lock()
	if q.crashed != nil {
		d.completeLocked(p, q.crashed)
		q.mu.Unlock()
		return p
	}
	q.items = append(q.items, p)
	if !q.running {
		q.running = true
		go d.schedule()
	}
	q.cond.Broadcast()
	q.mu.Unlock()
	return p
}

// completeLocked finishes p with the given panic value.  Queue mutex
// held.
func (d *Disk) completeLocked(p *Pending, panicked any) {
	q := &d.q
	p.panicked = panicked
	p.seq = q.seq
	q.seq++
	q.completions++
	close(p.done)
}

// schedule is the per-drive scheduler goroutine.  It exits when the
// queue drains; a later Submit restarts it.
func (d *Disk) schedule() {
	q := &d.q
	q.mu.Lock()
	for {
		if q.crashed != nil && len(q.items) > 0 {
			// A crash panic escaped a dequeued request: the machine is
			// off.  The backlog completes with the same panic value
			// without touching the platter.
			for _, p := range q.items {
				d.completeLocked(p, q.crashed)
			}
			clear(q.items)
			q.items = q.items[:0]
			q.cond.Broadcast()
		}
		if len(q.items) == 0 {
			q.running = false
			q.cond.Broadcast()
			q.mu.Unlock()
			return
		}
		if q.frozen {
			q.cond.Wait()
			continue
		}
		idx := q.pick()
		if idx < 0 {
			// Every candidate is gated; wait for a gate to open, a new
			// arrival, or a crash.
			q.cond.Wait()
			continue
		}
		p := q.items[idx]
		for i := 0; i < idx; i++ {
			q.items[i].skips++
		}
		// The vacated tail slot is cleared: a completed handle left there
		// would keep its page buffers alive until the slot is reused.
		last := len(q.items) - 1
		copy(q.items[idx:], q.items[idx+1:])
		q.items[last] = nil
		q.items = q.items[:last]
		q.cond.Broadcast() // a depth slot freed
		if p.barrier {
			p.seq = q.seq
			q.seq++
			q.completions++
			close(p.done)
			continue
		}
		q.pos = p.block
		q.mu.Unlock()
		d.execRecover(p)
		q.mu.Lock()
		if p.panicked != nil && q.crashed == nil {
			q.crashed = p.panicked
		}
		p.seq = q.seq
		q.seq++
		q.completions++
		close(p.done)
	}
}

// pick selects the queue index to dispatch next, or -1 when every
// candidate is gated.  Priority order: a barrier at the head; then the
// oldest request bypassed more than the window allows (FIFO among the
// overdue); then LOOK elevator order over block addresses, continuing in
// the current direction and reversing only when nothing remains ahead.
// Requests behind the first barrier are not candidates.  Queue mutex
// held; len(q.items) > 0.
func (q *queue) pick() int {
	if q.items[0].barrier {
		return 0
	}
	end := len(q.items)
	for i, p := range q.items {
		if p.barrier {
			end = i
			break
		}
	}
	for i := 0; i < end; i++ {
		p := q.items[i]
		if p.gateOpen && p.skips >= q.window {
			return i
		}
	}
	best := -1
	dir := q.dir
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < end; i++ {
			p := q.items[i]
			if !p.gateOpen {
				continue
			}
			if dir > 0 {
				if p.block < q.pos {
					continue
				}
				if best < 0 || p.block < q.items[best].block {
					best = i
				}
			} else {
				if p.block > q.pos {
					continue
				}
				if best < 0 || p.block > q.items[best].block {
					best = i
				}
			}
		}
		if best >= 0 {
			q.dir = dir
			return best
		}
		dir = -dir
	}
	return -1
}

// execInto runs the request synchronously, filling in its results.
// Panics (fault-injection crash points) propagate to the caller.
func (d *Disk) execInto(p *Pending) {
	switch p.op {
	case OpRead:
		p.resData, p.resMeta, p.err = d.execRead(p.block, p.data)
	case OpWrite:
		p.err = d.execWrite(p.block, p.data, p.meta)
	case OpReadMeta:
		p.resMeta, p.err = d.execReadMeta(p.block)
	case OpWriteMeta:
		p.err = d.execWriteMeta(p.block, p.meta)
	default:
		p.err = fmt.Errorf("disk %d: unknown op %v", d.id, p.op)
	}
}

// execRecover runs the request on the scheduler goroutine, capturing a
// panic into the handle so Wait can re-raise it on the submitter's
// goroutine.
func (d *Disk) execRecover(p *Pending) {
	defer func() {
		if r := recover(); r != nil {
			p.panicked = r
		}
	}()
	d.execInto(p)
}
