// Per-drive request queue and elevator picker.
//
// By default every Disk I/O executes synchronously on the caller's
// goroutine — the deterministic mode that replayable crash-point
// schedules require.  StartQueue switches the drive to pipelined mode,
// which adds one question: when several callers want the drive at once,
// who goes next.  A caller of Do enqueues a small waiter (up to `depth`
// of them wait; a caller beyond that waits for a slot) and sleeps.
// Whenever the drive is free, the picker marks the next waiter in
// elevator (LOOK) order over block addresses, the NCQ-style reordering
// real drives perform, and that waiter runs its own transfer on its own
// goroutine, under the drive mutex, exactly as the synchronous path does.
// The configured service time (SetLatency) and the fault injector
// therefore see transfers in dispatch order — so crash schedules count
// *dispatched* writes, the order the platter actually sees.
//
// Correctness properties the picker maintains:
//
//   - Starvation bound: a waiter bypassed `window` times is served next
//     (FIFO among the overdue).  window=0 degenerates to strict FIFO — no
//     reordering at all.
//   - Same-block FIFO: two waiters for one block run in arrival order
//     (the engine's group latches already prevent such conflicts; the
//     queue preserves the property anyway).
//   - Crash drain: when a fault-injection crash panics out of a
//     transfer, the machine is off — every waiting and later caller
//     panics with the same value, never touching the platter, until
//     ResetQueue (called from the engine's crash entry point) clears the
//     state for recovery.
//
// The queue holds no goroutine of its own: an idle engine holds none (the
// DB type has no Close and must not leak).
package disk

import (
	"sync"
	"sync/atomic"
)

// waiter is one caller queued for the drive.
type waiter struct {
	block  int
	ticket uint64 // arrival number; identifies the caller to itself
	skips  int    // times the picker bypassed it
}

// queue is the per-drive picker state, embedded in Disk.
type queue struct {
	// on is the synchronous/pipelined mode switch, read lock-free on the
	// I/O fast path.
	on atomic.Bool

	mu sync.Mutex
	// cond wakes waiters when one is marked, a slot frees, the queue is
	// thawed or a crash poisons it.
	cond *sync.Cond
	// depth bounds the number of waiters; a caller beyond it waits for a
	// slot.
	depth int
	// window is the starvation bound: a waiter bypassed this many times
	// is served next.
	window int
	// items holds the waiters in arrival (FIFO) order.
	items   []waiter
	tickets uint64 // tickets issued; the first arrival's is 1
	turn    uint64 // ticket of the waiter marked to run (0: none yet)
	busy    bool   // a marked waiter's transfer has not finished
	pos     int    // elevator head position (last dispatched block)
	dir     int    // elevator direction: +1 ascending, -1 descending
	frozen  bool   // dispatch paused (see Freeze)
	// crashed, when non-nil, is the panic value that escaped a transfer;
	// every waiting and later caller panics with it until ResetQueue.
	crashed any
}

// StartQueue switches the drive to pipelined mode with the given queue
// depth and reordering window.  depth < 1 is clamped to 1; window < 0 to
// 0 (strict FIFO).  Safe to call on an idle drive only.
func (d *Disk) StartQueue(depth, window int) {
	q := &d.q
	q.mu.Lock()
	if q.cond == nil {
		q.cond = sync.NewCond(&q.mu)
		q.dir = 1
	}
	q.depth = max(depth, 1)
	q.window = max(window, 0)
	q.mu.Unlock()
	q.on.Store(true)
}

// QueueEnabled reports whether the drive is in pipelined mode.
func (d *Disk) QueueEnabled() bool { return d.q.on.Load() }

// ResetQueue clears the crash-drain state after the engine's crash entry
// point has quiesced all I/O, so recovery can use the drive again.
func (d *Disk) ResetQueue() {
	q := &d.q
	q.mu.Lock()
	q.crashed = nil
	q.mu.Unlock()
}

// Freeze pauses dispatch: queued and newly arriving callers wait until
// Thaw, which lets the picker loose over the whole staged set at once.
// Callers staged one at a time make the dispatch sequence a pure function
// of the staged requests — the determinism contract the seeded picker
// fuzz asserts.
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
	q.dispatch()
	q.mu.Unlock()
}

// QueueLen returns the number of callers currently waiting (excluding
// the one whose transfer runs).  Test instrumentation.
func (d *Disk) QueueLen() int {
	d.q.mu.Lock()
	defer d.q.mu.Unlock()
	return len(d.q.items)
}

// enter queues the caller for a transfer to block and returns when the
// picker has marked it; the caller then owns the drive until leave.  It
// panics with the crash value if the queue is, or becomes, poisoned.
func (q *queue) enter(block int) {
	q.mu.Lock()
	for q.crashed == nil && len(q.items) >= q.depth {
		q.cond.Wait()
	}
	if q.crashed == nil {
		q.tickets++
		t := q.tickets
		q.items = append(q.items, waiter{block: block, ticket: t})
		q.dispatch()
		for q.crashed == nil && q.turn != t {
			q.cond.Wait()
		}
	}
	crashed := q.crashed
	q.mu.Unlock()
	if crashed != nil {
		panic(crashed)
	}
}

// leave releases the drive after the caller's transfer and marks the
// next waiter.  It is deferred by Do: a panic out of the transfer (a
// crash point) poisons the queue — its waiters are dropped, to panic
// with the same value — and is re-raised on the caller's goroutine.
func (q *queue) leave() {
	v := recover()
	q.mu.Lock()
	q.busy = false
	if v != nil && q.crashed == nil {
		q.crashed = v
		q.items = q.items[:0]
		q.cond.Broadcast()
	}
	q.dispatch()
	q.mu.Unlock()
	if v != nil {
		panic(v)
	}
}

// dispatch marks the next waiter when the drive is free and not frozen.
// Queue mutex held.
func (q *queue) dispatch() {
	if q.busy || q.frozen || len(q.items) == 0 {
		return
	}
	q.turn = q.pick().ticket
	q.busy = true
	q.cond.Broadcast() // the marked waiter, and a caller waiting for a slot
}

// pick removes and returns the waiter to serve next.  Priority order: the
// oldest waiter bypassed `window` times (FIFO among the overdue); then
// LOOK elevator order over block addresses, continuing in the current
// direction and reversing only when nothing remains ahead.  Every waiter
// older than the chosen one counts a bypass.  Queue mutex held;
// len(q.items) > 0.
func (q *queue) pick() waiter {
	best := -1
	for i, w := range q.items {
		if w.skips >= q.window {
			best = i
			break
		}
	}
	for pass := 0; best < 0; pass++ {
		if pass == 1 {
			q.dir = -q.dir
		}
		for i, w := range q.items {
			if q.dir > 0 && w.block >= q.pos && (best < 0 || w.block < q.items[best].block) ||
				q.dir < 0 && w.block <= q.pos && (best < 0 || w.block > q.items[best].block) {
				best = i
			}
		}
	}
	w := q.items[best]
	for i := 0; i < best; i++ {
		q.items[i].skips++
	}
	q.items = append(q.items[:best], q.items[best+1:]...)
	q.pos = w.block
	return w
}
