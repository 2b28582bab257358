// Package buffer implements the database buffer manager.
//
// The paper's algorithms all assume a STEAL policy (Section 4: "A STEAL
// policy is used"): a page modified by an uncommitted transaction may be
// written back to the database when the replacement policy selects it.
// The pool therefore never refuses to evict a dirty frame — instead it
// hands the frame to a WriteBack callback supplied by the engine, and it
// is that callback which decides between classic UNDO logging and the
// paper's RDA no-logging write (Section 4.1).
//
// A frame owns its Data buffer for life: a miss copies the fetched image
// into it, and an evicted or discarded frame — buffer, modifier set and
// all — is what the next miss fills, so a warmed pool allocates nothing per
// miss.
//
// A dirty frame also holds its *disk version*: a copy of the page as it is
// stored on the array, taken from Data just before the frame's first
// modification (Modify) in a page of the pool's free list (Pages), and
// given back when the frame is clean again — a write-back, an abort that
// rewound it (MarkClean) — or leaves the pool.  A clean frame holds none:
// its Data is the array's page.  So every write-back of a dirty frame has
// the old contents its parity read-modify-write needs in memory, the
// paper's a=3 small write, under FORCE and ¬FORCE alike; the paper charges
// a ¬FORCE write-back a=4 (Section 5.2.2) to save the memory, which here is
// one page per dirty frame.  A write-back re-reads the old page (a=4) only
// for a frame whose disk version was forgotten (Forget).
//
// The pool uses a single LRU list and is internally synchronized: an
// internal mutex guards the frame map, the LRU list, pin counts and the
// stats, so concurrent operations on disjoint parity groups share the
// pool safely.  Frame *contents* (Data, DiskVersion, Dirty, Modifiers,
// Residue) are not guarded here — the engine serializes them with its
// per-group latches (a frame's group latch is held whenever its content
// or steal bookkeeping is read or written).  That is also what lets a miss
// read its page with the mutex released: the frame is in the map, pinned,
// before the read starts, nothing evicts a pinned frame, and nobody else
// may touch the page without the latch the missing caller holds — so a
// transfer in flight stalls nobody but the operation that asked for it.
// Eviction bridges the two worlds: a victim frame may belong to a group
// whose latch the evicting operation does not hold, so Get threads an
// EvictGuard through which the engine try-acquires the victim's group
// latch; an unguardable victim is skipped, and if every candidate is
// merely guard-blocked (never the case single-threaded) Get yields and
// retries rather than failing.
package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/page"
)

// Frame is one buffer slot.  Fields are exported for the engine's steal
// policy and for tests; outside packages must treat them as read-only
// except through the pool's methods, and must hold the frame's group
// latch (or otherwise exclude concurrency) when touching the content
// fields.
type Frame struct {
	Page page.PageID
	// Data is the current (possibly uncommitted) page contents.
	Data page.Buf
	// DiskVersion is a copy of the page as it exists on the array while
	// the frame is dirty (a page of the pool's Pages), nil while it is
	// clean or after Forget.  See the package comment for the a=3/a=4
	// connection.
	DiskVersion page.Buf
	// Dirty reports whether Data differs from the array contents.
	Dirty bool
	// Modifiers is the set of transactions that modified the frame since
	// it was last written back.  Under page locking it has at most one
	// member; under record locking several transactions may share a page
	// (the paper's s_u analysis, Appendix).
	Modifiers map[page.TxID]struct{}
	// Residue marks a frame that still carries committed-but-unflushed
	// changes (¬FORCE: a modifier committed while the frame was dirty).
	// A frame with residue must not take the RDA no-UNDO-logging steal
	// path, because the twin-parity undo would roll the whole page back
	// past the committed changes; the engine routes such steals through
	// classic logging instead.
	Residue bool

	pins int // guarded by the pool mutex
	// prev and next link the frame into the pool's LRU ring (towards the
	// most and the least recently used frame); guarded by the pool mutex.
	prev, next *Frame
}

// unlink takes the frame out of the LRU ring.
func (f *Frame) unlink() {
	f.prev.next, f.next.prev = f.next, f.prev
}

// linkAfter puts the frame into the LRU ring right behind at.
func (f *Frame) linkAfter(at *Frame) {
	f.prev, f.next = at, at.next
	at.next.prev, at.next = f, f
}

// ModifierList returns the frame's modifiers in ascending id order.  The
// order is deterministic so that identically seeded runs issue identical
// I/O sequences (crash-point schedules replay by write index).
func (f *Frame) ModifierList() []page.TxID {
	out := make([]page.TxID, 0, len(f.Modifiers))
	for tx := range f.Modifiers {
		out = append(out, tx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WriteBack is the engine's steal policy: persist the frame to the array,
// performing whatever logging or parity work its recovery scheme
// requires.  On success the pool marks the frame clean and gives its
// DiskVersion back.  The callback must not call back into the pool (it may
// run with the pool's internal mutex held).
type WriteBack func(f *Frame) error

// FetchInto reads page p's image from the array into dst — the missing
// frame's own buffer — on a buffer miss.  It runs with the pool mutex
// released and may run for several pages at once; it may fail or panic (a
// fault-injection crash point inside the read), and the pool then takes
// the frame out again.
type FetchInto func(p page.PageID, dst page.Buf) error

// Fetch is the older miss callback New still takes: it returns the image
// and the pool copies it into the frame (see New).  Misses run side by
// side, so no two calls may hand back the same page.
type Fetch func(p page.PageID) (page.Buf, error)

// EvictGuard lets the engine interpose its per-group latches on eviction:
// called with a prospective victim's page id, it either returns a release
// function and true (the victim's group is latched — or was already held
// by the calling operation — and the eviction may proceed), or false (the
// latch is contended; the pool skips this victim).  It must never block.
// A nil guard admits every victim, which is only safe when the caller
// excludes concurrency (stop-the-world sections, tests).
type EvictGuard func(p page.PageID) (release func(), ok bool)

// Stats counts buffer activity.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64 // frames evicted (clean or dirty)
	Steals    int64 // dirty frames written back by replacement
}

// Errors returned by the pool.
var (
	ErrNoFrames = errors.New("buffer: all frames pinned")
	ErrDropped  = errors.New("buffer: pool dropped while the page was loading")
)

// Pool is the buffer pool.
type Pool struct {
	capacity int
	pageSize int

	// FetchInto is the miss path (see the type).  New derives it from its
	// fetch argument; an owner that can read straight into the frame sets
	// it instead, before the pool is shared.
	FetchInto FetchInto
	// Pages is the free list dirty frames draw their disk versions from and
	// give them back to.  New makes one of its own, holding up to a page
	// per frame; an owner whose other scratch pages come from a list of its
	// own may share that one instead, set before the pool is shared.
	Pages *page.FreeList

	// mu guards frames, lru, free, pin counts and stats.  It is held
	// across eviction write-backs (leaf disk work), but never across a
	// miss's read or the FlushPage write-back, so a driver waiting for a
	// page and concurrent commits force-flushing disjoint groups leave
	// the pool open to everyone else.
	mu     sync.Mutex
	frames map[page.PageID]*Frame
	lru    Frame    // ring sentinel: lru.next is the most, lru.prev the least recently used frame
	free   []*Frame // frames that left the pool, reused by the next misses
	stats  Stats

	writeBack WriteBack
}

// New creates a pool of `capacity` frames (the paper's B) over pages of
// the given size.  A non-nil fetch becomes the pool's FetchInto, its image
// copied into the frame; with nil the owner sets FetchInto itself.
func New(capacity, pageSize int, fetch Fetch, writeBack WriteBack) *Pool {
	if capacity < 1 {
		panic("buffer: capacity must be positive")
	}
	bp := &Pool{
		capacity:  capacity,
		pageSize:  pageSize,
		Pages:     page.NewFreeList(pageSize, capacity),
		frames:    make(map[page.PageID]*Frame, capacity),
		writeBack: writeBack,
	}
	if fetch != nil {
		bp.FetchInto = func(p page.PageID, dst page.Buf) error {
			data, err := fetch(p)
			if err != nil {
				return err
			}
			if len(data) != len(dst) {
				return page.ErrBadSize
			}
			copy(dst, data)
			return nil
		}
	}
	bp.lru.prev, bp.lru.next = &bp.lru, &bp.lru
	return bp
}

// Stats returns a snapshot of the activity counters.
func (bp *Pool) Stats() Stats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// ResetStats zeroes the activity counters.
func (bp *Pool) ResetStats() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats = Stats{}
}

// Contains reports whether page p is resident.
func (bp *Pool) Contains(p page.PageID) bool {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	_, ok := bp.frames[p]
	return ok
}

// Frame returns the resident frame for p, or nil.  The caller must hold
// p's group latch (or exclude concurrency) while using the frame, which
// also keeps it from being evicted under the caller's feet — eviction
// try-acquires the same latch.
func (bp *Pool) Frame(p page.PageID) *Frame {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.frames[p]
}

// DirtyPages returns the ids of all dirty resident pages in ascending
// order, so checkpoint and EOT flush sequences are deterministic (a
// requirement for replayable crash-point schedules).
func (bp *Pool) DirtyPages() []page.PageID {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	var out []page.PageID
	for p, f := range bp.frames {
		if f.Dirty {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Get pins page p, fetching it on a miss (evicting the LRU unpinned frame
// admitted by guard if the pool is full).  Callers must Unpin when done.
// When every eviction candidate is blocked by the guard, Get yields and
// retries — the latch holders blocking it cannot in turn be waiting on
// this Get, so progress is guaranteed.
//
// The read of a miss runs with the pool mutex released (load), so callers
// must exclude one another per page — the engine's group latch does: a
// second Get of a page whose first is still loading would be handed the
// half-read frame.
func (bp *Pool) Get(p page.PageID, guard EvictGuard) (*Frame, error) {
	// Whatever leaves this function, a panic included, leaves it through
	// the deferred Unlock: the write-back and fetch callbacks below can
	// panic (fault-injection crash points fire inside disk I/O), and the
	// crash harness then needs to take the mutex again to drop the pool.
	// The two places that release it in between — the yield below and
	// load — retake it before they return or unwind, for that reason.
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for {
		if f, ok := bp.frames[p]; ok {
			bp.stats.Hits++
			f.unlink()
			f.linkAfter(&bp.lru)
			f.pins++
			return f, nil
		}
		if len(bp.frames) < bp.capacity {
			break
		}
		blocked, err := bp.evictOne(guard)
		if err != nil {
			return nil, err
		}
		if blocked {
			bp.mu.Unlock()
			runtime.Gosched()
			bp.mu.Lock()
		}
	}
	bp.stats.Misses++
	var f *Frame
	if n := len(bp.free); n > 0 {
		f, bp.free = bp.free[n-1], bp.free[:n-1]
		f.reset() // a discarded frame may have left dirty
	} else {
		f = &Frame{Data: page.NewBuf(bp.pageSize), Modifiers: make(map[page.TxID]struct{})}
	}
	// Resident and pinned before the read starts: the frame counts against
	// the capacity and no eviction picks it while it loads.
	f.Page, f.pins = p, 1
	f.linkAfter(&bp.lru)
	bp.frames[p] = f
	if err := bp.load(f); err != nil {
		return nil, fmt.Errorf("buffer: fetch page %d: %w", p, err)
	}
	return f, nil
}

// load (pool mutex held on entry and on return, released in between) reads
// the just-installed, pinned frame's page into its own buffer.  A read that
// fails — by error or by panic — takes the frame out again, so the pool is
// left as if the miss had never started.  DropAll may have emptied the pool
// meanwhile: then there is nothing to take out, and a read that succeeded
// all the same is ErrDropped — its frame is no longer the pool's, and an
// Unpin or FlushPage of the page would not find it.
func (bp *Pool) load(f *Frame) (err error) {
	loaded := false
	bp.mu.Unlock()
	defer func() {
		bp.mu.Lock()
		switch {
		case bp.frames[f.Page] != f:
			if loaded {
				err = ErrDropped
			}
		case !loaded:
			f.pins = 0
			bp.remove(f)
		}
	}()
	if err := bp.FetchInto(f.Page, f.Data); err != nil {
		return err
	}
	loaded = true
	return nil
}

// evictOne (pool mutex held) evicts the least recently used unpinned
// frame the guard admits, stealing it (via WriteBack) when dirty.  It
// returns blocked=true when at least one candidate was refused by the
// guard and none could be evicted — the caller should yield and retry.
// ErrNoFrames means every frame is pinned regardless of the guard.
func (bp *Pool) evictOne(guard EvictGuard) (blocked bool, err error) {
	for f := bp.lru.prev; f != &bp.lru; f = f.prev {
		if f.pins > 0 {
			continue
		}
		release := func() {}
		if guard != nil {
			rel, ok := guard(f.Page)
			if !ok {
				blocked = true
				continue
			}
			release = rel
		}
		if f.Dirty {
			bp.stats.Steals++
			if err := bp.writeBack(f); err != nil {
				release()
				return false, fmt.Errorf("buffer: steal page %d: %w", f.Page, err)
			}
			bp.markClean(f)
		}
		bp.remove(f)
		bp.stats.Evictions++
		release()
		return false, nil
	}
	if blocked {
		return true, nil
	}
	return false, ErrNoFrames
}

// Unpin releases one pin on page p.
func (bp *Pool) Unpin(p page.PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[p]
	if !ok || f.pins == 0 {
		panic(fmt.Sprintf("buffer: unpin of page %d not pinned", p))
	}
	f.pins--
}

// Modify records that tx is about to change the Data of f, a frame the
// caller has pinned and whose group latch it holds, and must precede the
// change: a clean frame first takes its disk version, a copy of Data as the
// array holds it, which it keeps until it is clean again.
func (bp *Pool) Modify(f *Frame, tx page.TxID) {
	if !f.Dirty {
		// Dirty changes only under the group latch the caller holds, so it
		// is read, and the page copied, outside the pool mutex.
		f.DiskVersion = bp.Pages.Get()
		copy(f.DiskVersion, f.Data)
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f.Dirty = true
	f.Modifiers[tx] = struct{}{}
}

// MarkClean marks frame f, whose group latch the caller holds, clean
// without a write-back: its Data is the array's page again (an abort
// rewound it to its disk version).
func (bp *Pool) MarkClean(f *Frame) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.markClean(f)
}

// markClean (pool mutex held) resets the frame's dirty bookkeeping once its
// Data is the array's page — after a successful write-back — and gives its
// disk version back.
func (bp *Pool) markClean(f *Frame) {
	f.reset()
	bp.dropDiskVersion(f)
}

// dropDiskVersion gives the frame's disk version, if it has one, back to
// the free list.  Nothing else holds it: a write-back that used it has
// returned.
func (bp *Pool) dropDiskVersion(f *Frame) {
	if f.DiskVersion != nil {
		bp.Pages.Put(f.DiskVersion)
		f.DiskVersion = nil
	}
}

// reset clears the frame's dirty bookkeeping.
func (f *Frame) reset() {
	f.Dirty = false
	f.Residue = false
	if len(f.Modifiers) > 0 {
		// A fresh map, not clear(): an emptied map keeps its slots, and a
		// large pool of mostly-clean frames would hold them for nothing.
		f.Modifiers = make(map[page.TxID]struct{})
	}
}

// remove takes the frame out of the pool, gives a discarded frame's disk
// version back, and queues the frame for the next miss, which overwrites
// its buffer.  Nothing may hold the frame past this point: a pinned frame
// is never evicted, and the engine discards only under the group latch
// every other user of the frame would need.
func (bp *Pool) remove(f *Frame) {
	if f.pins != 0 {
		panic(fmt.Sprintf("buffer: page %d leaves the pool with %d pin(s)", f.Page, f.pins))
	}
	f.unlink()
	delete(bp.frames, f.Page)
	bp.dropDiskVersion(f)
	bp.free = append(bp.free, f)
}

// FlushPage writes page p back if resident and dirty, leaving it resident
// and clean.  Used by FORCE at EOT and by checkpointing.  The write-back
// runs outside the pool mutex — the frame is pinned for its duration and
// the caller's group latch (or stop-the-world exclusivity) keeps its
// content stable — so concurrent commits flushing disjoint groups
// overlap their disk work.
func (bp *Pool) FlushPage(p page.PageID) error {
	return bp.FlushPageWith(p, bp.writeBack)
}

// FlushPageWith is FlushPage through the write the caller names instead of
// the pool's WriteBack: an EOT flush that has decided for a whole group
// which page is logged and which the redundancy covers hands each frame
// its part of that decision.
func (bp *Pool) FlushPageWith(p page.PageID, write WriteBack) error {
	bp.mu.Lock()
	f, ok := bp.frames[p]
	if !ok || !f.Dirty {
		bp.mu.Unlock()
		return nil
	}
	f.pins++
	bp.mu.Unlock()
	err := write(f)
	bp.mu.Lock()
	f.pins--
	if err == nil {
		bp.markClean(f)
	}
	bp.mu.Unlock()
	if err != nil {
		return fmt.Errorf("buffer: flush page %d: %w", p, err)
	}
	return nil
}

// FlushTogether writes a set of pages back as one combined unit,
// bypassing the per-frame WriteBack callback: the caller's write
// function receives every frame's contents (aligned with ps) and issues
// whatever disk protocol covers them jointly — the engine's full-stripe
// write uses this to fold a group's page flushes into a single parity
// update.  Like FlushPage, the write runs outside the pool mutex with
// every frame pinned; the caller must hold the pages' group latch so the
// contents stay stable.
//
// The combined write only makes sense when the caller can see all the
// data: if any page is not resident or not dirty, FlushTogether does
// nothing and returns false so the caller falls back to per-page
// flushing.  On success every frame is marked clean.
func (bp *Pool) FlushTogether(ps []page.PageID, write func(datas []page.Buf) error) (bool, error) {
	bp.mu.Lock()
	frames := make([]*Frame, len(ps))
	for i, p := range ps {
		f, ok := bp.frames[p]
		if !ok || !f.Dirty {
			bp.mu.Unlock()
			return false, nil
		}
		frames[i] = f
	}
	datas := make([]page.Buf, len(frames))
	for i, f := range frames {
		f.pins++
		datas[i] = f.Data
	}
	bp.mu.Unlock()
	err := write(datas)
	bp.mu.Lock()
	for _, f := range frames {
		f.pins--
		if err == nil {
			bp.markClean(f)
		}
	}
	bp.mu.Unlock()
	if err != nil {
		return true, fmt.Errorf("buffer: flush pages %v: %w", ps, err)
	}
	return true, nil
}

// FlushAll writes back every dirty frame accepted by filter (nil = all).
func (bp *Pool) FlushAll(filter func(*Frame) bool) error {
	for _, p := range bp.DirtyPages() {
		if filter != nil {
			f := bp.Frame(p)
			if f == nil || !f.Dirty {
				continue
			}
			if !filter(f) {
				continue
			}
		}
		if err := bp.FlushPage(p); err != nil {
			return err
		}
	}
	return nil
}

// Discard drops page p from the pool without writing it back.  Used when
// an abort invalidates a never-stolen modified page.
func (bp *Pool) Discard(p page.PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[p]; ok {
		bp.remove(f)
	}
}

// DiscardClean drops page p from the pool only if its frame is clean and
// unpinned.  The scrubber uses it after rewriting a block on the platter:
// a clean frame may predate the repair and must be refetched, while a
// dirty frame holds newer contents that will overwrite the platter on
// steal anyway, and a pinned frame is in active use under a group latch
// that excludes the scrubber in the first place.  Returns true if the
// frame was dropped.
func (bp *Pool) DiscardClean(p page.PageID) bool {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[p]; ok && !f.Dirty && f.pins == 0 {
		bp.remove(f)
		return true
	}
	return false
}

// Forget drops what the pool knows of page p's contents on the array,
// after the array gave the page up (zeroed it): a clean, unpinned frame
// leaves the pool, a dirty one gives its disk version back, so that its
// write-back re-reads the page (a=4) and folds the zeroed page, not the
// lost image, into the parity.  The caller holds p's group latch.
func (bp *Pool) Forget(p page.PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[p]
	switch {
	case !ok:
	case !f.Dirty && f.pins == 0:
		bp.remove(f)
	default:
		bp.dropDiskVersion(f)
	}
}

// DropAll empties the pool without writing anything — the buffer is
// volatile and this is what a system crash does to it.
func (bp *Pool) DropAll() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.frames = make(map[page.PageID]*Frame, bp.capacity)
	bp.lru.prev, bp.lru.next = &bp.lru, &bp.lru
}
