package rda

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dirtyset"
	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/record"
	"repro/internal/recovery"
	"repro/internal/txn"
	"repro/internal/wal"
)

// PageID addresses a logical database page: 0 ≤ p < DB.NumPages().
type PageID = uint32

// Errors returned by the engine.
var (
	// ErrCrashed reports an operation against a crashed database; call
	// Recover first.
	ErrCrashed = errors.New("rda: database has crashed; run Recover")
	// ErrTxDone reports use of a committed or aborted transaction handle.
	ErrTxDone = errors.New("rda: transaction already finished")
	// ErrDeadlock reports that the transaction was chosen as a deadlock
	// victim and has been aborted; start a new transaction to retry.
	ErrDeadlock = errors.New("rda: transaction aborted as deadlock victim")
	// ErrBadPage reports a page id outside the database.
	ErrBadPage = errors.New("rda: page id out of range")
	// ErrWrongMode reports a page operation on a record-mode database or
	// vice versa.
	ErrWrongMode = errors.New("rda: operation not available in this logging mode")
	// ErrDegraded reports an operation that needs the array's full
	// redundancy while a disk is down.  Finish the online rebuild
	// (RebuildStep) or run media recovery (RepairDisk) first.  Crash
	// recovery is NOT such an operation: Recover runs with a single
	// member down (degraded restart) and only a double loss
	// (ErrArrayFailed) refuses it.
	ErrDegraded = errors.New("rda: array is degraded")
	// ErrArrayFailed reports that a second disk failed while the array
	// was already degraded: parity redundancy is exhausted and affected
	// groups cannot be served until RepairDisks runs.
	ErrArrayFailed = diskarray.ErrArrayFailed
	// ErrUnrecoverableCorruption reports that a block failed end-to-end
	// verification and the group's redundancy could not reconstruct it
	// (a second corrupt or dead block in the same group).  The engine
	// returns this typed error rather than ever serving corrupt bytes;
	// affected groups need media recovery (RepairDisks restores
	// redundancy, losing the unreconstructable pages).
	ErrUnrecoverableCorruption = core.ErrUnrecoverableCorruption
)

// txState is the engine-side volatile state of one active transaction.
type txState struct {
	t *txn.Txn
	// beginLSN is the log's next LSN when the transaction began: every
	// record it appends lies at or past it.  Truncation keeps the log from
	// the beginLSN of the transaction the last durable floor names
	// (truncateLogLocked).  Set at Begin, never changed.
	beginLSN wal.LSN
	// locks is the lock manager this transaction acquires from, captured
	// at Begin.  After a crash Recover installs a fresh manager; releases
	// against the old, closed one are harmless no-ops, so a stale handle
	// can always clean up against the manager it actually used.
	locks *lock.Manager

	// mu guards the fields below: they are mutated not just by the owning
	// goroutine but by any operation that steals or demotes one of this
	// transaction's dirty pages.  mu is near the bottom of the lock order —
	// hold nothing but leaf locks (log, dirty set, transaction manager,
	// disks) while holding it, and in particular never the buffer pool's
	// internal mutex.
	mu sync.Mutex
	// undo is the transaction's undo table: one entry per page it modified,
	// in page order.  Only the owning goroutine adds entries (addUndo).  The
	// steals and demotions other goroutines perform on its pages only change
	// fields of existing entries, under mu and the page's group latch.
	// Commit and abort walk the table holding the latch of every group in
	// it, which excludes those, so they read it without mu.  The table comes
	// from DB.undoTables at the first modification and goes back at EOT
	// (releaseSnapshots), entries and all: the entries past its length are
	// a finished transaction's, for addUndo to reuse.
	undo []*undoEntry
	// commitSeq is the transaction's position in the engine's commit
	// order (assigned inside the latched EOT section; 0 until commit).
	// Under strict 2PL the commit order is a valid serialization order,
	// which is what the concurrency oracle replays.
	commitSeq int64
	// eotLSN is the EOT record's LSN when it was appended unforced
	// (group commit); Commit waits for the batched force to cover it
	// before acknowledging.  0 when the EOT was forced inline.
	eotLSN wal.LSN
	// lost lists the pages the transaction's rollback gave up (rollback).
	lost []page.PageID
}

// undoEntry is one page's undo in a transaction's table.
type undoEntry struct {
	page page.PageID
	// viaLog marks a page written to disk through the logging path; abort
	// must restore it on disk, not just in the buffer.
	viaLog bool
	// stolen is the page's on-disk contents just before its first steal
	// without UNDO logging — the before-image media recovery needs if the
	// group's committed parity twin is lost while the transaction is active
	// (a page from the store's free list; nil when there was no such steal).
	stolen page.Buf
	// images are the page's before-images in the form the log carries them:
	// one full-page image (Slot wal.NoSlot, a page from the store's free
	// list) under page logging, one encoded record image per slot, in slot
	// order, under record logging.  An image's LSN is its log position once
	// it is appended, 0 before.
	images []wal.Record
	// first backs images while the page has one image, as it always has
	// under page logging, so that an entry is one allocation.
	first [1]wal.Record
}

// reset empties e for reuse, keeping the backing of its images.
func (e *undoEntry) reset() {
	clear(e.images)
	imgs := e.images[:0]
	if imgs == nil {
		imgs = e.first[:0]
	}
	*e = undoEntry{images: imgs}
}

// search returns where page p's entry is, or would go, in st's undo
// table.  The caller holds st.mu.
func (st *txState) search(p page.PageID) (int, bool) {
	return slices.BinarySearchFunc(st.undo, p, func(e *undoEntry, q page.PageID) int { return cmp.Compare(e.page, q) })
}

// undoOf returns page p's entry in st's undo table, or nil.  The caller
// holds st.mu, or every group latch of the table (commit, abort).
func (st *txState) undoOf(p page.PageID) *undoEntry {
	if i, ok := st.search(p); ok {
		return st.undo[i]
	}
	return nil
}

// hasUndo reports whether st's table holds a before-image of (p, slot).
func (st *txState) hasUndo(p page.PageID, slot int32) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.undoOf(p)
	return e != nil && slices.ContainsFunc(e.images, func(r wal.Record) bool { return r.Slot == slot })
}

// firstLogged returns the LSN of the first of st's before-images on the
// log, or 0 when none is.  The caller holds every group latch of the
// table (commit, abort).
func (st *txState) firstLogged() wal.LSN {
	var first wal.LSN
	for _, e := range st.undo {
		for _, r := range e.images {
			if r.LSN != 0 && (first == 0 || r.LSN < first) {
				first = r.LSN
			}
		}
	}
	return first
}

// addUndo enters r, a before-image of (r.Page, r.Slot) the table does not
// hold yet, keeping the table in page order and each page's images in slot
// order, and returns the page's entry.  Only the owning goroutine calls it,
// holding st.mu.
func (st *txState) addUndo(r wal.Record) *undoEntry {
	i, ok := st.search(r.Page)
	if !ok {
		var e *undoEntry
		if n := len(st.undo); n < cap(st.undo) {
			e = st.undo[:n+1][n] // a finished transaction's, reset
		}
		if e == nil {
			e = &undoEntry{}
			e.images = e.first[:0]
		}
		e.page = r.Page
		st.undo = slices.Insert(st.undo, i, e)
	}
	e := st.undo[i]
	j, _ := slices.BinarySearchFunc(e.images, r.Slot, func(x wal.Record, slot int32) int { return cmp.Compare(x.Slot, slot) })
	e.images = slices.Insert(e.images, j, r)
	return e
}

// DB is a database instance.  It is safe for concurrent use by multiple
// goroutines, each running its own transactions; transactions touching
// disjoint parity groups proceed in parallel.
//
// Synchronization is layered (see DESIGN.md "The latching hierarchy"):
//
//   - gate, a stop-the-world RWMutex: every transactional operation holds
//     it shared, while whole-engine transitions — Crash, Recover,
//     checkpoints, health transitions, disk repair, maintenance — hold it
//     exclusively.  The online rebuild's and scrub's batches run on the
//     shared side under group latches.
//   - latches, one per parity group: the short-term physical locks that
//     serialize one protocol step on a group (read, small write, steal,
//     demotion, twin flip).  Blocking acquisition is group-ascending;
//     eviction try-acquires out of order.
//   - mu, a short-hold guard for the genuinely global leftovers: the
//     active-transaction table and checkpoint bookkeeping.  Never held
//     across I/O.
//   - each txState carries its own mutex for bookkeeping that other
//     operations mutate when they steal or demote the transaction's
//     pages.
type DB struct {
	cfg Config

	// gate is the recovery gate (see the type comment).
	gate sync.RWMutex
	// rebuildMu lets one RebuildStep run at a time: a step picks its batch
	// from the restored-group flags its own lanes write.  Recover takes it
	// too, before the gate: a restart re-adopts the generation a step's
	// last batch ran under with every restored flag wiped, so it must not
	// land between that batch and the transition that ends the rebuild.
	rebuildMu sync.Mutex
	// latches is the per-parity-group latch table; latchSets recycles the
	// operations' latch sets over it (hold, unhold).
	latches   *latch.Table
	latchSets spares[*opLatches]
	// undoTables holds finished transactions' emptied undo tables
	// (txState.undo).
	undoTables spares[[]*undoEntry]

	// mu guards states, floors, lastCkptLSN, recoveries and scrubCursor.
	// Begin takes it to give out an id and enter the transaction in states
	// at once, and a record carrying the durable floor is appended under
	// it, so the floors appear on the log in the order they were computed.
	mu sync.Mutex

	arr   *diskarray.Array
	store *core.Store
	log   *wal.Log
	// forcer batches EOT log forces; non-nil exactly when
	// Config.GroupCommitWindow > 0.  The EOT record is then appended
	// unforced and Commit waits on the forcer before acknowledging;
	// without it the EOT is a forced append.  After-images are appended
	// unforced on every configuration and ride the EOT's force.
	// Undo-critical records (before-images, checkpoints, aborts) are
	// always forced inline.
	forcer *wal.Forcer
	tm     *txn.Manager
	// locks and pool are replaced by Recover; operations read them under
	// the shared gate, Recover writes them under the exclusive gate.
	locks  *lock.Manager
	pool   *buffer.Pool
	states map[page.TxID]*txState
	// crashed is written under the exclusive gate and read under the
	// shared one.
	crashed bool
	// dirtyCrash marks a crash that interrupted a block I/O (CrashHard);
	// Recover then runs the torn-repair and parity-resync passes.
	dirtyCrash bool
	// adopted is the array's health generation the store serves
	// (syncHealth), or forgotten; written under the exclusive gate, read
	// under the shared one and, by an operation's self-healing retry,
	// under none.
	adopted atomic.Uint64

	// commitSeq issues commit-order positions (see txState.commitSeq).
	commitSeq atomic.Int64

	// floors holds the durable floors the engine put on the log
	// (floorStamp), oldest first: floors[0] is the newest one known
	// durable, the rest ride records a force has not yet covered (a group
	// commit's EOT).  Truncation acts on floors[0] alone.
	floors []floorStamp
	// lastCkptLSN is the log position of the last checkpoint record,
	// bounding log truncation.
	lastCkptLSN wal.LSN
	recoveries  int64

	// scrubCursor is the next parity group the online scrubber will
	// verify; it wraps at NumGroups, marking a completed scrub cycle.
	scrubCursor int
}

// Open creates (and formats) a database.
func Open(cfg Config) (*DB, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	var kind diskarray.Kind
	switch {
	case cfg.Layout == DataStriping && cfg.RDA:
		kind = diskarray.RAID5Twin
	case cfg.Layout == DataStriping:
		kind = diskarray.RAID5
	case cfg.RDA:
		kind = diskarray.ParityStripeTwin
	default:
		kind = diskarray.ParityStripe
	}
	arr, err := diskarray.New(diskarray.Config{
		Kind: kind, DataDisks: cfg.DataDisks, NumPages: cfg.NumPages, PageSize: cfg.PageSize,
		QParity: cfg.QParity,
	})
	if err != nil {
		return nil, fmt.Errorf("rda: %w", err)
	}
	db := &DB{
		cfg:     cfg,
		arr:     arr,
		latches: latch.New(arr.NumGroups()),
		log:     wal.New(wal.Config{LogPageSize: cfg.LogPageSize, WriteCost: cfg.LogWriteCost, Packed: cfg.PackedLog}),
		tm:      txn.NewManager(),
		locks:   lock.New(),
		states:  make(map[page.TxID]*txState),
		floors:  []floorStamp{{keep: 1}},
	}
	db.store = core.NewStore(arr, db.log, db.tm)
	db.store.Workers = cfg.Workers
	arr.SetLatency(cfg.IODelay)
	if cfg.QueueDepth > 1 {
		arr.StartQueues(cfg.QueueDepth, cfg.QueueWindow)
	}
	if cfg.GroupCommitWindow > 0 {
		db.forcer = wal.NewForcer(db.log, cfg.GroupCommitWindow)
		// With batching on, each physical log force costs one device
		// service time; without it, log cost stays purely in the
		// transfer accounting, as the seed model had it.
		db.log.SetForceDelay(cfg.IODelay)
	}
	db.pool = db.newPool()
	if cfg.Logging == RecordLogging {
		if err := db.formatRecordPages(); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// newPool builds a buffer pool wired to the engine's fetch and steal
// policies.  Its dirty frames keep their disk versions, under FORCE and
// ¬FORCE alike, so a write-back is the paper's a=3 small write; the paper
// prices ¬FORCE at a=4 (Section 5.2.2), which the engine pays only for a
// frame whose disk version was forgotten (forgetLost).  The versions come
// from the pool's own free list, which keeps up to a page per frame: the
// hundreds a ¬FORCE checkpoint hands back at once wait there for the
// frames dirtied next, instead of overflowing the store's list.
func (db *DB) newPool() *buffer.Pool {
	p := buffer.New(db.cfg.BufferFrames, db.cfg.PageSize, nil, db.writeBack)
	// A miss reads straight into its frame, outside the pool's mutex; only
	// a repaired image comes back in a page of its own.
	p.FetchInto = func(id page.PageID, dst page.Buf) error {
		b, err := db.store.ReadPage(id, dst)
		if err == nil && &b[0] != &dst[0] {
			copy(dst, b)
		}
		return err
	}
	return p
}

// snapshotPage returns a copy of src in a page from the store's free
// list: a transaction's full-page before-images and pre-steal images
// (undoEntry) are drawn from it and return to it at commit or abort.
func (db *DB) snapshotPage(src page.Buf) page.Buf {
	b := db.store.Pages.Get()
	copy(b, src)
	return b
}

// releaseSnapshots hands a finished transaction's page images back to the
// free list and its emptied undo table to DB.undoTables.  The caller has
// removed st from the transaction table under the latches of every group
// it modified, so nothing can reach the images or the entries any more:
// log records and disk blocks hold copies, never these buffers.
func (db *DB) releaseSnapshots(st *txState) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.undo == nil {
		return
	}
	for _, e := range st.undo {
		for _, r := range e.images {
			if r.Slot == wal.NoSlot {
				db.store.Pages.Put(r.Image)
			}
		}
		if e.stolen != nil {
			db.store.Pages.Put(e.stolen)
		}
		e.reset()
	}
	db.undoTables.put(st.undo[:0])
	st.undo = nil
}

// formatRecordPages initializes every data page with the fixed-slot
// record layout and recomputes parity.  Like array formatting this is
// factory work: it is not charged to the statistics.
func (db *DB) formatRecordPages() error {
	buf := page.NewBuf(db.cfg.PageSize)
	if err := record.Format(buf, db.cfg.RecordSize); err != nil {
		return fmt.Errorf("rda: %w", err)
	}
	for p := 0; p < db.arr.NumPages(); p++ {
		if err := db.arr.WriteData(page.PageID(p), buf, disk.Meta{}); err != nil {
			return fmt.Errorf("rda: format page %d: %w", p, err)
		}
	}
	for g := 0; g < db.arr.NumGroups(); g++ {
		for twin := 0; twin < db.arr.ParityPages(); twin++ {
			meta, err := db.arr.PeekMeta(page.GroupID(g), diskarray.P.Twin(twin))
			if err != nil {
				return err
			}
			if err := db.store.RecomputeIndex(page.GroupID(g), twin, meta); err != nil {
				return err
			}
		}
	}
	db.arr.ResetStats()
	return nil
}

// Config returns the database's effective configuration (with defaults
// applied).
func (db *DB) Config() Config { return db.cfg }

// NumPages returns the number of addressable data pages (at least the
// configured NumPages; capacity rounds up to whole parity groups).
func (db *DB) NumPages() int { return db.arr.NumPages() }

// PageSize returns the page size in bytes.
func (db *DB) PageSize() int { return db.cfg.PageSize }

// NumGroups returns the number of parity groups in the array — the unit
// of redundancy, scrubbing and rebuild.
func (db *DB) NumGroups() int { return db.arr.NumGroups() }

// RecordsPerPage returns the record capacity of each page in record
// mode, and 0 in page mode.
func (db *DB) RecordsPerPage() int {
	if db.cfg.Logging != RecordLogging {
		return 0
	}
	return record.Capacity(db.cfg.PageSize, db.cfg.RecordSize)
}

// NumDisks returns the number of physical disks in the array.
func (db *DB) NumDisks() int { return db.arr.NumDisks() }

// getState looks up the engine-side state of an active transaction.
func (db *DB) getState(id page.TxID) *txState {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.states[id]
}

// underGroup runs fn holding the recovery gate shared and the latch of
// page p's parity group — the standard envelope of every single-page
// transactional step.  The latch set is passed to fn so nested work
// (buffer eviction, through its guard) can try-extend it.
func (db *DB) underGroup(p page.PageID, fn func(h *opLatches) error) error {
	db.gate.RLock()
	defer db.gate.RUnlock()
	if db.crashed {
		return ErrCrashed
	}
	h := db.hold()
	defer db.unhold(h)
	h.Acquire(db.arr.GroupOf(p))
	return fn(h)
}

// opLatches is the latch set of one engine operation — a latch.Held —
// with the buffer pool's eviction guard bound to it.  Operations take one
// from DB.hold and hand it back through DB.unhold, so an operation builds
// neither the set nor the guard: both guard functions are method values
// made once per set.
type opLatches struct {
	*latch.Held
	arr *diskarray.Array
	// guard is admit; unlatchVictim is releaseVictim, which admit hands
	// the pool for a victim it latched.
	guard         buffer.EvictGuard
	unlatchVictim func()
	// victim is the group admit latched for the eviction in progress (an
	// operation evicts one frame at a time).
	victim page.GroupID
}

// hold returns an empty latch set for one operation, a recycled one when
// there is one.
func (db *DB) hold() *opLatches {
	if h, ok := db.latchSets.get(); ok {
		return h
	}
	h := &opLatches{Held: db.latches.NewHeld(), arr: db.arr}
	h.guard, h.unlatchVictim = h.admit, h.releaseVictim
	return h
}

// unhold releases every latch of h and keeps h for a later operation.
// Meant to be deferred at operation entry, so a fault-injection panic
// unwinds cleanly; nothing may use h afterwards.
func (db *DB) unhold(h *opLatches) {
	h.ReleaseAll()
	db.latchSets.put(h)
}

// admit is the buffer pool's eviction guard for the operation holding h:
// a victim in an already-held group is admitted outright, any other group
// is try-latched for the duration of the steal, and a contended latch
// skips the victim (the pool then tries the next one).
func (h *opLatches) admit(p page.PageID) (func(), bool) {
	g := h.arr.GroupOf(p)
	switch {
	case h.Holds(g):
		return func() {}, true
	case h.TryAcquire(g):
		h.victim = g
		return h.unlatchVictim, true
	}
	return nil, false
}

// releaseVictim unlatches the group admit latched for an eviction.
func (h *opLatches) releaseVictim() { h.Release(h.victim) }

// spares is a stack of idle values of one kind — operations' latch sets,
// finished transactions' undo tables — that later ones reuse, safe for
// concurrent use.  It keeps what it is handed back, at most as many as
// were ever in use at once.
type spares[T any] struct {
	mu   sync.Mutex
	idle []T
}

// get takes an idle value, or reports false when there is none.
func (s *spares[T]) get() (T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var v T
	n := len(s.idle)
	if n == 0 {
		return v, false
	}
	v, s.idle[n-1] = s.idle[n-1], v
	s.idle = s.idle[:n-1]
	return v, true
}

// put hands v back for a later get.
func (s *spares[T]) put(v T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idle = append(s.idle, v)
}

// healWorld is the operation-level half of the self-healing retry
// discipline: after an I/O error escapes an operation that ran under
// adopted generation *seen, it takes the exclusive gate, adopts the
// array's health (syncHealth), and reports whether the engine now serves a
// generation the operation did not run under — adopted here or by another
// operation that failed on the same loss first — moving *seen to it: the
// failed operation is worth exactly one retry, served as that health says.
// The caller must hold no gate or latches.
func (db *DB) healWorld(seen *uint64) bool {
	db.gate.Lock()
	defer db.gate.Unlock()
	if db.crashed {
		return false
	}
	db.syncHealth()
	if g := db.adopted.Load(); g != *seen {
		*seen = g
		return true
	}
	return false
}

// forgotten is an adopted generation no array health matches: what Recover
// sets before it adopts the array's health afresh.
const forgotten = ^uint64(0)

// syncHealth is the engine's one adoption of the array's health, called
// with the exclusive gate held.  When the array's health generation has
// moved since the last adoption and the array has not failed, the store
// takes its down set as the one to serve around (core.Store.EnterDegraded:
// an empty set is healthy serving, a non-empty one starts the restored
// flags over), and with drives down every dirty group is demoted to
// logged UNDO, as the policy's disk-loss rows say (DESIGN.md §5).  A Failed array is not adopted: the store keeps serving the last
// snapshot until RepairDisks.  Returns true when a generation was adopted:
// the caller's failed operation is worth exactly one retry under it.
//
// The generation is the whole reconciliation.  A replacement drive dying
// mid-rebuild moves the array from Rebuilding back to Degraded over the
// same down set, a second death grows it, a crash forgets the adopted one:
// each re-enters degraded serving from scratch, so no group restored onto
// a drive since lost is trusted, and the next rebuild reconstructs every
// group.
func (db *DB) syncHealth() bool {
	h, down, gen := db.arr.HealthView()
	if gen == db.adopted.Load() || h == diskarray.Failed {
		return false
	}
	db.adopted.Store(gen)
	// Degraded serving is entered first, so that the demotions below see
	// which redundancy slots the loss took (core.Store.SlotAlive).
	db.store.EnterDegraded(down...)
	if len(down) == 0 {
		return true // healthy serving: no redundancy lost, nothing to demote
	}
	for g := 0; g < db.arr.NumGroups(); g++ {
		v, e := db.store.ViewOf(core.DiskLoss, page.GroupID(g), 0, 0)
		if core.Decide(v) == core.DemoteOnly {
			// A demotion that fails on the dead disk or a second one still
			// leaves the steal a log-based undo path: demoteNoLogSteal logs
			// the owner's UNDO material before its first disk write.
			_ = db.demoteNoLogSteal(page.GroupID(g), e)
		}
	}
	return true
}

// frameView is the write-back policy's view (core.View) of frame f leaving
// the pool, with its modifiers, the state of the one a steal would be on
// behalf of, and the group's Dirty_Set entry.  It, groupView and
// core.Store.ViewOf are where the engine reads the policy's inputs; every
// write path carries out what core.Decide answers.
func (db *DB) frameView(f *buffer.Frame) (v core.View, mods []page.TxID, owner *txState, e dirtyset.Entry) {
	mods = f.ModifierList()
	n, tx := len(mods), page.TxID(0)
	if n == 1 && db.cfg.RDA {
		if owner = db.getState(mods[0]); owner == nil {
			n = 0 // a finished modifier: nothing to steal for
		} else {
			tx = owner.t.ID
		}
	}
	v, e = db.store.ViewOf(core.PageWriteBack, db.arr.GroupOf(f.Page), f.Page, tx)
	v.Modifiers, v.Residue = min(n, 2), f.Residue
	return v, mods, owner, e
}

// writeBack is the STEAL policy's executor: the buffer pool calls it for
// every dirty frame leaving the pool (replacement, EOT forcing, checkpoint
// flushing), and it writes the frame as core.Decide answers (DESIGN.md §5,
// "Write-back policy", is the table).  The caller holds the frame's group
// latch (or the exclusive gate), which serializes the group's steal
// protocol; a failure that kills a disk surfaces to the operation, whose
// healWorld retry re-runs the write-back through the degraded protocol
// (the lazy log appends are idempotent).
func (db *DB) writeBack(f *buffer.Frame) error { return db.writeFrame(f, nil) }

// writeFrame writes frame f back as the policy decides, as the last link of
// chain c when an EOT flush runs one through the group (flushChain), on its
// own when c is nil.
func (db *DB) writeFrame(f *buffer.Frame, c *core.Chain) error {
	v, mods, owner, e := db.frameView(f)
	switch core.Decide(v) {
	case core.Steal:
		return db.stealFrame(f, owner, c)
	case core.DemoteThenLog, core.DemoteThenCommit:
		if err := db.demoteNoLogSteal(db.arr.GroupOf(f.Page), e); err != nil {
			return err
		}
	}
	// Logged, or committed: logFrame with no active modifier logs nothing.
	return db.logFrame(f, mods, c)
}

// stealFrame is the RDA no-logging write of frame f on behalf of st, as the
// last link of chain c when an EOT flush runs one through the group
// (flushChain), on its own when c is nil.
func (db *DB) stealFrame(f *buffer.Frame, st *txState, c *core.Chain) error {
	oldOnDisk := f.DiskVersion
	if oldOnDisk == nil {
		var err error
		if oldOnDisk, err = db.store.ReadPage(f.Page, nil); err != nil {
			return err
		}
	}
	// The before-image bookkeeping is shared across the owner's
	// goroutines and serializes under st.mu; the steal's disk
	// transfers touch only per-group state and run outside it, so
	// a pipelined commit's per-group flushes overlap.
	st.mu.Lock()
	if e := st.undoOf(f.Page); e.stolen == nil {
		e.stolen = db.snapshotPage(oldOnDisk)
	}
	st.mu.Unlock()
	return db.store.StealNoLog(f.Page, f.Data, oldOnDisk, st.t, c)
}

// logFrame is the logging write of frame f: every active modifier's UNDO
// material for the page goes to the log first, then the page is written in
// place (a frame without a disk version: the store re-reads it, a=4) — as a
// link of chain c when an EOT flush runs one through the group (flushChain),
// on its own when c is nil.
func (db *DB) logFrame(f *buffer.Frame, mods []page.TxID, c *core.Chain) error {
	for _, m := range mods {
		st := db.getState(m)
		if st == nil {
			continue
		}
		db.logUndo(st, f.Page, true)
	}
	return db.store.WriteLogged(f.Page, f.Data, f.DiskVersion, c)
}

// ensureUndoLogged appends e's before-images that are not on the log yet,
// in slot order, and returns the last one's LSN (0 when none was
// appended).  Unforced they go to the volatile log tail, and the caller
// MUST force the log past the returned LSN before any disk write they
// cover — a FORCE commit's flush does, with a single force for its whole
// batch (logAhead), which is what folds k before-image forces into one log
// write.  The caller holds the owner's st.mu.
func (db *DB) ensureUndoLogged(e *undoEntry, forced bool) wal.LSN {
	var last wal.LSN
	for i := range e.images {
		r := &e.images[i]
		if r.LSN != 0 {
			continue
		}
		// The log encodes the image before Append returns.
		if forced {
			r.LSN = db.log.Append(*r)
		} else {
			r.LSN = db.log.AppendUnforced(*r)
		}
		last = r.LSN
	}
	return last
}

// logUndo puts st's UNDO material for page p on the log ahead of a write
// of p through the logging path — a write-back, a demotion, a FORCE
// flush's batch — and marks the page as written that way, so an abort
// restores it on disk.  It returns ensureUndoLogged's LSN.
func (db *DB) logUndo(st *txState, p page.PageID, forced bool) wal.LSN {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.undoOf(p)
	if e == nil {
		return 0 // the transaction never modified p
	}
	e.viaLog = true
	return db.ensureUndoLogged(e, forced)
}

// demoteNoLogSteal converts a page's no-UNDO-logging steal into a logged
// one.  The owning transaction's retained before-image(s) go to the log,
// the working parity twin — which already describes the on-disk data —
// is committed on disk and promoted in the bitmap, and the group returns
// to the clean state.  From here on the group is shared and every
// recovery path for it is log-based.  Both the record-mode sharing path
// and any write-back into a dirty group use this.  Callers hold the
// group's latch (or the exclusive gate), which excludes the owner's
// commit and abort — the dirty page is in the owner's undo table, so
// its EOT holds this latch too.
//
// Ordering invariant: the log appends (the before-images) happen before
// the first disk write, and log appends cannot fail.  A demotion
// interrupted by a disk failure therefore always leaves the steal with a
// complete log-based undo path; syncHealth relies on this when it
// swallows a demotion error on the way into degraded serving, and
// TestDemoteLogsUndoBeforeDisk locks the ordering in.
func (db *DB) demoteNoLogSteal(g page.GroupID, e dirtyset.Entry) error {
	owner := db.getState(e.Txn)
	if owner == nil {
		return fmt.Errorf("rda: dirty group %d owned by unknown txn %d", g, e.Txn)
	}
	db.logUndo(owner, e.Page, true)
	meta := disk.Meta{State: disk.StateCommitted, Timestamp: db.tm.NextTimestamp()}
	// The working index already describes the on-disk data: when its P
	// slot survives it is laundered to committed in place.  When the
	// working P is the group's lost block — its data page is reachable and
	// already holds the stolen value — the other index is recomputed
	// wholesale to describe the on-disk group and committed in its place.
	// With both P slots dead (double-degraded) the same two choices fall to
	// the Q slots: the working Q was written in lockstep just before its P
	// partner and describes the on-disk data too.
	alive := func(eq diskarray.Eq, twin int) bool {
		return db.store.SlotAlive(g, eq.Twin(twin))
	}
	working, other := e.WorkingTwin, 1-e.WorkingTwin
	target := working
	var err error
	switch {
	case alive(diskarray.P, working), !alive(diskarray.P, other) && alive(diskarray.Q, working):
		err = db.store.WriteIndexMeta(g, working, meta)
	case alive(diskarray.P, other), alive(diskarray.Q, other):
		target = other
		err = db.store.RecomputeIndex(g, other, meta)
	default:
		// Unreachable within the loss budget: two down disks cannot take
		// all four redundancy blocks of one group.
		err = errors.New("no surviving redundancy index")
	}
	if err != nil {
		return fmt.Errorf("rda: demote group %d: %w", g, err)
	}
	db.store.Twins.Promote(g, target)
	db.store.Dirty.Clean(g)
	return nil
}

// flushAllHealing flushes every dirty frame, retrying once through
// degraded entry when the flush kills a disk.  Called with the exclusive
// gate held (checkpoints, scrub).
func (db *DB) flushAllHealing() error {
	err := db.pool.FlushAll(nil)
	if err != nil && db.syncHealth() {
		err = db.pool.FlushAll(nil)
	}
	return err
}

// floorStamp is one durable floor the engine put on the log: the record
// at lsn was appended with floor f (wal.Record.Floor), which holds once
// that record is durable, and every record below keep belongs to a
// transaction below f — keep is the beginLSN of transaction f, or the
// position just past the record when f had not begun.
type floorStamp struct {
	lsn, keep wal.LSN
	f         page.TxID
}

// floorLocked returns the durable floor a record appended now may carry —
// the lowest id among the active transactions other than decided, the one
// the record itself decides (nil for none), or the next id when there is
// none — and the beginLSN of that transaction (0 for the next id).
// Called with db.mu held.
func (db *DB) floorLocked(decided *txState) (f page.TxID, keep wal.LSN) {
	f = db.tm.NextID()
	for id, st := range db.states {
		if st != decided && id < f {
			f, keep = id, st.beginLSN
		}
	}
	return f, keep
}

// stampLocked remembers floor f, with the keep floorLocked returned for it,
// as holding once the log is durable up to lsn, the record just appended
// there.  Called with db.mu held.
func (db *DB) stampLocked(lsn wal.LSN, f page.TxID, keep wal.LSN) {
	if keep == 0 {
		keep = lsn + 1
	}
	db.floors = append(db.floors, floorStamp{lsn: lsn, keep: keep, f: f})
}

// appendBracket appends st's EOT or abort record (t), forced or not,
// carrying the durable floor, and returns its LSN.
func (db *DB) appendBracket(t wal.Type, st *txState, forced bool) wal.LSN {
	db.mu.Lock()
	defer db.mu.Unlock()
	f, keep := db.floorLocked(st)
	r := wal.Bracket(t, st.t.ID, f)
	var lsn wal.LSN
	if forced {
		lsn = db.log.Append(r)
	} else {
		lsn = db.log.AppendUnforced(r)
	}
	db.stampLocked(lsn, f, keep)
	return lsn
}

// truncateLogLocked discards the log prefix no recovery can need: every
// record below the Begin of the transaction the last durable floor names,
// all of which belong to decided transactions below it, under ¬FORCE also
// nothing from the last checkpoint on.  A floor whose record no force has
// covered yet (a group commit's EOT) is not acted on.  The floor goes to
// the log's anchor before the records that carried it go.  Called with
// db.mu held.
func (db *DB) truncateLogLocked() {
	forced := db.log.ForcedLSN()
	i := 0
	for i+1 < len(db.floors) && db.floors[i+1].lsn <= forced {
		i++
	}
	if i > 0 {
		db.floors = append(db.floors[:0], db.floors[i:]...)
	}
	d := db.floors[0]
	bound := d.keep
	if db.cfg.EOT == NoForce {
		if db.lastCkptLSN == 0 {
			return
		}
		bound = min(bound, db.lastCkptLSN)
	}
	db.log.SetFloor(d.f)
	db.log.Truncate(bound)
}

// latchUndo latches the parity groups of every page in st's undo table —
// the groups the transaction modified — for its EOT.
func (db *DB) latchUndo(h *opLatches, st *txState) {
	var buf [16]page.GroupID
	groups := buf[:0]
	st.mu.Lock()
	for _, e := range st.undo {
		// Adjacent pages share a group under data striping; Acquire sorts
		// and skips the rest.
		if g := db.arr.GroupOf(e.page); len(groups) == 0 || groups[len(groups)-1] != g {
			groups = append(groups, g)
		}
	}
	st.mu.Unlock()
	h.Acquire(groups...)
}

// Checkpoint takes a checkpoint.  Under ¬FORCE this is the paper's
// action-consistent checkpoint (ACC): all dirty buffer pages are written
// back (through the steal policy) and a checkpoint record listing the
// active transactions is logged.  Under FORCE checkpoints are
// transaction-oriented and implicit, so this simply flushes and logs a
// marker, which is harmless.  Periodic checkpoints are the caller's to
// take: the Section 5 model computes the optimal interval in page
// transfers (model.Result.Interval), and a trace replay takes one at
// that interval through trace.Options.CheckpointEvery.
func (db *DB) Checkpoint() error {
	db.gate.Lock()
	defer db.gate.Unlock()
	if db.crashed {
		return ErrCrashed
	}
	if err := db.flushAllHealing(); err != nil {
		return fmt.Errorf("rda: checkpoint flush: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.checkpointLocked(db.tm.Active())
	return nil
}

// checkpointLocked appends a forced checkpoint record listing active and
// carrying the durable floor, makes it the last checkpoint and truncates
// the log.  Called with db.mu held.
func (db *DB) checkpointLocked(active []page.TxID) {
	f, keep := db.floorLocked(nil)
	db.lastCkptLSN = db.log.Append(wal.Checkpoint(f, active))
	db.stampLocked(db.lastCkptLSN, f, keep)
	db.truncateLogLocked()
}

// Crash simulates a system crash: every main-memory structure — buffer,
// lock table, active transactions, Dirty_Set, current-parity bitmap — is
// lost.  The disks and the log survive.  All outstanding transaction
// handles become unusable.
//
// Crash may race in-flight transactions: it waits (via the exclusive
// gate) for operations inside the engine to finish their current step,
// and closing the lock manager wakes transactions blocked in 2PL waits
// — which happen outside the gate precisely so this cannot deadlock.
func (db *DB) Crash() {
	db.gate.Lock()
	defer db.gate.Unlock()
	db.crashLocked()
}

func (db *DB) crashLocked() {
	db.pool.DropAll()
	db.store.ResetVolatile()
	db.locks.Close()
	db.tm.Reset()
	// The unforced log tail is main memory: a crash loses it.  Commits
	// waiting on a batched force observe db.crashed afterwards and report
	// ErrCrashed instead of success.
	db.log.DropUnforced()
	// Clear per-drive queue poisoning so recovery's I/O is served; the
	// exclusive gate guarantees the queues are idle here (every submitted
	// request is awaited by its issuer before the gate is released).
	db.arr.ResetQueues()
	db.mu.Lock()
	db.states = make(map[page.TxID]*txState)
	db.mu.Unlock()
	db.crashed = true
}

// CrashHard simulates a power failure in the middle of a block I/O.  The
// fault plane's crash points panic out of a disk write; the harness
// recovers the sentinel and calls CrashHard.  Every lock on the panicking
// goroutine's path — the shared gate, group latches, the pool's internal
// mutex, per-disk mutexes — is released by defers during the unwind, so
// taking the exclusive gate here is sound even with other transactions in
// flight (they either finish their current step or are woken from lock
// waits with ErrClosed).  Recover afterwards runs the extra mid-I/O
// repair passes (torn blocks, parity resync) that Crash's quiescent
// restarts never need.
func (db *DB) CrashHard() {
	db.gate.Lock()
	defer db.gate.Unlock()
	db.crashLocked()
	db.dirtyCrash = true
}

// SetInjector installs (or, with nil, removes) a fault injector on every
// drive of the array.  Install after Open so formatting I/O is not
// observed; schedules then count only workload writes.
func (db *DB) SetInjector(inj disk.Injector) {
	db.gate.Lock()
	defer db.gate.Unlock()
	db.arr.SetInjector(inj)
}

// RecoveryReport summarizes a restart.
type RecoveryReport struct {
	// Losers are the transactions rolled back: those the log shows
	// undecided, and those at or above the durable floor whose steals the
	// platter shows though the log never saw them.  A transaction whose
	// changes never left the buffer leaves nothing to find or undo.
	Losers int
	// UndoneViaParity counts pages restored from twin parity (RDA).
	UndoneViaParity int
	// UndoneViaLog counts before-images written back.
	UndoneViaLog int
	// Redone counts after-images replayed (¬FORCE).
	Redone int
	// RedonePages counts the distinct pages those images touch: REDO reads
	// each once and replays all of its images on the copy.
	RedonePages int
	// RedoneWrites counts the pages among them that REDO had to write; the
	// rest already held, byte for byte, what their images produce (they
	// were written back before the crash) and cost one read.
	RedoneWrites int
	// LaunderedTwins counts winners' working twins promoted to committed
	// on disk (RDA): steals whose writer's EOT the header had not caught up
	// with.
	LaunderedTwins int
	// RepairedTorn counts torn blocks rebuilt from redundancy (mid-I/O
	// crashes only).
	RepairedTorn int
	// ResyncedGroups counts groups whose parity was resynchronized with
	// the on-disk data (mid-I/O crashes only).
	ResyncedGroups int
	// UndoneViaReconstruction counts loser pages undone by reconstruction
	// from surviving members because a group member sat on the dead disk
	// (degraded restarts only).
	UndoneViaReconstruction int
	// DeferredParityGroups counts groups whose parity member is on the
	// down disk: recovery re-established the surviving parity only, and
	// the restarted online rebuild recomputes the lost member (degraded
	// restarts only).
	DeferredParityGroups int
	// LostPages lists pages whose contents exceeded the surviving
	// redundancy (a disk death at the crash, corrupt blocks beside a
	// loser's steal): zeroed, parity made consistent — explicit, reported
	// loss, never silent corruption.
	LostPages []PageID
	// Passes lists the restart's passes in the order they ran, each with the
	// array transfers it made and the time it took; they sum to the
	// restart's transfers.  A mid-I/O restart's drive probe comes first.
	Passes []RecoveryPass
}

// RecoveryPass is one pass of a restart (see internal/recovery for what
// each does).
type RecoveryPass = recovery.Pass

// Recover restarts a crashed database: log analysis, UNDO of losers (each
// no-log steal down the undo ladder a live abort takes, then the logged
// before-images), current-parity bitmap rebuild, and REDO of winners under
// ¬FORCE.  See internal/recovery for the pass structure.
//
// Recovery runs with members down — crashed while degraded, in the same
// instant as a disk death, or mid-rebuild — and every pass then works on
// the surviving members: the ladder solves around the dead ones, groups
// whose parity member is lost are deferred to the restarted online rebuild,
// and what the surviving redundancy cannot determine is reported in
// LostPages.  The database comes back up serving degraded.  Only a loss
// beyond the array's redundancy refuses recovery, with ErrArrayFailed.
func (db *DB) Recover() (*RecoveryReport, error) {
	db.rebuildMu.Lock()
	defer db.rebuildMu.Unlock()
	db.gate.Lock()
	defer db.gate.Unlock()
	if !db.crashed {
		return nil, errors.New("rda: Recover on a running database")
	}
	var passes []RecoveryPass
	if db.dirtyCrash {
		// A mid-I/O crash can kill a drive in the same instant without
		// the health machine observing it (fail-stops latch on first
		// access).  Spin up every drive once so the passes plan against
		// the array's true health instead of hitting a surprise error
		// mid-pass.
		at, n := time.Now(), db.arr.Stats().Transfers()
		db.arr.ProbeDisks(db.store.Lanes())
		passes = append(passes, RecoveryPass{Name: "probe", Transfers: db.arr.Stats().Transfers() - n, Duration: time.Since(at)})
	}
	var rep *recovery.Report
	for attempt := 0; ; attempt++ {
		// Adopt the array's health afresh: restored-group flags are wiped
		// even when the crash hit mid-rebuild, so the restarted rebuild
		// reconstructs every group on the lost members and can never
		// certify a deferred-parity group without recomputing it.
		db.adopted.Store(forgotten)
		db.syncHealth()
		h := db.arr.Health()
		if h == diskarray.Failed {
			return nil, fmt.Errorf("%w: crash recovery with the down members exceeding the array's redundancy; run RepairDisks first", ErrArrayFailed)
		}
		db.store.SetReplacementPresent(h == diskarray.Rebuilding)
		var err error
		rep, err = recovery.CrashRecover(db.store, db.cfg.EOT == NoForce, db.dirtyCrash)
		if err == nil {
			break
		}
		// A drive can fail-stop in the middle of recovery itself (it
		// survived the crash only to die under the recovery I/O).  The
		// passes are restartable — undo writes are idempotent, repairs
		// leave consistent groups, the bitmap pass recomputes from
		// headers — so observe the loss and run recovery again in
		// degraded mode.  The Failed case above bounds the loop: each
		// retry needs a fresh disk death, and the second overlapping
		// loss trips it.
		if errors.Is(err, disk.ErrFailed) && attempt < db.arr.NumDisks() {
			db.arr.ProbeDisks(db.store.Lanes())
			continue
		}
		return nil, fmt.Errorf("rda: recovery: %w", err)
	}
	var lost []PageID
	for _, p := range rep.LostPages {
		lost = append(lost, PageID(p))
	}
	db.store.SetReplacementPresent(false)
	db.dirtyCrash = false
	db.locks = lock.New()
	db.pool = db.newPool()
	db.crashed = false
	// Every transaction below the next id is decided now, the losers
	// rolled back on the platter.  That id reaches the log's anchor as the
	// floor when truncation drops everything before the restart point, so
	// the losers' records, gone or not, read as decided.  Under ¬FORCE a
	// checkpoint carrying the same floor bounds the next restart's REDO
	// pass; under FORCE no record is needed.
	db.mu.Lock()
	if db.cfg.EOT == NoForce {
		db.lastCkptLSN = db.log.Append(wal.Checkpoint(db.tm.NextID(), nil))
	}
	f, keep := db.floorLocked(nil)
	db.floors = db.floors[:0]
	db.stampLocked(wal.LSN(db.log.Len()), f, keep)
	db.truncateLogLocked()
	db.recoveries++
	db.mu.Unlock()
	return &RecoveryReport{
		Losers:                  len(rep.Losers),
		UndoneViaParity:         rep.UndoneViaParity,
		UndoneViaLog:            rep.UndoneViaLog,
		Redone:                  rep.Redone,
		RedonePages:             rep.RedonePages,
		RedoneWrites:            rep.RedoneWrites,
		LaunderedTwins:          rep.LaunderedTwins,
		RepairedTorn:            rep.RepairedTorn,
		ResyncedGroups:          rep.ResyncedGroups,
		UndoneViaReconstruction: rep.UndoneViaReconstruction,
		DeferredParityGroups:    rep.DeferredParityGroups,
		LostPages:               lost,
		Passes:                  append(passes, rep.Passes...),
	}, nil
}

// FailDisk injects a fail-stop failure on the given disk (0 ≤ d <
// NumDisks).  The engine enters degraded serving immediately — reads
// reconstruct from redundancy, writes maintain parity without the dead
// member — until an online rebuild (RebuildStep) or media recovery
// (RepairDisk) completes.
func (db *DB) FailDisk(d int) error {
	db.gate.Lock()
	defer db.gate.Unlock()
	if err := db.arr.FailDisk(d); err != nil {
		return err
	}
	db.syncHealth()
	return nil
}

// stolenBefore is media recovery's before-image (recovery.BeforeImageFunc):
// the on-disk contents a dirty group's page had before its no-log steal,
// retained by the owning transaction while it is active.
func (db *DB) stolenBefore(g page.GroupID, e dirtyset.Entry) page.Buf {
	st := db.getState(e.Txn)
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if u := st.undoOf(e.Page); u != nil {
		return u.stolen
	}
	return nil
}

// RepairDisk replaces the failed disk with a fresh one and reconstructs
// its contents from the surviving members of each parity group:
// RepairDisks of one drive, which never loses a group.
func (db *DB) RepairDisk(d int) error {
	lost, err := db.RepairDisks(d)
	if err == nil && len(lost) > 0 {
		err = fmt.Errorf("rda: media recovery: single-disk rebuild reported lost groups %v", lost)
	}
	return err
}

// RepairDisks replaces the given failed disks and reconstructs their
// contents, holding the engine throughout: every group is restored in one
// batch of the online rebuild's loop (restoreGroups), a dirty group's lost
// committed twin from the before-image the engine retains.  Groups beyond
// the redundancy (two data pages; a data page and its covering parity)
// come back with their lost pages zeroed and their parity consistent, and
// their numbers are returned in order for an archive restore.  A
// replacement an online rebuild left unfinished is rebuilt too; failed
// drives left out of ds are served around afterwards.
func (db *DB) RepairDisks(ds ...int) ([]uint32, error) {
	db.gate.Lock()
	defer db.gate.Unlock()
	if db.crashed {
		return nil, ErrCrashed
	}
	_, down, _ := db.arr.HealthView()
	for _, d := range down {
		if !db.arr.DiskFailed(d) && !slices.Contains(ds, d) {
			ds = append(slices.Clip(ds), d) // a replacement an online rebuild left unfinished
		}
	}
	if err := db.arr.BeginRebuild(ds...); err != nil {
		return nil, fmt.Errorf("rda: media recovery: %w", err)
	}
	all := make([]page.GroupID, db.arr.NumGroups())
	for g := range all {
		all[g] = page.GroupID(g)
	}
	lost, err := db.restoreGroups(all, ds, true)
	if err != nil {
		// A group restored onto ds may still miss its block on a drive ds
		// left down: the next rebuild starts over on every group.
		db.syncHealth()
		return nil, fmt.Errorf("rda: media recovery: %w", err)
	}
	db.endRebuild()
	return lost, nil
}
