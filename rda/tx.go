package rda

import (
	"errors"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Tx is a transaction handle.  A Tx must be used from one goroutine at a
// time and is invalid after Commit, Abort, a deadlock abort, or a crash.
// Different transactions may run on different goroutines concurrently;
// the engine serializes them with two-phase locks (logical conflicts) and
// per-parity-group latches (physical protocol steps), so transactions on
// disjoint groups proceed in parallel.
type Tx struct {
	db   *DB
	st   *txState
	done bool
}

// Begin starts a transaction.
func (db *DB) Begin() (*Tx, error) {
	db.gate.RLock()
	defer db.gate.RUnlock()
	if db.crashed {
		return nil, ErrCrashed
	}
	// The id is given out and entered in the table under one hold of
	// db.mu, so no floor computed meanwhile (floorLocked) can pass it.
	db.mu.Lock()
	t := db.tm.Begin()
	st := &txState{t: t, locks: db.locks, beginLSN: wal.LSN(db.log.Len()) + 1}
	db.states[t.ID] = st
	db.mu.Unlock()
	return &Tx{db: db, st: st}, nil
}

// ID returns the transaction's identifier.
func (tx *Tx) ID() uint64 { return uint64(tx.st.t.ID) }

// CommitSeq returns the transaction's position in the engine's commit
// order, or 0 if it has not committed.  Under strict two-phase locking
// the commit order is a valid serialization order: any two conflicting
// transactions hold their conflicting locks to EOT, so the one that
// commits first precedes the other in every conflict.  The concurrency
// oracle replays concurrent histories in this order on a single-threaded
// reference engine and diffs the results.
func (tx *Tx) CommitSeq() int64 { return tx.st.commitSeq }

// check validates the handle and page id.
func (tx *Tx) check(p PageID) error {
	if tx.done {
		return ErrTxDone
	}
	if int(p) >= tx.db.NumPages() {
		return fmt.Errorf("%w: %d of %d", ErrBadPage, p, tx.db.NumPages())
	}
	return nil
}

// acquire takes a two-phase lock, translating a deadlock-victim verdict
// into an automatic abort of this transaction.  Lock waits happen with
// no gate or latch held — a waiter blocks only other lock-table users,
// never recovery or disjoint-group transactions — and go against the
// manager captured at Begin, so a handle that outlives a crash cleans up
// against the (closed, no-op) manager it actually used.
func (tx *Tx) acquire(res lock.Resource, mode lock.Mode) error {
	err := tx.st.locks.Acquire(tx.st.t.ID, res, mode)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, lock.ErrDeadlock):
		abortErr := tx.Abort()
		if !tx.done {
			return fmt.Errorf("rda: deadlock abort failed: %w", abortErr)
		}
		return errors.Join(fmt.Errorf("%w: %v", ErrDeadlock, err), abortErr)
	case errors.Is(err, lock.ErrClosed):
		tx.done = true
		return ErrCrashed
	default:
		return err
	}
}

// healing runs step with the engine's self-healing retry: an error after
// which the engine serves an array health generation the step did not run
// under (healWorld) runs the step again, now served as that health says —
// from redundancy after a disk loss.  One retry per adopted generation — a
// Q-parity array can lose a second disk during the first retry — so the
// loop is bounded by the health changes the array makes.  A crash ends
// the handle.
func (tx *Tx) healing(step func() error) error {
	seen := tx.db.adopted.Load()
	err := step()
	for err != nil && !errors.Is(err, ErrCrashed) && tx.db.healWorld(&seen) {
		err = step()
	}
	if errors.Is(err, ErrCrashed) {
		tx.done = true
	}
	return err
}

// opLatched runs one page operation under the shared gate and the page's
// group latch, with the self-healing retry.  A miss whose every eviction
// candidate is latched by other operations (buffer.ErrBlocked) lets the
// latch go, yields and runs fn again: the holders may be a commit waiting
// for this very latch.  fn's first pool.Get precedes any change it makes
// (a record write's demotion before it is idempotent), so nothing is
// half-done when it is blocked; and a blocked miss is no I/O error to heal.
func (tx *Tx) opLatched(p page.PageID, fn func(h *opLatches) error) error {
	return tx.healing(func() error {
		err := tx.db.underGroup(p, fn)
		for errors.Is(err, buffer.ErrBlocked) {
			runtime.Gosched()
			err = tx.db.underGroup(p, fn)
		}
		return err
	})
}

// --- Page-granularity operations (PageLogging) ----------------------------

// ReadPage returns a copy of page p under a shared lock.
func (tx *Tx) ReadPage(p PageID) ([]byte, error) {
	if err := tx.check(p); err != nil {
		return nil, err
	}
	if tx.db.cfg.Logging != PageLogging {
		return nil, fmt.Errorf("%w: ReadPage requires PageLogging", ErrWrongMode)
	}
	if err := tx.acquire(lock.PageResource(page.PageID(p)), lock.Shared); err != nil {
		return nil, err
	}
	pid := page.PageID(p)
	var out []byte
	err := tx.opLatched(pid, func(h *opLatches) error {
		f, err := tx.db.pool.Get(pid, h.guard)
		if err != nil {
			return err
		}
		defer tx.db.pool.Unpin(pid)
		out = f.Data.Clone()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WritePage replaces page p's contents under an exclusive lock.  data
// must be exactly PageSize bytes.
func (tx *Tx) WritePage(p PageID, data []byte) error {
	if err := tx.check(p); err != nil {
		return err
	}
	if tx.db.cfg.Logging != PageLogging {
		return fmt.Errorf("%w: WritePage requires PageLogging", ErrWrongMode)
	}
	if len(data) != tx.db.cfg.PageSize {
		return fmt.Errorf("%w (%d bytes, want %d)", page.ErrBadSize, len(data), tx.db.cfg.PageSize)
	}
	if err := tx.acquire(lock.PageResource(page.PageID(p)), lock.Exclusive); err != nil {
		return err
	}
	pid := page.PageID(p)
	return tx.opLatched(pid, func(h *opLatches) error {
		f, err := tx.db.pool.Get(pid, h.guard)
		if err != nil {
			return err
		}
		defer tx.db.pool.Unpin(pid)
		if !tx.st.hasUndo(pid, wal.NoSlot) {
			tx.firstModify(pid, wal.NoSlot, tx.db.snapshotPage(f.Data))
		}
		tx.db.pool.Modify(f, tx.st.t.ID)
		copy(f.Data, data)
		return nil
	})
}

// firstModify enters img, the before-image of (p, slot) just captured,
// in the transaction's undo table.  Nothing goes to the log for it under
// RDA recovery: a transaction the log has not seen is a loser while its id
// is at or above the durable floor (presumed abort, DESIGN.md "When log
// records become durable"), so no BOT record has to precede its first
// steal.  Without RDA recovery the image goes to the log at once (classic
// UNDO logging).  The caller holds p's group latch.
func (tx *Tx) firstModify(p page.PageID, slot int32, img []byte) {
	st, db := tx.st, tx.db
	st.mu.Lock()
	if st.undo == nil {
		st.undo, _ = db.undoTables.get()
	}
	e := st.addUndo(wal.Record{Type: wal.TypeBeforeImage, Txn: st.t.ID, Page: p, Slot: slot, Image: img})
	st.mu.Unlock()
	if !db.cfg.RDA {
		st.mu.Lock()
		db.ensureUndoLogged(e, true)
		st.mu.Unlock()
	}
}

// --- Record-granularity operations (RecordLogging) ------------------------

// recordView pins page p and returns its frame and record view; the caller
// must Unpin.
func (tx *Tx) recordView(p page.PageID, h *opLatches) (*buffer.Frame, record.Page, error) {
	f, err := tx.db.pool.Get(p, h.guard)
	if err != nil {
		return nil, record.Page{}, err
	}
	v, err := record.View(f.Data)
	if err != nil {
		tx.db.pool.Unpin(p)
		return nil, record.Page{}, err
	}
	return f, v, nil
}

// ReadRecord returns a copy of the record at (p, slot) under a shared
// record lock, or the bare record.ErrEmptySlot, whose text does not name
// the slot, if the slot is free.  An empty slot is an answer, not a
// failure: it leaves the latched section as a result, so it never enters
// opLatched's self-healing retry.
func (tx *Tx) ReadRecord(p PageID, slot int) ([]byte, error) {
	if err := tx.checkRecord(p, slot, nil); err != nil {
		return nil, err
	}
	if err := tx.acquire(lock.RecordResource(page.PageID(p), slot), lock.Shared); err != nil {
		return nil, err
	}
	pid := page.PageID(p)
	var out []byte
	empty := false
	err := tx.opLatched(pid, func(h *opLatches) error {
		_, v, err := tx.recordView(pid, h)
		if err != nil {
			return err
		}
		defer tx.db.pool.Unpin(pid)
		out, err = v.Read(slot)
		if errors.Is(err, record.ErrEmptySlot) {
			empty = true
			return nil
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if empty {
		return nil, record.ErrEmptySlot
	}
	return out, nil
}

// WriteRecord stores rec at (p, slot) under an exclusive record lock,
// inserting or overwriting.
func (tx *Tx) WriteRecord(p PageID, slot int, rec []byte) error {
	if err := tx.checkRecord(p, slot, rec); err != nil {
		return err
	}
	if err := tx.acquire(lock.RecordResource(page.PageID(p), slot), lock.Exclusive); err != nil {
		return err
	}
	pid := page.PageID(p)
	return tx.opLatched(pid, func(h *opLatches) error {
		return tx.writeRecordLatched(h, pid, slot, rec, true)
	})
}

// InsertRecord stores rec in a free slot of page p and returns the slot
// index, or record.ErrFull if the page has no free slot.  The slot is
// chosen under its exclusive lock, so concurrent inserters never collide
// (a candidate that another transaction claims first is skipped; the
// probe locks are retained until EOT, as strict two-phase locking
// requires).  The lock wait itself happens with no latch held — only the
// re-check and the write run in the latched section.
func (tx *Tx) InsertRecord(p PageID, rec []byte) (int, error) {
	// Slot 0 exists on every record page; only rec's length is in question.
	if err := tx.checkRecord(p, 0, rec); err != nil {
		return 0, err
	}
	pid := page.PageID(p)
	slots := tx.db.RecordsPerPage()
	for slot := 0; slot < slots; slot++ {
		// Peek (uncharged, unlocked) to skip obviously taken slots.
		var used bool
		err := tx.opLatched(pid, func(h *opLatches) error {
			_, v, err := tx.recordView(pid, h)
			if err != nil {
				return err
			}
			defer tx.db.pool.Unpin(pid)
			used = v.Used(slot)
			return nil
		})
		if err != nil {
			return 0, err
		}
		if used {
			continue
		}
		// Lock the candidate, then re-check under the lock.
		if err := tx.acquire(lock.RecordResource(pid, slot), lock.Exclusive); err != nil {
			return 0, err
		}
		inserted := false
		err = tx.opLatched(pid, func(h *opLatches) error {
			_, v, err := tx.recordView(pid, h)
			if err != nil {
				return err
			}
			stillFree := !v.Used(slot)
			tx.db.pool.Unpin(pid)
			if !stillFree {
				return nil // raced with a concurrent inserter
			}
			if err := tx.writeRecordLatched(h, pid, slot, rec, true); err != nil {
				return err
			}
			inserted = true
			return nil
		})
		if err != nil {
			return 0, err
		}
		if inserted {
			return slot, nil
		}
	}
	return 0, record.ErrFull
}

// DeleteRecord removes the record at (p, slot) under an exclusive lock.
func (tx *Tx) DeleteRecord(p PageID, slot int) error {
	if err := tx.checkRecord(p, slot, nil); err != nil {
		return err
	}
	if err := tx.acquire(lock.RecordResource(page.PageID(p), slot), lock.Exclusive); err != nil {
		return err
	}
	pid := page.PageID(p)
	return tx.opLatched(pid, func(h *opLatches) error {
		return tx.writeRecordLatched(h, pid, slot, nil, false)
	})
}

// writeRecordLatched performs the write/delete with the page's group
// latch (h) and the record's two-phase lock held.
func (tx *Tx) writeRecordLatched(h *opLatches, p page.PageID, slot int, rec []byte, present bool) error {
	// Another transaction's no-log steal of this page is demoted first
	// (the policy's record-write rows), or a later twin-parity undo of its
	// owner would roll the whole page back past this transaction's records.
	g := tx.db.arr.GroupOf(p)
	if v, e := tx.db.store.ViewOf(core.RecordWrite, g, p, tx.st.t.ID); core.Decide(v) == core.DemoteOnly {
		if err := tx.db.demoteNoLogSteal(g, e); err != nil {
			return err
		}
	}
	f, v, err := tx.recordView(p, h)
	if err != nil {
		return err
	}
	defer tx.db.pool.Unpin(p)
	if !tx.st.hasUndo(p, int32(slot)) {
		img, err := v.Encoded(slot)
		if err != nil {
			return err
		}
		tx.firstModify(p, int32(slot), img)
	}
	// checkRecord has validated slot and rec, so the change cannot fail.
	tx.db.pool.Modify(f, tx.st.t.ID)
	if present {
		return v.Write(slot, rec)
	}
	return v.Delete(slot)
}

// checkRecord validates the handle, the page, the mode, the slot and
// the record's length before any lock is taken, so a caller's mistake
// never reaches the latched section, whose failures trigger the
// self-healing retry.
func (tx *Tx) checkRecord(p PageID, slot int, rec []byte) error {
	if err := tx.check(p); err != nil {
		return err
	}
	if tx.db.cfg.Logging != RecordLogging {
		return fmt.Errorf("%w: record operations require RecordLogging", ErrWrongMode)
	}
	if n := tx.db.RecordsPerPage(); slot < 0 || slot >= n {
		return fmt.Errorf("%w: %d of %d", record.ErrBadSlot, slot, n)
	}
	if len(rec) > tx.db.cfg.RecordSize {
		return fmt.Errorf("%w: %d > %d", record.ErrBadLength, len(rec), tx.db.cfg.RecordSize)
	}
	return nil
}

// --- EOT -------------------------------------------------------------------

// Commit ends the transaction successfully.  Under FORCE all of its
// modified pages are written to the database first, and only the pages of
// parity groups that have lost a block log an after-image; under ¬FORCE
// every modified page does.  The EOT record goes to the log with them, and
// RDA working parities become current.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	db := tx.db
	// A disk loss mid-commit trips degraded mode; the retry re-runs EOT
	// through the degraded protocol, which finds the groups degraded and
	// logs their after-images.  The lazy log appends are idempotent
	// and a duplicated after-image is harmless (REDO replays images in
	// order, so the last one wins).
	err := tx.healing(func() error { return db.commitAttempt(tx) })
	if errors.Is(err, ErrCrashed) {
		return ErrCrashed
	}
	if err != nil {
		return err
	}
	tx.done = true
	if db.forcer != nil && tx.st.eotLSN != 0 {
		// Group commit: wait (outside the gate and all latches, so other
		// transactions keep running) for a batched force to cover the
		// EOT.  If a crash slipped in between the latched EOT section and
		// the force, the unforced tail is gone and the transaction is a
		// loser — report ErrCrashed, never success, so no transaction is
		// acknowledged whose fold-in missed the platter.
		db.forcer.Force(tx.st.eotLSN)
		db.gate.RLock()
		crashed := db.crashed
		db.gate.RUnlock()
		if crashed {
			return ErrCrashed
		}
	}
	tx.st.locks.ReleaseAll(tx.st.t.ID)
	return nil
}

// commitAttempt is one pass of EOT processing under the shared gate.
// The transaction's modified groups are latched (all of them, ascending)
// for the whole of EOT: that freezes the group's steal state — every
// concurrent mutator of this transaction's bookkeeping (eviction steals,
// demotions by group-sharers) runs under one of these latches — and makes
// the flush + log + twin-flip sequence atomic with respect to every other
// transaction touching the same groups.
func (db *DB) commitAttempt(tx *Tx) error {
	db.gate.RLock()
	defer db.gate.RUnlock()
	if db.crashed {
		return ErrCrashed
	}
	st := tx.st
	t := st.t
	updater := len(st.undo) > 0

	h := db.hold()
	defer db.unhold(h)
	db.latchUndo(h, st)

	if updater && db.cfg.EOT == Force {
		if err := db.flushForce(st); err != nil {
			return fmt.Errorf("rda: force at EOT: %w", err)
		}
	}
	if updater {
		if err := db.appendAfterImages(st); err != nil {
			return err
		}
		if db.forcer != nil {
			// Group commit: the EOT lands in the volatile log tail and
			// Commit waits for a batched force to cover it before
			// acknowledging.  The commit point moves to that force — a
			// crash beforehand drops the record and the transaction is a
			// loser.
			st.eotLSN = db.appendBracket(wal.TypeEOT, st, false)
			var owned [16]page.GroupID
			if db.store.Dirty != nil && len(db.store.Dirty.GroupsOf(t.ID, owned[:0])) > 0 {
				// The transaction owns parity-covered (no-UNDO-logging)
				// steals.  CommitGroups below promotes their working twins,
				// which surrenders the twin-pair undo path — and once the
				// group reads clean, a sharer's RMW may overwrite the old
				// committed twin.  If the crash then dropped the unforced
				// EOT, the demoted loser would have neither parity nor log
				// undo cover.  So this commit point must be durable before
				// promotion: force inline and skip the batched wait.  Only
				// clean-group commits — buffered ¬FORCE transactions and
				// full-stripe FORCE flushes, the common cases the window
				// targets — ride the batched force.
				db.log.Force(st.eotLSN)
				st.eotLSN = 0
			}
		} else {
			// The forced EOT drags the unforced after-images with it: one
			// sequential log write.
			db.appendBracket(wal.TypeEOT, st, true)
		}
	}
	// The EOT record is the commit point; everything after is volatile
	// bookkeeping.  The serialization position is assigned while the
	// groups are still latched, so it agrees with the order in which
	// conflicting transactions passed their commit points.
	st.commitSeq = db.commitSeq.Add(1)
	func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		db.store.CommitGroups(t)
	}()
	db.clearModifiers(st)
	db.tm.Finish(t.ID, txn.Committed)
	db.mu.Lock()
	delete(db.states, t.ID)
	db.truncateLogLocked()
	db.mu.Unlock()
	db.releaseSnapshots(st)
	return nil
}

// appendAfterImages writes the transaction's REDO material: for each of
// its before-images, in page and slot order, the same slot re-read from
// the current page (a whole page under page logging).  Under FORCE the
// pages are on the platter before the EOT, so no REDO needs them and an
// image is only a media-recovery copy: a page whose group keeps its full
// redundancy gets none, since the array gives it back after a drive loss.
// A page of a degraded group keeps its image, the only second copy of the
// committed page until the rebuild restores the group.  The caller holds
// the shared gate and every modified group's latch, so neither a health
// transition nor a rebuild step moves a group between the test and the
// EOT.  The images are appended unforced: REDO reads only committed
// transactions' after-images, so they need to be durable exactly when the
// EOT record is, and the EOT's force — a forced Append, or the group
// commit's batch — writes them and the EOT as one sequential log write.
func (db *DB) appendAfterImages(st *txState) error {
	for _, e := range st.undo {
		if db.cfg.EOT == Force && !db.store.GroupDegraded(db.arr.GroupOf(e.page)) {
			continue
		}
		for _, b := range e.images {
			if err := db.appendAfterImage(st.t.ID, e.page, b.Slot); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendAfterImage appends, unforced, the after-image of slot of page p
// taken from the latest contents of p: the buffered frame when resident,
// the on-disk page otherwise (the page was stolen and not re-referenced;
// the read is charged, as any I/O; under FORCE only a page of a degraded
// group gets here).  A page read from disk lands in a scratch page of the
// store's free list and a record image is encoded into another; both go
// back once the log has copied the image.
// The caller holds p's group latch, which keeps the frame from being
// evicted or mutated.
func (db *DB) appendAfterImage(txn page.TxID, p page.PageID, slot int32) error {
	var cur page.Buf
	if f := db.pool.Frame(p); f != nil {
		cur = f.Data
	} else {
		scratch := db.store.Pages.Get()
		defer db.store.Pages.Put(scratch)
		var err error
		if cur, err = db.store.ReadPage(p, scratch); err != nil {
			return err
		}
	}
	var enc page.Buf
	if slot != wal.NoSlot {
		enc = db.store.Pages.Get()
		defer db.store.Pages.Put(enc)
	}
	img, err := record.ImageOf(cur, slot, enc)
	if err != nil {
		return err
	}
	db.log.AppendUnforced(wal.Record{Type: wal.TypeAfterImage, Txn: txn, Page: p, Slot: slot, Image: img})
	return nil
}

// clearModifiers removes the finished transaction from every resident
// frame's modifier set; frames still dirty afterwards carry committed
// residue (see buffer.Frame.Residue).  The caller holds the latches of
// every modified group.
func (db *DB) clearModifiers(st *txState) {
	for _, e := range st.undo {
		f := db.pool.Frame(e.page)
		if f == nil {
			continue
		}
		f.RemoveModifier(st.t.ID)
		if f.Dirty {
			f.Residue = true
		}
	}
}

// Abort rolls the transaction back:
//
//   - pages written back without UNDO logging go down the undo ladder a
//     restart takes (core.Store.UndoSteal): restored from twin parity
//     (D_old = (P ⊕ P′) ⊕ D_new) or the committed parity, or their group
//     given up when nothing determines D_old;
//   - pages written back through the logging path are restored on disk
//     from the retained before-images (record mode restores only this
//     transaction's records);
//   - modified pages never stolen are repaired in the buffer alone.
//
// An abort that gave pages up still finishes — locks released, handle
// done — and returns a *LostPagesError naming them, which wraps
// ErrUnrecoverableCorruption.  Any other error means the transaction was
// not rolled back and still holds its locks.
//
// The paper's model charges a rollback with reading the log back to the
// BOT record; the engine charges the scan back to the transaction's first
// logged before-image, and a rollback with nothing on the log reads none.
func (tx *Tx) Abort() error {
	if tx.done {
		return ErrTxDone
	}
	db := tx.db
	// A disk loss mid-rollback trips degraded mode; the retry runs the
	// remaining undo through the degraded protocol (groups the first pass
	// finished are already clean, and the health sync demoted any dirty
	// group on the lost disk to the idempotent logged-restore path).
	err := tx.healing(func() error { return db.abortAttempt(tx) })
	if errors.Is(err, ErrCrashed) {
		return ErrCrashed
	}
	if err != nil {
		return fmt.Errorf("rda: abort txn %d: %w", tx.st.t.ID, err)
	}
	tx.done = true
	tx.st.locks.ReleaseAll(tx.st.t.ID)
	if len(tx.st.lost) == 0 {
		return nil
	}
	e := &LostPagesError{Txn: tx.ID()}
	for _, p := range tx.st.lost {
		e.Pages = append(e.Pages, PageID(p))
	}
	return e
}

// LostPagesError reports an abort that finished but gave pages up: they
// read back zeroed, to be restored from an archive.
type LostPagesError struct {
	Txn   uint64
	Pages []PageID
}

func (e *LostPagesError) Error() string {
	return fmt.Sprintf("rda: abort txn %d lost pages %v: %v", e.Txn, e.Pages, ErrUnrecoverableCorruption)
}

// Unwrap makes errors.Is(err, ErrUnrecoverableCorruption) hold.
func (e *LostPagesError) Unwrap() error { return ErrUnrecoverableCorruption }

// abortAttempt is one pass of rollback under the shared gate, holding
// the latches of every modified group for the same atomicity reasons as
// commitAttempt.
func (db *DB) abortAttempt(tx *Tx) error {
	db.gate.RLock()
	defer db.gate.RUnlock()
	if db.crashed {
		return ErrCrashed
	}
	st := tx.st
	t := st.t

	h := db.hold()
	defer db.unhold(h)
	db.latchUndo(h, st)

	if err := db.rollback(st); err != nil {
		return err
	}
	if first := st.firstLogged(); first != 0 {
		// Charged backward read of the log to the first before-image (the
		// model's c_b component).  The abort record keeps a restart from
		// applying those images again: it is durable before the
		// transaction leaves the table, so no floor passes it before.
		// A rollback with nothing on the log needs no record: its steals
		// are undone on the platter, and the floor decides it.
		db.log.ChargeScan(first, wal.LSN(db.log.Len()))
		db.appendBracket(wal.TypeAbort, st, true)
	}
	db.tm.Finish(t.ID, txn.Aborted)
	db.mu.Lock()
	delete(db.states, t.ID)
	db.truncateLogLocked() // also retires the floor the abort record stamped
	db.mu.Unlock()
	db.releaseSnapshots(st)
	return nil
}

// rollback performs the disk- and buffer-level undo for an abort, adding
// the pages it gives up to st.lost.  The caller holds the latches of every
// group the transaction modified, so the steal bookkeeping read here is
// frozen.
func (db *DB) rollback(st *txState) error {
	t := st.t
	defer func() { db.forgetLost(st.lost) }()

	// 1. The undo ladder for every group this transaction dirtied, told
	// from the undo table whether the steal's before-image is on the log.
	if db.store.Dirty != nil {
		var owned [16]page.GroupID
		for _, g := range db.store.Dirty.GroupsOf(t.ID, owned[:0]) {
			e, _ := db.store.Dirty.Lookup(g)
			logged := slices.ContainsFunc(st.undoOf(e.Page).images, func(r wal.Record) bool { return r.LSN != 0 })
			w := core.WorkingTwinInfo{Group: g, Twin: e.WorkingTwin, Meta: disk.Meta{DirtyPage: e.Page, Txn: t.ID}}
			_, lost, err := db.store.UndoSteal(w, core.RungFigure6, logged)
			st.lost = append(st.lost, lost...)
			if err != nil {
				return err
			}
			// Drop any buffered copy; the restored version is on disk.
			db.pool.Discard(e.Page)
		}
	}

	// 2. The undo table, in page order, so abort I/O sequences are
	// deterministic: a page written back through the logging path is
	// restored on disk, one stolen without logging was undone above, and
	// one never stolen is repaired in the buffer alone.
	for _, e := range st.undo {
		switch {
		case e.viaLog:
			if slices.Contains(st.lost, e.page) && e.images[0].Slot != wal.NoSlot {
				continue // record images have no base left to patch
			}
			err := db.restoreLogged(t.ID, e)
			if errors.Is(err, ErrUnrecoverableCorruption) && db.store.PageUnavailable(e.page) {
				// The page lives only in its group's redundancy, which can no
				// longer take the image: the ladder's last rung, and the
				// buffered copy goes as a stolen page's does.
				var lost []page.PageID
				lost, err = db.store.LoseGroup(db.arr.GroupOf(e.page), db.store.TwinReadable, e.page)
				st.lost = append(st.lost, lost...)
				db.pool.Discard(e.page)
			}
			if err != nil {
				return err
			}
		case e.stolen == nil:
			f := db.pool.Frame(e.page)
			if f == nil {
				continue // evicted clean, or never dirtied
			}
			if !slices.Contains(f.ModifierList(), t.ID) {
				continue
			}
			if err := db.repairFrame(t.ID, f, e.images); err != nil {
				return err
			}
		}
	}
	return nil
}

// forgetLost drops the pool's images of pages an undo gave up
// (buffer.Pool.Forget): a clean frame whole, a dirty one's disk version, so
// that its write-back folds the zeroed page, not the lost image, into the
// parity.
func (db *DB) forgetLost(lost []page.PageID) {
	for _, p := range lost {
		db.pool.Forget(p)
	}
}

// restoreLogged writes page e.page's pre-transaction state back to disk
// from its before-images and rewinds the buffered copy, if any, to match.
// A full-page image is that state; record images patch the page as it is
// on disk, so other transactions' records stay.
func (db *DB) restoreLogged(tx page.TxID, e *undoEntry) error {
	restored := e.images[0].Image
	if e.images[0].Slot != wal.NoSlot {
		var err error
		if restored, err = db.store.ReadPage(e.page, nil); err != nil {
			return err
		}
	}
	if err := record.Replay(restored, restored, e.images); err != nil {
		return err
	}
	if err := db.store.WriteLogged(e.page, restored, nil, nil); err != nil {
		return err
	}
	f := db.pool.Frame(e.page)
	if f == nil {
		return nil
	}
	f.RemoveModifier(tx)
	if len(f.ModifierList()) == 0 {
		// Nobody else's uncommitted work lives here; the restored disk
		// copy is authoritative.
		db.pool.Discard(e.page)
		return nil
	}
	// Other active transactions' changes are in this frame (record
	// locking).  Repair only this transaction's part in place and refresh
	// the disk version to the just-restored image so later parity
	// small-writes use the correct old contents.
	if err := record.Replay(f.Data, f.Data, e.images); err != nil {
		return err
	}
	copy(f.DiskVersion, restored) // a frame without a disk version has none to refresh
	return nil
}

// repairFrame rewinds a never-stolen frame to transaction tx's
// before-images and updates the frame bookkeeping: a frame back at its disk
// version is clean, with nothing left to write back.
func (db *DB) repairFrame(tx page.TxID, f *buffer.Frame, images []wal.Record) error {
	if err := record.Replay(f.Data, f.Data, images); err != nil {
		return err
	}
	f.RemoveModifier(tx)
	if len(f.ModifierList()) == 0 {
		if f.DiskVersion != nil && f.Data.Equal(f.DiskVersion) {
			db.pool.MarkClean(f)
		} else if f.Dirty {
			// Whatever delta remains belongs to finished transactions.
			f.Residue = true
		}
	}
	return nil
}
