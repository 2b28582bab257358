package rda

import (
	"errors"
	"fmt"

	"repro/internal/page"
	"repro/internal/wal"
)

// ScrubReport summarizes a parity scrub (see Scrub and ScrubStep).
type ScrubReport struct {
	// GroupsScanned is the number of parity groups examined.
	GroupsScanned int
	// GroupsSkipped is the number of groups left for a later cycle
	// because they were dirty or degraded (online scrubbing only; the
	// quiesced Scrub never skips).
	GroupsSkipped int
	// LatentErrors is the number of blocks that failed end-to-end
	// verification — checksum, location stamp or write ledger.
	LatentErrors int
	// Repaired is the number of blocks rebuilt from redundancy.
	Repaired int
	// ParityRewritten counts stale parity pages recomputed.
	ParityRewritten int
}

// ErrBusy reports a maintenance operation attempted while transactions
// hold uncommitted on-disk state.
var ErrBusy = errors.New("rda: operation requires a quiesced database")

// Scrub verifies every parity group against its data and repairs latent
// sector errors (silent corruption) from the array's redundancy — the
// background verification pass that keeps "media recovery will actually
// work" true on a long-lived array.  The database must be quiescent: no
// active transaction may have pages on disk awaiting undo.  For
// scrubbing a *live* database incrementally — without quiescing, under
// the shared gate — see ScrubStep and StartScrub.
func (db *DB) Scrub() (*ScrubReport, error) {
	db.gate.Lock()
	defer db.gate.Unlock()
	if db.crashed {
		return nil, ErrCrashed
	}
	if db.store.Degraded() && !db.arr.HasQ() {
		// Scrubbing compares parity against data it cannot fully read;
		// finish the rebuild first.  A Q-parity array has an equation to
		// spare, so its degraded groups still scrub (and repair) — see
		// core.Store.ScrubGroup.
		return nil, fmt.Errorf("%w: scrub needs full redundancy", ErrDegraded)
	}
	// Flush so the scan verifies current contents, then require
	// cleanliness.
	if err := db.pool.FlushAll(nil); err != nil {
		return nil, fmt.Errorf("rda: scrub flush: %w", err)
	}
	if db.store.Dirty != nil && db.store.Dirty.Len() > 0 {
		return nil, fmt.Errorf("%w: %d parity groups dirty", ErrBusy, db.store.Dirty.Len())
	}
	// The online scrubber's unit of work, every group in order: the flush
	// above made every frame clean, so the frames a repair makes stale are
	// exactly the ones scrubGroup discards.
	rep := &ScrubReport{}
	for g := 0; g < db.arr.NumGroups(); g++ {
		res, err := db.scrubGroup(page.GroupID(g))
		rep.add(res)
		if err != nil {
			return nil, fmt.Errorf("rda: scrub: %w", err)
		}
	}
	return rep, nil
}

// CorruptBlock flips bits in the stored copy of a data page without
// updating its checksum — a latent sector error injection for exercising
// Scrub.  Testing/fault-injection aid.
func (db *DB) CorruptBlock(p PageID) error {
	db.gate.Lock()
	defer db.gate.Unlock()
	if int(p) >= db.NumPages() {
		return ErrBadPage
	}
	loc := db.arr.DataLoc(page.PageID(p))
	return db.arr.Disk(loc.Disk).Corrupt(loc.Block)
}

// BulkLoad writes a run of consecutive pages as committed data, using
// full-stripe writes (one parity write per fully covered parity group —
// the "large accesses" of Section 3.1) instead of per-page small writes.
// Full stripes are written in parallel when Config.Workers > 1.  It
// requires a quiescent database and bypasses transactions; loaders
// re-run after a crash.  It returns the number of full-stripe writes.
func (db *DB) BulkLoad(start PageID, pages [][]byte) (int, error) {
	db.gate.Lock()
	defer db.gate.Unlock()
	if db.crashed {
		return 0, ErrCrashed
	}
	if db.store.Degraded() {
		// Full-stripe writes need every member disk.
		return 0, fmt.Errorf("%w: bulk load needs full redundancy", ErrDegraded)
	}
	if db.tm.ActiveCount() > 0 {
		return 0, fmt.Errorf("%w: %d active transactions", ErrBusy, db.tm.ActiveCount())
	}
	if int(start)+len(pages) > db.NumPages() {
		return 0, fmt.Errorf("%w: load of %d pages at %d exceeds %d", ErrBadPage, len(pages), start, db.NumPages())
	}
	bufs := make([]page.Buf, len(pages))
	for i, b := range pages {
		bufs[i] = page.Buf(b)
	}
	// Loaded pages supersede any buffered copies.
	for i := range pages {
		db.pool.Discard(page.PageID(start) + page.PageID(i))
	}
	n, err := db.store.BulkLoad(page.PageID(start), bufs)
	if err != nil {
		return n, fmt.Errorf("rda: bulk load: %w", err)
	}
	// The load bypassed the log; a checkpoint record fences it off so a
	// later crash's REDO pass cannot replay pre-load after-images over
	// the loaded pages (and the now-dead log prefix is reclaimed).
	db.mu.Lock()
	db.lastCkptLSN = db.log.Append(wal.Record{Type: wal.TypeCheckpoint, Slot: wal.NoSlot})
	db.truncateLogLocked()
	db.mu.Unlock()
	return n, nil
}

// maybeAutoCheckpoint takes an ACC checkpoint when the configured
// transfer interval has elapsed.  Called at EOT boundaries after the
// commit's shared-gate section ends: flushing the whole pool is a
// stop-the-world job, so the check runs gate-free first and only a due
// checkpoint pays for the exclusive gate (where the deadline is
// re-checked — a racing committer may have just taken it).
func (db *DB) maybeAutoCheckpoint() error {
	if db.cfg.CheckpointEvery <= 0 || db.cfg.EOT != NoForce {
		return nil
	}
	if !db.autoCheckpointDue() {
		return nil
	}
	db.gate.Lock()
	defer db.gate.Unlock()
	if db.crashed {
		// The commit that triggered us already succeeded; the checkpoint
		// simply doesn't happen on a crashed engine.
		return nil
	}
	if !db.autoCheckpointDue() {
		return nil
	}
	if err := db.flushAllHealing(); err != nil {
		return fmt.Errorf("rda: auto checkpoint: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.lastCkptLSN = db.log.Append(wal.Record{Type: wal.TypeCheckpoint, Slot: wal.NoSlot, Active: db.tm.Active()})
	db.lastCkptTransfers = db.arr.Stats().Transfers() + db.log.Stats().TotalTransfers()
	db.truncateLogLocked()
	return nil
}

// autoCheckpointDue reports whether the transfer interval since the last
// automatic checkpoint has elapsed.
func (db *DB) autoCheckpointDue() bool {
	cur := db.arr.Stats().Transfers() + db.log.Stats().TotalTransfers()
	db.mu.Lock()
	defer db.mu.Unlock()
	return cur-db.lastCkptTransfers >= db.cfg.CheckpointEvery
}
