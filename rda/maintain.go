package rda

import (
	"errors"
	"fmt"

	"repro/internal/page"
)

// ErrBusy reports a bulk load attempted while transactions are active.
var ErrBusy = errors.New("rda: operation requires a quiesced database")

// CorruptBlock flips bits in the stored copy of a data page without
// updating its checksum — a latent sector error injection for exercising
// the scrubber (ScrubStep).  Testing/fault-injection aid.
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
// Full stripes are written side by side, as wide as the engine's
// whole-array loops run (core.Store.Lanes): Config.Workers lanes on
// synchronous drives, one lane per drive on queued ones.  It requires a
// quiescent database and bypasses transactions; loaders re-run after a
// crash.  It returns the number of full-stripe writes.
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
	db.checkpointLocked(nil)
	db.mu.Unlock()
	return n, nil
}
