package rda

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/wal"
)

// FORCE-at-EOT flushing.  The synchronous path flushes the modified
// pages one at a time in page order — deterministic, required for
// byte-replayable crash schedules.  The pipelined path (QueueDepth > 1)
// fans the flush out by parity group: groups are independent (the caller
// holds every group's latch, and the store's group-striped protocol
// already allows concurrent commits on disjoint groups), so their disk
// work overlaps across drives.  Within a group, a flush that covers the
// whole stripe collapses into one parity write plus the data writes (see
// core.WriteStripeLogged); anything else falls back to per-page flushes.

// flushForce writes the transaction's modified pages to the array, as
// FORCE EOT processing requires.  Caller holds all modified groups'
// latches.
func (db *DB) flushForce(st *txState) error {
	pages := sortedPages(st.t.Modified)
	if !db.arr.Queued() {
		for _, p := range pages {
			if err := db.pool.FlushPage(p); err != nil {
				return err
			}
		}
		return nil
	}
	byGroup := make(map[page.GroupID][]page.PageID)
	for _, p := range pages {
		g := db.arr.GroupOf(p)
		byGroup[g] = append(byGroup[g], p)
	}
	groups := make([]page.GroupID, 0, len(byGroup))
	for g := range byGroup {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	if len(groups) == 1 {
		return db.flushGroup(st, groups[0], byGroup[groups[0]])
	}
	// Together joins every branch and surfaces the first error (or the
	// earliest crash panic) in group order, keeping failures
	// deterministic per-interleaving.
	return db.arr.Together(len(groups), func(i int) error {
		return db.flushGroup(st, groups[i], byGroup[groups[i]])
	})
}

// flushGroup flushes one group's modified pages: the full-stripe
// coalesced write when eligible, per-page flushes otherwise.
func (db *DB) flushGroup(st *txState, g page.GroupID, pages []page.PageID) error {
	done, err := db.tryFlushStripe(st, g, pages)
	if done || err != nil {
		return err
	}
	for _, p := range pages {
		if err := db.pool.FlushPage(p); err != nil {
			return err
		}
	}
	return nil
}

// tryFlushStripe coalesces a whole-stripe flush into one parity update.
// Eligibility is deliberately narrow — see core.WriteStripeLogged for
// why anything less than a full stripe with complete logged undo cover
// must not coalesce:
//
//   - RDA with page logging (before-images are page images, so every
//     stripe member gets full undo cover from one record each);
//   - the page set is exactly the group's stripe;
//   - the array is healthy and the group clean;
//   - every stripe page is resident and dirty, so the combined write
//     sees all the data.
//
// The before-images of every stripe page are appended unforced and made
// durable with a single log force before the first disk write — the
// write-ahead rule at batch granularity.
func (db *DB) tryFlushStripe(st *txState, g page.GroupID, pages []page.PageID) (bool, error) {
	if !db.cfg.RDA || db.cfg.Logging != PageLogging || db.store.Degraded() {
		return false, nil
	}
	if _, dirty := db.store.Dirty.Lookup(g); dirty {
		return false, nil
	}
	stripe := db.arr.GroupPages(g)
	if len(pages) != len(stripe) {
		return false, nil
	}
	for i := range stripe {
		// Both slices are ascending.
		if pages[i] != stripe[i] {
			return false, nil
		}
	}
	for _, p := range pages {
		if f := db.pool.Frame(p); f == nil || !f.Dirty {
			return false, nil
		}
	}
	db.ensureBOT(st)
	var maxLSN wal.LSN
	for _, p := range pages {
		if lsn := db.ensureUndoUnforced(st, p); lsn > maxLSN {
			maxLSN = lsn
		}
	}
	if maxLSN > 0 {
		db.log.Force(maxLSN)
	}
	// The pages are about to be written to disk with log-based undo;
	// mark that before issuing the write so an abort after a partial
	// failure restores them on disk (same order as writeBack's logging
	// path).
	st.mu.Lock()
	for _, p := range pages {
		st.stolenLogged[p] = true
	}
	st.mu.Unlock()
	done, err := db.pool.FlushTogether(pages, func(datas []page.Buf) error {
		return db.store.WriteStripeLogged(g, pages, datas)
	})
	if err != nil {
		if errors.Is(err, core.ErrNotStripe) {
			return false, nil
		}
		return true, fmt.Errorf("rda: stripe flush of group %d: %w", g, err)
	}
	return done, nil
}
