package rda

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/wal"
)

// FORCE-at-EOT flushing.  The modified pages are flushed one run of a
// parity group after the other through flushGroup, which carries out the
// write-back policy's group-flush rows (core.Decide; DESIGN.md §5).  The
// synchronous path walks the pages in page order — deterministic, required
// for byte-replayable crash schedules — and a run is as much of one group
// as lies together in that order: all of it under data striping, often a
// single page under parity striping, whose groups' pages are a disk apart.
// The pipelined path (QueueDepth > 1) gathers every group's pages into one
// run and fans the groups out: they are independent (the caller holds
// every group's latch, and the store's group-striped protocol already
// allows concurrent commits on disjoint groups), so their disk work
// overlaps across drives.

// flushForce writes the transaction's modified pages to the array, as
// FORCE EOT processing requires.  Caller holds all modified groups'
// latches.
func (db *DB) flushForce(st *txState) error {
	pages := make([]page.PageID, len(st.undo))
	for i, e := range st.undo {
		pages[i] = e.page
	}
	if !db.arr.Queued() {
		for len(pages) > 0 {
			g, n := db.groupRun(pages)
			if err := db.flushGroup(st, g, pages[:n]); err != nil {
				return err
			}
			pages = pages[n:]
		}
		return nil
	}
	slices.SortStableFunc(pages, func(p, q page.PageID) int { return cmp.Compare(db.arr.GroupOf(p), db.arr.GroupOf(q)) })
	var groups [][]page.PageID
	for len(pages) > 0 {
		_, n := db.groupRun(pages)
		groups, pages = append(groups, pages[:n]), pages[n:]
	}
	// Together surfaces the lowest-index error or crash panic in group
	// order, keeping failures deterministic per-interleaving; groups after
	// a failed one may not be flushed, as on the synchronous loop.
	return db.arr.Together(len(groups), func(i int) error {
		return db.flushGroup(st, db.arr.GroupOf(groups[i][0]), groups[i])
	})
}

// groupRun returns the parity group of rest[0] and how many of the leading
// pages of rest belong to it.
func (db *DB) groupRun(rest []page.PageID) (g page.GroupID, n int) {
	for g, n = db.arr.GroupOf(rest[0]), 1; n < len(rest) && db.arr.GroupOf(rest[n]) == g; n++ {
	}
	return g, n
}

// flushGroup flushes a committing transaction's modified pages of one
// group (ascending; the caller holds the group's latch) as the policy
// decides for the group: one full-stripe write, one chain, or each page
// through its own write-back.
func (db *DB) flushGroup(st *txState, g page.GroupID, pages []page.PageID) error {
	v, last := db.groupView(g, pages)
	switch core.Decide(v) {
	case core.FullStripe:
		return db.flushStripe(st, g, pages)
	case core.Chained:
		return db.flushChain(g, pages[:last+1])
	}
	for _, p := range pages {
		if err := db.pool.FlushPage(p); err != nil {
			return err
		}
	}
	return nil
}

// groupView is the policy's view of an EOT flush of pages, a run of group g,
// with the index of the last of them that is resident and dirty.
func (db *DB) groupView(g page.GroupID, pages []page.PageID) (core.View, int) {
	k, last := 0, 0
	for i, p := range pages {
		if f := db.pool.Frame(p); f != nil && f.Dirty {
			k, last = k+1, i
		}
	}
	v, _ := db.store.ViewOf(core.GroupFlush, g, 0, 0)
	v.RecordLogging = db.cfg.Logging == RecordLogging
	v.DirtyPages = min(k, 2)
	// The pages are distinct members of g: as many as it is wide are its
	// stripe.
	v.WholeStripe = k == len(pages) && k == db.arr.GroupWidth()
	return v, last
}

// flushChain flushes the dirty pages of a clean group as one chain
// (core.Chain; DESIGN.md §5, "The EOT flush of a group"): every one but the
// last a logged flip, the last through the write-back policy, which steals
// it when it can.
func (db *DB) flushChain(g page.GroupID, pages []page.PageID) error {
	chain := db.store.Chain(g)
	defer chain.Release()
	for i, p := range pages {
		covered := i == len(pages)-1
		err := db.pool.FlushPageWith(p, func(f *buffer.Frame) error {
			if covered {
				return db.writeFrame(f, chain)
			}
			return db.logFrame(f, f.ModifierList(), chain)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// flushStripe writes the whole stripe of group g with one parity update
// (core.Store.WriteStripeLogged, which says why nothing less may
// coalesce).  The before-images of every stripe page are appended unforced
// and made durable with a single log force before the first disk write —
// the write-ahead rule at batch granularity.
func (db *DB) flushStripe(st *txState, g page.GroupID, pages []page.PageID) error {
	// The pages are marked as written with log-based undo before the write
	// is issued, so an abort after a partial failure restores them on disk.
	var maxLSN wal.LSN
	for _, p := range pages {
		maxLSN = max(maxLSN, db.logUndo(st, p, false))
	}
	if maxLSN > 0 {
		db.log.Force(maxLSN)
	}
	done, err := db.pool.FlushTogether(pages, func(datas []page.Buf) error {
		return db.store.WriteStripeLogged(g, pages, datas)
	})
	if err == nil && !done {
		// groupView found every page resident and dirty under the latch
		// held since.
		err = errors.New("a page left the pool")
	}
	if err != nil {
		return fmt.Errorf("rda: stripe flush of group %d: %w", g, err)
	}
	return nil
}
