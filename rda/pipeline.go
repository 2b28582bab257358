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
// overlaps across drives.  Before the first array write, one log force
// makes durable every before-image the flush is bound to log (logAhead).

// flushForce writes the transaction's modified pages to the array, as
// FORCE EOT processing requires.  Caller holds all modified groups'
// latches.
func (db *DB) flushForce(st *txState) error {
	pages := make([]page.PageID, len(st.undo))
	for i, e := range st.undo {
		pages[i] = e.page
	}
	queued := db.arr.Queued()
	if queued {
		slices.SortStableFunc(pages, func(p, q page.PageID) int { return cmp.Compare(db.arr.GroupOf(p), db.arr.GroupOf(q)) })
	}
	db.logAhead(st, pages)
	if !queued {
		for len(pages) > 0 {
			g, n := db.groupRun(pages)
			if err := db.flushGroup(g, pages[:n]); err != nil {
				return err
			}
			pages = pages[n:]
		}
		return nil
	}
	var groups [][]page.PageID
	for len(pages) > 0 {
		_, n := db.groupRun(pages)
		groups, pages = append(groups, pages[:n]), pages[n:]
	}
	// Together surfaces the lowest-index error or crash panic in group
	// order, keeping failures deterministic per-interleaving; groups after
	// a failed one may not be flushed, as on the synchronous loop.
	return db.arr.Together(len(groups), func(i int) error {
		return db.flushGroup(db.arr.GroupOf(groups[i][0]), groups[i])
	})
}

// logAhead appends, unforced, the before-images of every page of pages
// whose write through the logging path is fixed before the flush starts,
// and makes them durable with one log force — the write-ahead rule at
// batch granularity, which folds k before-image forces into one log
// write.  Those pages are a full stripe's and every resident dirty page of
// a degraded group, where core.Decide never steals (and which is clean:
// degraded entry demotes every steal).  pages is in the flush's order and
// split into its runs: page order on synchronous drives, each group
// gathered whole on queued ones, where a parity-striping stripe can only
// form that way.  A chain's links keep their own forced before-images: on
// the synchronous path a group split over several runs learns whether a
// later run chains only after an earlier run's steal.  Nothing the flush
// does before it reaches a group changes that group's decision, so
// flushGroup decides the same.
func (db *DB) logAhead(st *txState, pages []page.PageID) {
	var last wal.LSN
	for len(pages) > 0 {
		g, n := db.groupRun(pages)
		run := pages[:n]
		pages = pages[n:]
		if v, _ := db.groupView(g, run); !v.GroupDegraded && core.Decide(v) != core.FullStripe {
			continue
		}
		// A full stripe's pages are all resident and dirty.
		for _, p := range run {
			if f := db.pool.Frame(p); f != nil && f.Dirty {
				last = max(last, db.logUndo(st, p, false))
			}
		}
	}
	if last > 0 {
		db.log.Force(last)
	}
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
func (db *DB) flushGroup(g page.GroupID, pages []page.PageID) error {
	v, last := db.groupView(g, pages)
	switch core.Decide(v) {
	case core.FullStripe:
		return db.flushStripe(g, pages)
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
// coalesce).  logAhead has made every stripe page's before-image durable
// and marked the pages as written with log-based undo, so an abort after
// a partial failure restores them on disk.
func (db *DB) flushStripe(g page.GroupID, pages []page.PageID) error {
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
