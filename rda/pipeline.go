package rda

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/wal"
)

// FORCE-at-EOT flushing.  The modified pages are flushed one run of a
// parity group after the other through flushGroup, which decides once for
// the run what the steal policy (writeBack) would otherwise decide page by
// page.  The synchronous path walks the pages in page order —
// deterministic, required for byte-replayable crash schedules — and a run
// is as much of one group as lies together in that order: all of it under
// data striping, often a single page under parity striping, whose groups'
// pages are a disk apart.  The pipelined path (QueueDepth > 1) gathers
// every group's pages into one run and fans the groups out: they are
// independent (the caller holds every group's latch, and the store's
// group-striped protocol already allows concurrent commits on disjoint
// groups), so their disk work overlaps across drives.

// flushForce writes the transaction's modified pages to the array, as
// FORCE EOT processing requires.  Caller holds all modified groups'
// latches.
func (db *DB) flushForce(st *txState) error {
	pages := sortedPages(st.t.Modified)
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
	sort.SliceStable(pages, func(i, j int) bool { return db.arr.GroupOf(pages[i]) < db.arr.GroupOf(pages[j]) })
	var groups [][]page.PageID
	for len(pages) > 0 {
		_, n := db.groupRun(pages)
		groups, pages = append(groups, pages[:n]), pages[n:]
	}
	// Together joins every branch and surfaces the first error (or the
	// earliest crash panic) in group order, keeping failures
	// deterministic per-interleaving.
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
// group (ascending; the caller holds the group's latch).
//
// A whole stripe collapses into one parity write (tryFlushStripe).
// Otherwise the twin can cover ONE uncommitted page of the group
// (Section 4.1), and which one is a cost decision taken here, once: in a
// clean, undegraded group with k ≥ 2 dirty resident pages, the k − 1 that
// must be logged anyway go first, each a logged flip, and the page the
// twin covers goes last and stays a no-log steal to the EOT.  Page by
// page, writeBack would steal the first, and the second would have to
// demote that steal — the transaction's own — with a header rewrite and
// the before-image logged all the same.  The flush is a chain
// (core.Chain): each write reads the index it has written back while its
// data page goes out and hands the verified image on, so the write after
// it does not wait for a read of its own.  The writes themselves and
// their order are those of k separate write-backs — a logged flip followed
// by a steal is what a third page in a group has always produced — and so
// is the number of reads, so every state a crash can expose is one
// recovery already meets and no verified read is given up.
//
// One dirty page, a group dirty at entry (the transaction's own eviction
// steal, or a sharer's) and a degraded group go page by page through the
// steal policy as before.
func (db *DB) flushGroup(st *txState, g page.GroupID, pages []page.PageID) error {
	done, err := db.tryFlushStripe(st, g, pages)
	if done || err != nil {
		return err
	}
	k, last := 0, 0
	if db.cfg.RDA && !db.store.Dirty.IsDirty(g) && !db.store.GroupDegraded(g) {
		for i, p := range pages {
			if f := db.pool.Frame(p); f != nil && f.Dirty {
				k, last = k+1, i
			}
		}
	}
	if k < 2 {
		for _, p := range pages {
			if err := db.pool.FlushPage(p); err != nil {
				return err
			}
		}
		return nil
	}
	chain := db.store.Chain(g)
	defer chain.Release()
	for i, p := range pages[:last+1] {
		covered := i == last
		err := db.pool.FlushPageWith(p, func(f *buffer.Frame) error {
			mods := f.ModifierList()
			if covered {
				if owner := db.stealer(f, mods); owner != nil {
					return db.stealFrame(f, owner, chain)
				}
			}
			return db.logFrame(f, mods, chain)
		})
		if err != nil {
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
