package rda

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/diskarray"
	"repro/internal/page"
	"repro/internal/recovery"
	"repro/internal/workpool"
)

// Health returns the array's availability state (see diskarray.Health):
// Healthy, Degraded (one disk down, or two on P+Q, serving from
// redundancy), Rebuilding (replacement drives being reconstructed online)
// or Failed (losses beyond the redundancy; RepairDisks is the only way
// out).
func (db *DB) Health() diskarray.Health {
	db.gate.RLock()
	defer db.gate.RUnlock()
	return db.arr.Health()
}

// rebuildBatchGroups is RebuildStep's default batch: a step restores at
// most this many parity groups, side by side, so it also caps the online
// rebuild's width (eight of, say, twelve lanes on queued drives).
const rebuildBatchGroups = 8

// RebuildStep reconstructs up to maxGroups parity groups of the down
// disks onto their replacement drives (maxGroups ≤ 0: a batch of 8).  A
// background rebuild is the caller's loop over it until it reports done.
// Only the health transitions — the drive swap at the first step, the
// return to Healthy after the last, reported as (true, nil) — hold the
// exclusive gate.  The batch runs under the shared gate, as ScrubStep
// does, each group rebuilt under its latch, so transactions on other
// groups run beside it.  A Failed array reports ErrArrayFailed.  Steps
// are resumable, may repeat after errors, and concurrent callers take
// turns.
func (db *DB) RebuildStep(maxGroups int) (bool, error) {
	db.rebuildMu.Lock()
	defer db.rebuildMu.Unlock()
	if maxGroups <= 0 {
		maxGroups = rebuildBatchGroups
	}
	gen, last, err := db.rebuildBatch(maxGroups)
	if gen == forgotten && err == nil {
		if done, err := db.rebuildTransition(forgotten); done || err != nil {
			return done, err
		}
		gen, last, err = db.rebuildBatch(maxGroups)
	}
	if !last || err != nil {
		return false, err
	}
	return db.rebuildTransition(gen)
}

// rebuildTransition moves the array's health under the exclusive gate: out
// of the rebuild whose last batch ran under generation finished, if that is
// still the adopted and the array's, and into a rebuild while drives are
// down, adopting each generation it makes.  It reports true when the array
// is Healthy.
func (db *DB) rebuildTransition(finished uint64) (bool, error) {
	db.gate.Lock()
	defer db.gate.Unlock()
	if db.crashed {
		return false, ErrCrashed
	}
	if _, _, gen := db.arr.HealthView(); gen == finished && gen == db.adopted.Load() {
		db.endRebuild()
	}
	db.syncHealth()
	switch h, down, _ := db.arr.HealthView(); h {
	case diskarray.Failed:
		return false, fmt.Errorf("%w: online rebuild impossible, run RepairDisks", ErrArrayFailed)
	case diskarray.Healthy:
		return true, nil
	case diskarray.Degraded:
		err := db.arr.BeginRebuild(down...)
		db.syncHealth()
		return false, err
	}
	return false, nil
}

// rebuildBatch restores the next maxGroups unrestored groups under the
// shared gate, and returns the health generation it ran under and whether
// no group is left after them.  With no rebuild in flight under the
// adopted generation — the array is not Rebuilding, or the engine has not
// adopted its latest health — no batch runs and the generation is
// forgotten: the next transition aligns with the array.
func (db *DB) rebuildBatch(maxGroups int) (uint64, bool, error) {
	db.gate.RLock()
	defer db.gate.RUnlock()
	if db.crashed {
		return forgotten, false, ErrCrashed
	}
	h, down, gen := db.arr.HealthView()
	if h != diskarray.Rebuilding || gen != db.adopted.Load() {
		return forgotten, false, nil
	}
	var batch []page.GroupID // one group past the batch tells it is not the last
	for g := 0; g < db.arr.NumGroups() && len(batch) <= maxGroups; g++ {
		if db.store.GroupDegraded(page.GroupID(g)) {
			batch = append(batch, page.GroupID(g))
		}
	}
	_, err := db.restoreGroups(batch[:min(len(batch), maxGroups)], down, false)
	return gen, len(batch) <= maxGroups, err
}

// endRebuild closes a rebuild or a repair under the exclusive gate: the
// array re-derives its health from the drives, and the engine adopts it.
func (db *DB) endRebuild() {
	db.arr.FinishRebuild()
	db.syncHealth()
}

// restoreGroups rebuilds the blocks the groups keep on drives ds, already
// replaced, Store.Lanes() groups at a time (one worker on synchronous
// drives: group order, the I/O order crash schedules replay), each under
// its latch, after which it leaves degraded serving.  A group beyond its
// redundancy is an error, or, with giveUp, given up (LoseGroup) and its
// buffered pages discarded; the given-up groups are returned in order.
func (db *DB) restoreGroups(groups []page.GroupID, ds []int, giveUp bool) ([]uint32, error) {
	var mu sync.Mutex
	var lost []uint32
	err := workpool.Run(db.store.Lanes(), len(groups), func(i int) error {
		g := groups[i]
		h := db.hold()
		defer db.unhold(h)
		h.Acquire(g)
		ok, err := recovery.RebuildGroup(db.store, g, ds, db.stolenBefore)
		switch {
		case err != nil:
			return fmt.Errorf("rda: rebuild group %d: %w", g, err)
		case !ok && !giveUp:
			return fmt.Errorf("rda: rebuild group %d: %w", g, ErrUnrecoverableCorruption)
		case !ok:
			if _, err := db.store.LoseGroup(g, func(page.GroupID, diskarray.Red) bool { return true }); err != nil {
				return err
			}
			for _, p := range db.arr.GroupPages(g) {
				db.pool.Discard(p)
			}
			mu.Lock()
			lost = append(lost, uint32(g))
			mu.Unlock()
		}
		db.store.MarkRestored(g)
		return nil
	})
	slices.Sort(lost)
	return lost, err
}
