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
// Healthy, Degraded (one disk down, serving from redundancy), Rebuilding
// (replacement drive being reconstructed online) or Failed (overlapping
// losses; RepairDisks is the only way out).
func (db *DB) Health() diskarray.Health {
	db.gate.RLock()
	defer db.gate.RUnlock()
	return db.arr.Health()
}

// RebuildProgress describes an online rebuild.
type RebuildProgress struct {
	// Health is the array state the snapshot was taken in.
	Health diskarray.Health
	// DownDisk is the disk being rebuilt (-1 when Healthy).
	DownDisk int
	// TotalGroups is the number of parity groups that keep a block on
	// the down disk — every group of the array does; RestoredGroups of
	// them have been reconstructed.
	TotalGroups    int
	RestoredGroups int
}

// Done reports whether nothing is left to rebuild.
func (p RebuildProgress) Done() bool { return p.Health == diskarray.Healthy }

// RebuildProgress returns a snapshot of the online rebuild's progress.
func (db *DB) RebuildProgress() RebuildProgress {
	db.gate.RLock()
	defer db.gate.RUnlock()
	pr := RebuildProgress{Health: db.arr.Health(), DownDisk: db.arr.DownDisk()}
	if !db.store.Degraded() {
		return pr
	}
	pr.TotalGroups = db.arr.NumGroups()
	pr.RestoredGroups = int(db.store.DegradedCounters().RebuiltGroups)
	return pr
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
	db.gate.RLock()
	inFlight := db.arr.Health() == diskarray.Rebuilding && db.store.Degraded()
	db.gate.RUnlock()
	if !inFlight {
		if done, err := db.rebuildTransition(); done || err != nil {
			return done, err
		}
	}
	if maxGroups <= 0 {
		maxGroups = rebuildBatchGroups
	}
	if last, err := db.rebuildBatch(maxGroups); !last || err != nil {
		return false, err
	}
	return db.rebuildTransition()
}

// rebuildTransition moves the array's health under the exclusive gate:
// into a rebuild while drives are down, out of it once every group is
// restored.  It reports true when the array is Healthy.
func (db *DB) rebuildTransition() (bool, error) {
	db.gate.Lock()
	defer db.gate.Unlock()
	if db.crashed {
		return false, ErrCrashed
	}
	if db.arr.Health() == diskarray.Rebuilding && db.store.Degraded() && db.store.DegradedCounters().RebuiltGroups == uint64(db.arr.NumGroups()) {
		db.endRebuild()
	}
	// syncHealth also wipes the restored-group flags when a replacement
	// drive died (Rebuilding fell back to Degraded), as Recover does after
	// a crash, so the rebuild starts over on every group: it cannot skip a
	// group whose blocks died with the replacement, nor certify one whose
	// parity a degraded restart deferred without recomputing it.
	db.syncHealth()
	switch db.arr.Health() {
	case diskarray.Failed:
		return false, fmt.Errorf("%w: online rebuild impossible, run RepairDisks", ErrArrayFailed)
	case diskarray.Healthy:
		db.store.LeaveDegraded()
		return true, nil
	case diskarray.Degraded, diskarray.DoubleDegraded:
		return false, db.arr.BeginRebuild(db.store.DownDisks()...)
	}
	return false, nil
}

// rebuildBatch restores the next maxGroups unrestored groups under the
// shared gate and reports whether none is left after them.  An array that
// left Rebuilding while the gate was free gets no batch: the next step
// aligns with it.
func (db *DB) rebuildBatch(maxGroups int) (bool, error) {
	db.gate.RLock()
	defer db.gate.RUnlock()
	if db.crashed {
		return false, ErrCrashed
	}
	if db.arr.Health() != diskarray.Rebuilding || !db.store.Degraded() {
		return false, nil
	}
	var batch []page.GroupID // one group past the batch tells it is not the last
	for g := 0; g < db.arr.NumGroups() && len(batch) <= maxGroups; g++ {
		if db.store.GroupDegraded(page.GroupID(g)) {
			batch = append(batch, page.GroupID(g))
		}
	}
	_, err := db.restoreGroups(batch[:min(len(batch), maxGroups)], db.store.DownDisks(), false)
	return len(batch) <= maxGroups, err
}

// endRebuild closes a rebuild or a repair under the exclusive gate: the
// array re-derives its health from the drives, and the store serves around
// exactly the drives still down.
func (db *DB) endRebuild() {
	db.arr.FinishRebuild()
	db.store.LeaveDegraded()
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
		h := db.latches.NewHeld()
		defer h.ReleaseAll()
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
