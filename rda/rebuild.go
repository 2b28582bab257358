package rda

import (
	"fmt"
	"runtime"

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

// rebuildBatchGroups is the online rebuild worker's batch: each step of
// StartRebuild restores at most this many parity groups before releasing
// the engine to live transactions.  Smaller batches favour transaction
// latency, larger ones rebuild speed — the classic rebuild-rate trade-off —
// and since a step's groups are restored side by side the batch also caps
// the online rebuild's width (eight of, say, twelve lanes on queued
// drives).  A caller wanting another pace drives RebuildStep; media
// recovery (RepairDisk, RepairDisks) holds the engine throughout and is not
// throttled.
const rebuildBatchGroups = 8

// RebuildStep reconstructs up to maxGroups parity groups of the down
// disk onto its replacement drive (maxGroups ≤ 0 uses StartRebuild's
// batch of 8).  The first step swaps the fresh drive in;
// each step runs atomically under the exclusive recovery gate, so live
// transactions interleave between batches — the throttling knob trades
// transaction latency against rebuild time.  Within a batch the group
// reconstructions run side by side (they touch disjoint groups, so they
// are independent): Config.Workers at a time on synchronous drives — one,
// the default, in group order — and one per drive on queued ones, each
// issuing its member reads together, so the batch size is also the widest
// a step gets.  Restored groups leave degraded
// serving immediately; when the last one is restored the array returns
// to Healthy and (true, nil) is reported.  Resumable: steps may be
// interleaved with any transaction work and repeat after errors.
func (db *DB) RebuildStep(maxGroups int) (bool, error) {
	db.gate.Lock()
	defer db.gate.Unlock()
	if db.crashed {
		return false, ErrCrashed
	}
	return db.rebuildStepLocked(maxGroups)
}

func (db *DB) rebuildStepLocked(maxGroups int) (bool, error) {
	// Unconditional: besides entering degraded serving after a fresh
	// loss, syncHealth also resets stale restored-group state when a
	// rebuild's replacement drive died (Rebuilding fell back to
	// Degraded), so the BeginRebuild below starts over from scratch
	// instead of skipping groups whose blocks died with the replacement.
	//
	// The same from-scratch rule is the deferred-parity interlock after a
	// degraded restart: Recover re-enters degraded serving with ALL
	// restored-group flags wiped (rda/db.go), so a rebuild resumed after
	// a crash walks every group on the down disk again — it cannot
	// certify a group whose parity member recovery deferred without
	// recomputing that member here (recovery.RebuildGroup), whatever the
	// pre-crash rebuild had already marked restored.
	db.syncHealth()
	if !db.store.Degraded() {
		return true, nil
	}
	downs := db.store.DownDisks()
	switch db.arr.Health() {
	case diskarray.Failed:
		return false, fmt.Errorf("%w: online rebuild impossible, run RepairDisks", ErrArrayFailed)
	case diskarray.Degraded, diskarray.DoubleDegraded:
		if err := db.arr.BeginRebuild(downs...); err != nil {
			return false, err
		}
	case diskarray.Rebuilding:
		// Resuming a rebuild already in flight.
	case diskarray.Healthy:
		// Media recovery got there first.
		db.store.LeaveDegraded()
		return true, nil
	}
	if maxGroups <= 0 {
		maxGroups = rebuildBatchGroups
	}
	batch := make([]page.GroupID, 0, maxGroups)
	remaining := false
	for g := 0; g < db.arr.NumGroups(); g++ {
		gid := page.GroupID(g)
		if !db.store.GroupDegraded(gid) {
			continue
		}
		if len(batch) >= maxGroups {
			remaining = true
			break
		}
		batch = append(batch, gid)
	}
	// Groups are independent — each reconstruction reads its own members
	// and writes its own block on the replacement drive — so the batch
	// fans out at the store's width: on synchronous drives with one worker
	// the exact sequential I/O order the crash-point schedules replay.
	if err := workpool.Run(db.store.Lanes(), len(batch), func(i int) error {
		// Degraded groups are always clean (their steals were demoted when
		// the disk went down), so no before-image is ever needed.
		gid := batch[i]
		ok, err := recovery.RebuildGroup(db.store, gid, downs, nil)
		if err != nil {
			return fmt.Errorf("rda: rebuild group %d: %w", gid, err)
		}
		if !ok {
			return fmt.Errorf("rda: rebuild group %d: %w", gid, ErrUnrecoverableCorruption)
		}
		db.store.MarkRestored(gid)
		return nil
	}); err != nil {
		return false, err
	}
	if remaining {
		return false, nil
	}
	db.arr.FinishRebuild()
	db.store.LeaveDegraded()
	return true, nil
}

// StartRebuild launches the online rebuild worker in a goroutine.  It
// loops RebuildStep with its default batch, yielding between
// batches so live transactions interleave, and delivers the final result
// (nil on a completed rebuild) on the returned channel.
//
// Throttling: the batch of 8 groups a step is the only throttle.  The
// Gosched between batches lets other runnable goroutines in, but offers
// no fairness guarantee of its own — what keeps the worker from
// monopolizing the engine is that each batch re-acquires the exclusive
// recovery gate, and Go's RWMutex blocks new readers behind a waiting
// writer (and vice versa: a batch queued behind active readers lets them
// drain first), so transactions and rebuild batches alternate rather
// than starve each other.  Callers needing a stronger pacing policy
// (sleep between batches, external rate limit) should drive RebuildStep
// themselves.
func (db *DB) StartRebuild() <-chan error {
	ch := make(chan error, 1)
	go func() {
		for {
			done, err := db.RebuildStep(0)
			if err != nil {
				ch <- err
				return
			}
			if done {
				ch <- nil
				return
			}
			runtime.Gosched()
		}
	}()
	return ch
}
