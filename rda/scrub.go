package rda

import (
	"runtime"

	"repro/internal/page"
)

// scrubBatchGroups is the online scrub worker's batch: each step of
// StartScrub verifies at most this many parity groups before releasing its
// latches to live transactions.  The scrubber runs under the shared gate,
// so the batch only bounds how long group latches are cycled, not how long
// transactions stall; a caller wanting another pace drives ScrubStep.
const scrubBatchGroups = 8

// ScrubReport summarizes a parity scrub (see ScrubStep and StartScrub).
type ScrubReport struct {
	// GroupsScanned is the number of parity groups examined.
	GroupsScanned int
	// GroupsSkipped is the number of groups left for a later cycle
	// because they were dirty or degraded.  A cycle over a quiesced,
	// healthy database skips none.
	GroupsSkipped int
	// LatentErrors is the number of blocks that failed end-to-end
	// verification — checksum, location stamp or write ledger.
	LatentErrors int
	// Repaired is the number of blocks rebuilt from redundancy.
	Repaired int
	// ParityRewritten counts stale parity pages recomputed.
	ParityRewritten int
}

// ScrubStep verifies up to maxGroups parity groups online (maxGroups
// ≤ 0 uses StartScrub's batch of 8), advancing a persistent cursor so
// successive steps walk the whole array: the paper's idle-time scrub
// (Section 4.2), which keeps "media recovery will actually work" true on
// a long-lived array.  The step runs under the *shared* recovery gate
// and takes each group's latch only while that group is verified, so
// live transactions on other groups proceed concurrently and a
// transaction touching the scrubbed group simply queues on its latch for
// one group's worth of I/O.
//
// A group that is dirty (a no-UNDO-logging steal is in flight) or
// degraded (its redundancy is consumed by a dead disk) is skipped and
// retried on a later cycle — the scrubber never blocks waiting for a
// group to become scrubable.  Silently corrupt blocks (checksum,
// location-stamp or write-ledger failures) are rebuilt from the group's
// redundancy, and exactly the buffer frames made stale by a repair are
// invalidated.  Two corrupt blocks in one group exceed single-parity
// redundancy and surface as ErrUnrecoverableCorruption.
//
// It returns the step's report and whether the cursor wrapped past the
// end of the array.  The wrap marks a cursor-aligned cycle, not full
// coverage since any particular step: a caller that needs every group
// visited at least once after it starts (so damage planted mid-cycle
// cannot hide behind the cursor) must count GroupsScanned+GroupsSkipped
// up to NumGroups, as StartScrub does.  Steps are resumable and may
// repeat after errors; any number of callers may interleave steps (the
// cursor is shared).
func (db *DB) ScrubStep(maxGroups int) (*ScrubReport, bool, error) {
	db.gate.RLock()
	defer db.gate.RUnlock()
	if db.crashed {
		return nil, false, ErrCrashed
	}
	if maxGroups <= 0 {
		maxGroups = scrubBatchGroups
	}
	n := db.arr.NumGroups()
	if maxGroups > n {
		maxGroups = n
	}
	rep := &ScrubReport{}
	wrapped := false
	for i := 0; i < maxGroups && !wrapped; i++ {
		db.mu.Lock()
		g := page.GroupID(db.scrubCursor)
		db.scrubCursor++
		if db.scrubCursor >= n {
			db.scrubCursor = 0
			wrapped = true
		}
		db.mu.Unlock()
		res, err := db.scrubGroup(g)
		rep.add(res)
		if err != nil {
			return rep, false, err
		}
	}
	return rep, wrapped, nil
}

// scrubGroup verifies one group under its latch, invalidates the buffer
// frames of any pages the repair rewrote on the platter, and reports the
// group as a one-group scrub.  Only clean frames are dropped: a dirty
// frame holds newer contents that will overwrite the repaired block
// anyway, and the latch held here excludes new modifications for the
// duration.
func (db *DB) scrubGroup(g page.GroupID) (ScrubReport, error) {
	h := db.latches.NewHeld()
	defer h.ReleaseAll()
	h.Acquire(g)
	res, err := db.store.ScrubGroup(g)
	for _, p := range res.RepairedPages {
		db.pool.DiscardClean(p)
	}
	if res.Skipped {
		return ScrubReport{GroupsSkipped: 1}, err
	}
	return ScrubReport{GroupsScanned: 1, LatentErrors: res.LatentErrors, Repaired: res.Repaired, ParityRewritten: res.ParityRewritten}, err
}

// StartScrub launches a background worker that performs one full scrub
// cycle — NumGroups consecutive cursor slots, so every parity group is
// visited at least once after the call regardless of where the shared
// cursor stands — batch by batch, and delivers the cycle's report on
// the returned channel.  Groups skipped as dirty or degraded during the
// cycle are reported in GroupsSkipped, not retried within the same
// cycle — continuous scrubbing is a loop over StartScrub (or
// ScrubStep).
//
// The worker never takes the exclusive gate: batches run under the
// shared gate with per-group latches, so live transactions are delayed
// only by latch conflicts on the specific group being verified.
func (db *DB) StartScrub() <-chan ScrubResult {
	ch := make(chan ScrubResult, 1)
	n := db.NumGroups()
	go func() {
		total := &ScrubReport{}
		for total.GroupsScanned+total.GroupsSkipped < n {
			rep, _, err := db.ScrubStep(0)
			if rep != nil {
				total.add(*rep)
			}
			if err != nil {
				ch <- ScrubResult{Report: total, Err: err}
				return
			}
			runtime.Gosched()
		}
		ch <- ScrubResult{Report: total}
	}()
	return ch
}

// ScrubResult is the outcome of a background scrub cycle.
type ScrubResult struct {
	Report *ScrubReport
	Err    error
}

// add folds another report — one group's, or a whole step's — into rep.
func (rep *ScrubReport) add(o ScrubReport) {
	rep.GroupsScanned += o.GroupsScanned
	rep.GroupsSkipped += o.GroupsSkipped
	rep.LatentErrors += o.LatentErrors
	rep.Repaired += o.Repaired
	rep.ParityRewritten += o.ParityRewritten
}
