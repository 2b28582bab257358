package diskarray

import "repro/internal/workpool"

// Pipelined-mode plumbing: queue lifecycle fan-out across the member
// drives, and the fork/join for the independent transfers of one logical
// array operation.  The rule lives in Together: a group's member reads (the
// solver's, a whole-group read, the hard walk's), the small-write RMW's
// reads and a full-stripe write's data writes are outstanding on their
// drives at once when the drives queue, and issued one after another, in
// the order they always were, when they do not.

// StartQueues enables the per-drive request queue on every member disk
// (see disk.Disk.StartQueue).  depth is the per-drive queue depth,
// window the elevator's starvation bound.  Rebuild replacements inherit
// the queue: a rebuild reuses the repaired drive object.
func (a *Array) StartQueues(depth, window int) {
	for _, d := range a.disks {
		d.StartQueue(depth, window)
	}
}

// ResetQueues clears crash poisoning on every per-drive queue after the
// engine has wiped volatile state (see disk.Disk.ResetQueue).
func (a *Array) ResetQueues() {
	for _, d := range a.disks {
		d.ResetQueue()
	}
}

// Queued reports whether the member drives queue their transfers
// (StartQueues): only then can two transfers of one caller overlap.
func (a *Array) Queued() bool { return a.disks[0].QueueEnabled() }

// Together runs op(0) … op(n-1), the transfers of ONE logical array
// operation whose members are independent — a group's reads, a stripe's
// data writes, a commit's flushes of disjoint groups, each under its own
// latch — never writes whose order the recovery protocol relies on (parity
// before data stays sequential).
//
// On queued drives the transfers are issued together, one workpool worker
// each, and joined: the first error in index order is returned (the panic
// of the lowest index re-raised, after every started branch has
// finished), and results are the caller's to classify in index order
// afterwards.  As on synchronous drives, an op after a failed one may not
// run.  On synchronous drives nothing could overlap, so it is the plain
// loop — index order, stopping at the first error — that replayable crash
// schedules and the write-sequence fingerprints were recorded on.  An op
// must therefore be correct both after its predecessors and beside them:
// it writes only state of its own index.
func (a *Array) Together(n int, op func(i int) error) error {
	if n > 1 && a.Queued() {
		return workpool.Run(n, n, op)
	}
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return err
		}
	}
	return nil
}
