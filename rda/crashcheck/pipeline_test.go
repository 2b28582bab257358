package crashcheck

import "testing"

// The dequeue-index sweep: with QueueDepth > 1 every disk transfer
// passes through a per-drive request queue and the fault plane observes
// it at dequeue time, so Sweep's crash-at-every-write-index becomes a
// crash-at-every-DEQUEUE-index sweep.  The recovery oracle (durability,
// atomicity, parity, twin invariants) must hold at every index even though
// the pipeline's intra-operation batches make the interleaving
// scheduler-dependent.

func TestExploreQueueDepth(t *testing.T) {
	sweepRows(t, both(Options{Seed: 1, Txns: 4, OpsPerTx: 3, QueueDepth: 4}), nil)
}

func TestExploreQueueDepthTorn(t *testing.T) {
	sweepRows(t, both(Options{Seed: 1, Txns: 4, OpsPerTx: 3, QueueDepth: 4, Torn: true}), nil)
}

// A deeper workload than small(): more transactions dirtying more pages
// than the pool holds, so eviction steals, logged write-backs and
// occasional full-stripe commit flushes all pass through the queues.
func TestExploreQueueDepthSteals(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	sweepRows(t, both(Options{Seed: 3, Txns: 4, OpsPerTx: 8, QueueDepth: 4}), nil)
}
