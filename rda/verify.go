package rda

import (
	"errors"
	"fmt"

	"repro/internal/disk"
	"repro/internal/page"
)

// VerifyRecovered checks every invariant a freshly restarted database
// must satisfy, beyond the parity identity VerifyParity already covers.
// The crash-point explorer (rda/crashcheck) calls it after each
// crash-and-recover cycle:
//
//   - every group's current parity twin equals the XOR of its data pages;
//   - no working-state twin survived restart, every group's current twin
//     is committed on disk, and the other twin is in a state a legal
//     Figure 8 history can leave behind (committed-but-older, obsolete,
//     or invalid);
//   - the Dirty_Set is empty — no group is mid-steal;
//   - the in-memory current-parity bitmap matches an independent
//     Current_Parity (Figure 7) recomputation from the on-disk headers.
//
// After a degraded restart the checks cover the surviving members only:
// a group whose parity twin sits on the down disk must have its
// *surviving* twin current and committed (the dead slot is deferred to
// the rebuild), and a group whose data page is lost is checked against
// the twin that defines the lost page's value.
//
// All reads are uncharged verification I/O.
func (db *DB) VerifyRecovered() error {
	db.gate.Lock()
	defer db.gate.Unlock()
	if db.crashed {
		return errors.New("rda: VerifyRecovered on a crashed database; run Recover first")
	}
	if err := db.store.VerifyParityInvariant(); err != nil {
		return err
	}
	if db.store.Dirty != nil {
		if n := db.store.Dirty.Len(); n != 0 {
			return fmt.Errorf("rda: %d dirty group(s) survived restart", n)
		}
	}
	if db.store.Twins == nil {
		return nil
	}
	for g := 0; g < db.arr.NumGroups(); g++ {
		gid := page.GroupID(g)
		// Per-twin header, read through the best surviving slot: the P
		// header when its disk is up, else the Q partner's header — a
		// faithful proxy, since every Q page is written in lockstep with
		// its P partner under the same meta.  A twin whose slots are all
		// dead has no header; its reconstruction is the rebuild's job.
		var metas [2]disk.Meta
		var have [2]bool
		for twin := 0; twin < 2; twin++ {
			for _, eq := range db.arr.Equations() {
				r := eq.Twin(twin)
				if !db.store.SlotAlive(gid, r) {
					continue
				}
				m, err := db.arr.PeekMeta(gid, r)
				if err != nil {
					return err
				}
				metas[twin], have[twin] = m, true
				break
			}
		}
		cur := db.store.Twins.Current(gid)
		if !have[cur] {
			return fmt.Errorf("rda: degraded group %d bitmap points at dead twin %d", g, cur)
		}
		if metas[cur].State != disk.StateCommitted {
			return fmt.Errorf("rda: group %d current twin %d in state %s, want committed",
				g, cur, metas[cur].State)
		}
		if !have[1-cur] {
			// Degraded group whose other twin lost every slot: the
			// surviving current twin carried the whole check.
			continue
		}
		other := metas[1-cur]
		switch other.State {
		case disk.StateObsolete, disk.StateInvalid:
			// Legal Figure 8 leftovers.
		case disk.StateWorking:
			return fmt.Errorf("rda: group %d twin %d still in working state after restart", g, 1-cur)
		case disk.StateCommitted:
			// Both committed: the bitmap must have picked the Figure 7
			// winner — the larger timestamp, ties favouring twin 0.
			wins := metas[cur].Timestamp > other.Timestamp ||
				(metas[cur].Timestamp == other.Timestamp && cur == 0)
			if !wins {
				return fmt.Errorf("rda: group %d bitmap picked twin %d (ts %d) over twin %d (ts %d)",
					g, cur, metas[cur].Timestamp, 1-cur, other.Timestamp)
			}
		default:
			return fmt.Errorf("rda: group %d twin %d in illegal state %s", g, 1-cur, other.State)
		}
	}
	return nil
}
