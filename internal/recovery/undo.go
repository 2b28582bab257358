package recovery

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
	"repro/internal/workpool"
)

// undo is passes 2c and 2d: the parity undo of the losers among the working
// twins the walk found (with a member down, among the surviving ones), then
// of the steals whose working twin sat on a dead disk, found by tag.
func (st *state) undo() error {
	s := st.s
	working, err := st.walk.Working()
	if err != nil {
		return err
	}
	st.working = working
	handled := make(map[page.GroupID]bool)
	for _, w := range working {
		if st.a.outcomes[w.Txn] != outcomeLoser {
			continue
		}
		handled[w.Group] = true
		st.walk.Touch(w.Group)
		if err := st.crashUndoWorking(w); err != nil {
			return fmt.Errorf("recovery: parity undo of group %d: %w", w.Group, err)
		}
	}
	if s.Degraded() && s.RDA() {
		return st.undoDeadTwinLosers(handled)
	}
	return nil
}

// launder is the second half of pass 3: one header rewrite per winner, each
// on a twin of its own.  A dead-slot group's surviving redundancy was
// re-established wholesale by the bitmap pass (committed, fresh timestamp);
// re-stamping the old working header would resurrect stale state.  The dead
// slots are the rebuild's job.
func (st *state) launder() error {
	s, a := st.s, st.a
	winners := slices.DeleteFunc(st.working, func(w core.WorkingTwinInfo) bool {
		return !a.committed(w.Txn) || s.Degraded() && (s.DeadTwin(w.Group, diskarray.P) >= 0 || s.DeadTwin(w.Group, diskarray.Q) >= 0)
	})
	if err := workpool.Run(s.Lanes(), len(winners), func(i int) error {
		w := winners[i]
		return s.WriteIndexMeta(w.Group, w.Twin, disk.Meta{State: disk.StateCommitted, Timestamp: w.Timestamp, Txn: w.Txn})
	}); err != nil {
		return fmt.Errorf("recovery: launder a winner's twin: %w", err)
	}
	st.rep.LaunderedTwins = len(winners)
	return nil
}

// undoRung names the rung of the loser-undo ladder that served.
type undoRung int

const (
	undoRestored undoRung = iota // D_old is back on the platter
	undoLogged                   // the logged before-image is pass 4's
	undoLost                     // beyond the redundancy: loseGroup ran
)

// undoSteal is the one ladder every undo of a loser's no-log steal of
// page p climbs down once the plain Figure 6 identity is out of reach:
//
//  1. the committed index `from` still describes the pre-transaction
//     group, so D_old is whatever it gives p — whatever p's platter holds,
//     through P or, when P is gone, its Q partner, with every erased
//     sibling solved alongside (SolvePage counts the erasures) — restored
//     under a cleared header.  A page that went with its disk needs no
//     write: the index now defines its value, served by reconstruction and
//     materialized by the rebuild;
//  2. else the before-image the eager demotion logged ahead of its first
//     disk write, whenever the death was observed before the crash, is
//     pass 4's to write back;
//  3. else D_old existed only on blocks that are gone: explicit, reported
//     loss (loseGroup).
func (st *state) undoSteal(g page.GroupID, p page.PageID, tx page.TxID, from int) (undoRung, error) {
	s := st.s
	var err error
	if !s.PageUnavailable(p) {
		var dOld page.Buf
		if dOld, _, err = s.SolvePage(g, p, from); err == nil {
			err = s.Arr.WriteData(p, dOld, disk.Meta{})
		}
	}
	switch {
	case err == nil:
		return undoRestored, nil
	case !errors.Is(err, core.ErrUnrecoverableCorruption):
		return undoLost, fmt.Errorf("recovery: undo page %d from index %d: %w", p, from, err)
	case st.a.hasLoggedImage(tx, p):
		// Pass 4 writes the image back through the store, which maintains
		// redundancy from what the group holds: sound only while p is the
		// one member the indexes disagree with the platter about.
		if _, lost := s.LostData(g); !lost {
			st.a.mustWrite[p] = true
			return undoLogged, nil
		}
	}
	return undoLost, st.lose(g, p)
}

// crashUndoWorking unwinds one loser's working twin: the Figure 6 identity
// when its three inputs answer (core.CrashUndoWorkingTwin), the ladder from
// the committed index when one does not.  A rung-2 twin stays working: pass
// 4's write of the logged image re-establishes the group's redundancy and
// Figure 7 never counts a loser's working header.
func (st *state) crashUndoWorking(w core.WorkingTwinInfo) error {
	s := st.s
	figure6, err := s.CrashUndoWorkingTwin(w)
	if err != nil {
		return err
	}
	if !figure6 {
		rung, err := st.undoSteal(w.Group, w.DirtyPage, w.Txn, 1-w.Twin)
		if err != nil || rung != undoRestored {
			return err
		}
		if err := s.WriteIndexMeta(w.Group, w.Twin, invalid); err != nil {
			return err
		}
	}
	// The report's split is by what the group had lost, not by the rung.
	if figure6 || !s.GroupDegraded(w.Group) {
		st.rep.UndoneViaParity++
	} else {
		st.rep.UndoneViaReconstruction++
	}
	return nil
}

// unresolvedSteal scans group g's readable data pages for the tag of a
// loser's no-log steal that nothing has unwound and no logged before-image
// covers.  The steal's data write carries its writer's tag
// (disk.Meta.ChainSet/Txn) and every undo clears it, so the tag finds the
// steals whose working header cannot be read.  A group holds at most one:
// the Dirty_Set admits one uncovered page per group.
func (st *state) unresolvedSteal(g page.GroupID) (p page.PageID, tag disk.Meta, found bool, err error) {
	s := st.s
	for i := 0; i < s.Arr.GroupWidth(); i++ {
		q := s.Arr.GroupPage(g, i)
		if s.PageUnavailable(q) {
			continue
		}
		_, m, err := s.Arr.ReadData(q, nil)
		if err != nil {
			if disk.IsCorrupt(err) {
				continue // one more erasure; the solve that follows accounts for it
			}
			return 0, m, false, fmt.Errorf("recovery: tag scan of group %d: %w", g, err)
		}
		if m.ChainSet && st.a.outcomes[m.Txn] == outcomeLoser && !st.a.hasLoggedImage(m.Txn, q) {
			return q, m, true, nil
		}
	}
	return 0, disk.Meta{}, false, nil
}

// undoDeadTwinLosers finds loser steals whose working twin sat on the
// dead disk, invisible to the group walk: an unresolved loser tag
// under a dead twin means the dead twin was the working one, hence the
// surviving index — the one not carrying the loser's working header — is
// the committed one and the steal unwinds down the ladder from it.  The
// platter is restored directly: the committed index's equations already
// describe exactly the restored state.
func (st *state) undoDeadTwinLosers(handled map[page.GroupID]bool) error {
	s := st.s
	for g := 0; g < s.Arr.NumGroups(); g++ {
		gid := page.GroupID(g)
		if handled[gid] {
			continue
		}
		dead := s.DeadTwin(gid, diskarray.P)
		if dead < 0 || s.TwinReadable(gid, parity(dead)) {
			continue
		}
		p, tag, found, err := st.unresolvedSteal(gid)
		if err != nil {
			return err
		}
		if !found {
			continue
		}
		from := 1 - dead
		if m, err := s.IndexMeta(gid, from); err != nil {
			return err
		} else if m.State == disk.StateNone || (m.State == disk.StateWorking && m.Txn == tag.Txn) {
			// Both P slots are down and the Q proxies arbitrate.
			from = dead
		}
		rung, err := st.undoSteal(gid, p, tag.Txn, from)
		if err != nil {
			return fmt.Errorf("recovery: tag undo of page %d: %w", p, err)
		}
		if rung == undoRestored {
			st.rep.UndoneViaReconstruction++
		}
	}
	return nil
}

// lose gives group g up (loseGroup) on the slots a restart trusts, zeroing
// the listed pages first, and reports every page it gave up.
func (st *state) lose(g page.GroupID, zero ...page.PageID) error {
	lost, err := loseGroup(st.s, g, st.s.TwinReadable, zero...)
	for _, p := range lost {
		st.lost[p] = true
	}
	st.rep.LostPages = append(st.rep.LostPages, lost...)
	return err
}

// loseGroup abandons state the surviving redundancy of group g can no
// longer determine, for restart and media recovery alike.  The listed
// readable pages are zeroed (cleared headers); the group's data is then read
// once, an unreachable member counting as zero and lost with them; and every
// redundancy slot writable allows is rewritten consistent with what the
// group holds — Q before P, the first index committed under one fresh
// timestamp and promoted, the rest obsolete (a Q page mirrors its index's P
// header).  Restart may write the slots whose bits it trusts
// (core.Store.TwinReadable); media recovery every slot, its drives already
// swapped in.  Any Dirty_Set entry of the group is cleaned.  It returns the
// pages given up, sorted: the explicit data-loss event a DBA answers with an
// archive restore.
func loseGroup(s *core.Store, g page.GroupID, writable func(page.GroupID, diskarray.Red) bool, zero ...page.PageID) ([]page.PageID, error) {
	lost := append([]page.PageID(nil), zero...)
	for _, p := range zero {
		if err := s.Arr.WriteData(p, make(page.Buf, s.Arr.PageSize()), disk.Meta{}); err != nil {
			return nil, fmt.Errorf("recovery: zero lost page %d: %w", p, err)
		}
	}
	// Positional: a lost member contributes zero to its coefficient.
	vals := make([]page.Buf, s.Arr.GroupWidth())
	for i := range vals {
		q := s.Arr.GroupPage(g, i)
		if s.PageUnavailable(q) {
			lost = append(lost, q)
			continue
		}
		var err error
		if vals[i], _, err = s.Arr.ReadData(q, nil); err != nil {
			return nil, fmt.Errorf("recovery: read lost group %d page %d: %w", g, q, err)
		}
	}
	first := true
	eqs := s.Arr.Equations()
	for twin := 0; twin < s.Arr.ParityPages(); twin++ {
		var may [2]bool
		for _, eq := range eqs {
			may[eq] = writable(g, eq.Twin(twin))
		}
		if !may[diskarray.P] && !may[diskarray.Q] {
			continue
		}
		meta := disk.Meta{State: disk.StateObsolete}
		if first {
			meta = disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
		}
		for i := len(eqs) - 1; i >= 0; i-- {
			if r := eqs[i].Twin(twin); may[r.Eq] {
				if err := s.RewriteSlot(g, r, vals, meta); err != nil {
					return nil, fmt.Errorf("recovery: reset lost group %d: %w", g, err)
				}
			}
		}
		if s.Twins != nil && first {
			s.Twins.Promote(g, twin)
		}
		first = false
	}
	if s.Dirty != nil {
		s.Dirty.Clean(g)
	}
	slices.Sort(lost)
	return lost, nil
}
