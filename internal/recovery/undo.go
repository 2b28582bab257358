package recovery

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/workpool"
)

// undo is passes 2c and 2d: the parity undo of the losers among the working
// twins the walk found — through a Q partner where the P twin is down — then
// of the steals whose working index has no slot left to read, found by tag.
func (st *state) undo() error {
	s := st.s
	working, err := st.walk.Working()
	if err != nil {
		return err
	}
	st.working = working
	handled := make(map[page.GroupID]bool)
	for _, w := range working {
		if !st.a.isLoser(w.Txn) {
			continue
		}
		st.a.noteLoser(w.Txn)
		handled[w.Group] = true
		st.walk.Touch(w.Group)
		rung, err := st.undoLoser(w, core.RungFigure6)
		if err != nil {
			return fmt.Errorf("recovery: parity undo of group %d: %w", w.Group, err)
		}
		// The report's split is by what the group had lost, not by the rung.
		switch {
		case rung == core.RungFigure6, rung == core.RungCommitted && !s.GroupDegraded(w.Group):
			st.rep.UndoneViaParity++
		case rung == core.RungCommitted:
			st.rep.UndoneViaReconstruction++
		}
	}
	if s.Degraded() && s.RDA() {
		return st.undoDeadTwinLosers(handled)
	}
	return nil
}

// launder is the second half of pass 3: one header rewrite per winner, each
// on a twin of its own, on the index's reachable slots.  The dead slots are
// the rebuild's job.
func (st *state) launder() error {
	s, a := st.s, st.a
	winners := slices.DeleteFunc(st.working, func(w core.WorkingTwinInfo) bool { return !a.committed(w.Txn) })
	if err := workpool.Run(s.Lanes(), len(winners), func(i int) error {
		w := winners[i]
		return s.WriteIndexMeta(w.Group, w.Twin, disk.Meta{State: disk.StateCommitted, Timestamp: w.Timestamp, Txn: w.Txn})
	}); err != nil {
		return fmt.Errorf("recovery: launder a winner's twin: %w", err)
	}
	st.rep.LaunderedTwins = len(winners)
	return nil
}

// undoLoser runs a loser's steal down the undo ladder (core.Store.UndoSteal)
// from rung from, answering its "logged" input from the analysis, and keeps
// what the rungs leave to a restart: a logged image is pass 4's to write,
// and lost pages go into the report.
func (st *state) undoLoser(w core.WorkingTwinInfo, from core.Rung) (core.Rung, error) {
	rung, lost, err := st.s.UndoSteal(w, from, st.a.hasLoggedImage(w.Txn, w.DirtyPage))
	if rung == core.RungLogged {
		st.a.mustWrite[w.DirtyPage] = true
	}
	return rung, st.noteLost(lost, err)
}

// unresolvedSteal scans group g's readable data pages for the tag of a
// loser's no-log steal that nothing has unwound and no logged before-image
// covers.  The steal's data write carries its writer's tag
// (disk.Meta.ChainSet/Txn) and every undo clears it, so the tag finds the
// steals whose working header cannot be read.  A group holds at most one:
// the Dirty_Set admits one uncovered page per group.
func (st *state) unresolvedSteal(g page.GroupID) (p page.PageID, tag disk.Meta, found bool, err error) {
	s := st.s
	buf := s.Pages.Get()
	defer s.Pages.Put(buf)
	for i := 0; i < s.Arr.GroupWidth(); i++ {
		q := s.Arr.GroupPage(g, i)
		if s.PageUnavailable(q) {
			continue
		}
		_, m, err := s.Arr.ReadData(q, buf)
		if err != nil {
			if disk.IsCorrupt(err) {
				continue // one more erasure; the solve that follows accounts for it
			}
			return 0, m, false, fmt.Errorf("recovery: tag scan of group %d: %w", g, err)
		}
		if m.ChainSet && st.a.isLoser(m.Txn) && !st.a.hasLoggedImage(m.Txn, q) {
			return q, m, true, nil
		}
	}
	return 0, disk.Meta{}, false, nil
}

// undoDeadTwinLosers finds loser steals whose working index has no slot
// left to read — twin parity with its P twin down, or both pages of a P+Q
// index — invisible to the group walk: an unresolved loser tag under such
// an index means it was the working one, hence the other index is the
// committed one and the steal unwinds down the ladder from it.  The
// platter is restored directly: the committed index's equations already
// describe exactly the restored state.
func (st *state) undoDeadTwinLosers(handled map[page.GroupID]bool) error {
	s := st.s
	for g := 0; g < s.Arr.NumGroups(); g++ {
		gid := page.GroupID(g)
		if handled[gid] {
			continue
		}
		dead := 0
		if s.SlotAlive(gid, parity(0)) {
			dead = 1
		}
		if s.TwinReadable(gid, parity(dead)) || s.SlotAlive(gid, qpage(dead)) {
			continue
		}
		p, tag, found, err := st.unresolvedSteal(gid)
		if err != nil {
			return err
		}
		if !found {
			continue
		}
		st.a.noteLoser(tag.Txn)
		rung, err := st.undoLoser(core.WorkingTwinInfo{Group: gid, Twin: dead, Meta: disk.Meta{DirtyPage: p, Txn: tag.Txn}}, core.RungCommitted)
		if err != nil {
			return fmt.Errorf("recovery: tag undo of page %d: %w", p, err)
		}
		if rung == core.RungCommitted {
			st.rep.UndoneViaReconstruction++
		}
	}
	return nil
}

// lose gives group g up (core.Store.LoseGroup) on the slots a restart
// trusts, zeroing the listed pages first, and reports every page it gave up.
func (st *state) lose(g page.GroupID, zero ...page.PageID) error {
	return st.noteLost(st.s.LoseGroup(g, st.s.TwinReadable, zero...))
}

// noteLost reports pages a restart gave up, passing err on.
func (st *state) noteLost(lost []page.PageID, err error) error {
	for _, p := range lost {
		st.lost[p] = true
	}
	st.rep.LostPages = append(st.rep.LostPages, lost...)
	return err
}
