package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/erasure"
	"repro/internal/page"
)

// Rung is a step of the undo ladder (UndoSteal), in the order it is tried.
type Rung int

const (
	RungFigure6   Rung = iota // D_old = P ⊕ P′ ⊕ D_new, or the page no longer held the steal
	RungCommitted             // D_old solved through the committed index
	RungLogged                // the logged before-image, which the caller writes back
	RungLost                  // nothing determines D_old: the group was given up (LoseGroup)
)

// UndoSteal is the one undo of a loser's no-log steal — page w.DirtyPage,
// written by w.Txn under working index w.Twin — for a live abort and a
// restart alike: down the ladder of DESIGN.md's "One undo ladder for a
// no-log steal" from rung from until one holds.  With a w.Timestamp the
// page's header is read before Figure 6 and must carry w.Txn and that
// timestamp; without one the caller vouches for the page.  A caller that
// found a Figure 6 input gone starts at RungCommitted and retires the
// working index itself.  Whichever rung holds, the group leaves the
// Dirty_Set; the pages returned are the ones RungLost gave up.
func (s *Store) UndoSteal(w WorkingTwinInfo, from Rung, logged bool) (Rung, []page.PageID, error) {
	g, p := w.Group, w.DirtyPage
	repair := false // Figure 6 found an input corrupt: rung 2 is a read repair
	if from == RungFigure6 {
		done, corrupt, err := s.figure6(w)
		if done || err != nil {
			return RungFigure6, nil, err
		}
		repair = corrupt
	}
	dOld, _, err := s.solvePage(g, p, 1-w.Twin)
	if err == nil && !s.PageUnavailable(p) {
		err = s.writeData(p, dOld, disk.Meta{})
	}
	s.Pages.Put(dOld)
	switch {
	case err == nil:
		if repair {
			s.deg.readRepairs.Add(1)
		}
		if from == RungFigure6 {
			return RungCommitted, nil, s.retire(w)
		}
		s.Dirty.Clean(g)
		return RungCommitted, nil, nil
	case !errors.Is(err, ErrUnrecoverableCorruption):
		return RungCommitted, nil, fmt.Errorf("core: undo page %d from index %d: %w", p, 1-w.Twin, err)
	case logged && !s.lostData(g):
		s.Dirty.Clean(g)
		return RungLogged, nil, nil
	}
	lost, err := s.LoseGroup(g, s.TwinReadable, p)
	return RungLost, lost, err
}

// figure6 is the ladder's first rung: done when it undid the steal or found
// it undone, corrupt when an input failed verification.
func (s *Store) figure6(w WorkingTwinInfo) (done, corrupt bool, err error) {
	g, p := w.Group, w.DirtyPage
	if s.PageUnavailable(p) {
		return false, false, nil
	}
	if w.Timestamp != 0 {
		tagged := s.Pages.Get()
		defer s.Pages.Put(tagged)
		_, meta, err := s.Arr.ReadData(p, tagged)
		switch {
		case disk.IsCorrupt(err):
			s.deg.corruptDetected.Add(1)
			return false, false, nil
		case err != nil:
			return false, false, fmt.Errorf("core: read tagged page %d: %w", p, err)
		case meta.Txn != w.Txn:
			// Restored by an interrupted undo, or the crash fell between the
			// working-parity write and the data write.
			return true, false, s.retire(w)
		case meta.Timestamp != w.Timestamp:
			// The crash fell inside a re-steal: the twin describes a newer
			// page version than the platter holds.
			return false, false, nil
		}
	}
	if !s.TwinReadable(g, diskarray.P.Twin(1-w.Twin)) || !s.TwinReadable(g, diskarray.P.Twin(w.Twin)) {
		return false, false, nil // a P twin is gone: P ⊕ P′ has nothing to XOR
	}
	// The three inputs sit on three drives and go out together; an input
	// that fails verification (a working twin's beyond repair) is gone.
	in := [3]page.Buf{s.Pages.Get(), s.Pages.Get(), s.Pages.Get()}
	defer s.Pages.Put(in[:]...)
	var bad [3]bool
	err = s.Arr.Together(len(in), func(i int) error {
		var err error
		if i < 2 {
			_, _, err = s.readRed(g, diskarray.P.Twin(i), in[i])
		} else {
			_, _, err = s.Arr.ReadData(p, in[i])
		}
		switch {
		case disk.IsCorrupt(err):
			s.deg.corruptDetected.Add(1)
		case !errors.Is(err, ErrUnrecoverableCorruption):
			return err
		}
		bad[i] = true
		return nil
	})
	if corrupt = bad != [3]bool{}; err != nil || corrupt {
		return false, corrupt, err
	}
	erasure.AddInto(in[0], in[1])
	erasure.AddInto(in[0], in[2])
	if err := s.writeData(p, in[0], disk.Meta{}); err != nil {
		return false, false, err
	}
	return true, false, s.retire(w)
}

// retire invalidates the steal's working index and cleans its group.
func (s *Store) retire(w WorkingTwinInfo) error {
	if err := s.WriteIndexMeta(w.Group, w.Twin, invalid); err != nil {
		return err
	}
	s.Dirty.Clean(w.Group)
	return nil
}

// LoseGroup gives group g up, for an abort, a restart and media recovery
// alike: the listed pages, where reachable, and every member that fails
// verification are zeroed under cleared headers and, with the unreachable
// members, counted as zero; every slot writable allows is rewritten over
// the group — Q before P, the first index committed under one fresh
// timestamp and promoted, the rest obsolete — and the Dirty_Set entry
// cleaned.  Restart and abort write the slots whose bits they trust
// (TwinReadable), media recovery every slot.  It returns the pages given
// up, sorted: the explicit data-loss event a DBA answers with an archive
// restore.
func (s *Store) LoseGroup(g page.GroupID, writable func(page.GroupID, diskarray.Red) bool, zero ...page.PageID) ([]page.PageID, error) {
	var lost []page.PageID
	zeroPage := func(p page.PageID) error {
		if err := s.Arr.WriteData(p, make(page.Buf, s.Arr.PageSize()), disk.Meta{}); err != nil {
			return fmt.Errorf("core: zero lost page %d: %w", p, err)
		}
		lost = append(lost, p)
		return nil
	}
	for _, p := range zero {
		if s.PageUnavailable(p) {
			continue // listed with the unreachable members below
		}
		if err := zeroPage(p); err != nil {
			return nil, err
		}
	}
	// Positional: a lost member contributes zero to its coefficient.
	vals := make([]page.Buf, s.Arr.GroupWidth())
	defer func() { s.Pages.Put(vals...) }()
	for i := range vals {
		q := s.Arr.GroupPage(g, i)
		if s.PageUnavailable(q) {
			lost = append(lost, q)
			continue
		}
		b, _, err := s.Arr.ReadData(q, s.Pages.Get())
		switch {
		case err == nil:
			vals[i] = b
		case !disk.IsCorrupt(err):
			return nil, fmt.Errorf("core: read lost group %d page %d: %w", g, q, err)
		default:
			s.deg.corruptDetected.Add(1)
			if err := zeroPage(q); err != nil {
				return nil, err
			}
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
					return nil, fmt.Errorf("core: reset lost group %d: %w", g, err)
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
