package recovery

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/dirtyset"
	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
)

// BeforeImageFunc supplies the in-memory before-image of the page that
// dirtied a group, for the media-recovery case where the group's
// committed parity twin is lost while the owning transaction is still
// active.  Returning nil means the image is unavailable.
type BeforeImageFunc func(g page.GroupID, e dirtyset.Entry) page.Buf

// RebuildGroup reconstructs the blocks of group g that lived on the given
// drives, already replaced by fresh ones — the unit of work of media
// recovery and of the online rebuild alike.  The store's volatile state
// (Dirty_Set, bitmap) must be intact, unlike in crash recovery.  A group
// that lost one block recovers as usual.  A group that lost two blocks
// recovers when the survivors determine its state:
//
//   - both parity twins lost — recomputed from the data pages (the
//     committed twin of a dirty group additionally needs the dirty
//     page's retained before-image);
//   - a data page plus the twin that does NOT describe the on-disk data
//     (the obsolete twin of a clean group; the committed twin of a dirty
//     group, via the before-image) — the data page rebuilds from the
//     surviving twin, then the lost twin is recomputed.
//
// It returns false when the loss exceeds the group's redundancy (two data
// pages; a data page plus the only twin describing the on-disk state):
// the caller gives the group up (core.Store.LoseGroup) or reports it.
//
// Lost data pages come first, solved through the index that tracks the
// on-disk data (core.SolveGroup: one page from P or, when P is lost too,
// from its Q partner; two pages from both), written, and the solve's pages
// handed back to s.Pages.  Then every lost redundancy page is recomputed
// over the whole data (rebuildSlot).  A group with no block on the drives
// costs no I/O.
func RebuildGroup(s *core.Store, g page.GroupID, drives []int, before BeforeImageFunc) (bool, error) {
	var erased []int // member indexes
	for i := 0; i < s.Arr.GroupWidth(); i++ {
		if slices.Contains(drives, s.Arr.DataLoc(s.Arr.GroupPage(g, i)).Disk) {
			erased = append(erased, i)
		}
	}
	var e dirtyset.Entry
	dirty := false
	if s.Dirty != nil {
		e, dirty = s.Dirty.Lookup(g)
	}
	// The index that tracks the *on-disk* data is the working twin of a
	// dirty group, the current twin otherwise.
	onDiskTwin := 0
	if s.Twins != nil {
		onDiskTwin = s.Twins.Current(g)
		if dirty {
			onDiskTwin = e.WorkingTwin
		}
	}
	if len(erased) > 0 {
		vals, _, err := s.SolveGroup(g, onDiskTwin, drives...)
		if errors.Is(err, core.ErrUnrecoverableCorruption) && dirty && len(erased) == 1 && s.Arr.GroupPage(g, erased[0]) != e.Page {
			// The on-disk-view index is gone, but the committed twin plus
			// the dirty page's before-image still determine the page.
			vals, err = solveFromCommitted(s, g, e, erased[0], drives, before)
		}
		if errors.Is(err, core.ErrUnrecoverableCorruption) {
			// The lost pages' covering redundancy is gone too.
			return false, nil
		}
		if err != nil {
			return false, fmt.Errorf("recovery: media rebuild group %d: %w", g, err)
		}
		for _, i := range erased {
			p, meta := s.Arr.GroupPage(g, i), disk.Meta{}
			if dirty && p == e.Page {
				// Restore the crash-undo tag on the dirty page.
				meta.Txn = e.Txn
			}
			if err = s.Arr.WriteData(p, vals[i], meta); err != nil {
				err = fmt.Errorf("recovery: media rebuild page %d: %w", p, err)
				break
			}
		}
		s.Pages.Put(vals...)
		if err != nil {
			return false, err
		}
	}
	// With the data whole again, recompute every lost redundancy page: P
	// twins first, then the Q pages, which mirror their (now whole) P
	// partners.  For a dirty group the working twin goes first: the
	// committed twin's rebuild reads the working twin's timestamp to order
	// below it (Figure 7).
	for _, eq := range s.Arr.Equations() {
		for i := 0; i < s.Arr.ParityPages(); i++ {
			r := eq.Twin(i)
			if dirty && s.Twins != nil {
				r.Twin = e.WorkingTwin ^ i
			}
			if !slices.Contains(drives, s.Arr.Loc(g, r).Disk) {
				continue
			}
			if err := rebuildSlot(s, g, r, dirty, e, before); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

// solveFromCommitted solves a dirty group's one lost bystander page (member
// lost) through the committed twin's P equation, which describes the group
// with the dirty page at its retained before-image: the value P solves
// against the platter is off by exactly the dirty page's delta, D_new ⊕
// D_old, which is folded back out.
func solveFromCommitted(s *core.Store, g page.GroupID, e dirtyset.Entry, lost int, drives []int, before BeforeImageFunc) ([]page.Buf, error) {
	var img page.Buf
	if before != nil {
		img = before(g, e)
	}
	if img == nil {
		return nil, fmt.Errorf("the dirty page's before-image is unavailable: %w", core.ErrUnrecoverableCorruption)
	}
	committed := 1 - e.WorkingTwin
	// The delta algebra is P's; keep the solve off the Q equation.
	erased := drives
	if s.Arr.HasQ() {
		erased = append(append([]int(nil), drives...), s.Arr.Loc(g, qpage(committed)).Disk)
	}
	vals, _, err := s.SolveGroup(g, committed, erased...)
	if err != nil {
		return nil, err
	}
	diskarray.P.SmallWrite(vals[lost], vals[s.Arr.GroupIndex(e.Page)], img, 0)
	return vals, nil
}

// rebuildSlot recomputes one lost redundancy page of group g after the
// group's data is whole again.  A page of the committed index of a dirty
// group describes the before-image state, so it is computed with the
// dirty page's retained before-image in place of its on-disk contents.
//
// The header: a Q page mirrors its (now whole) P partner — the lockstep
// invariant.  A P twin is committed under a fresh timestamp when it is
// current (or the array's only one), obsolete when it held history, and
// working with the dirty entry's tag when it is a dirty group's working
// twin; a dirty group's committed twin keeps the Figure 7 ordering by
// taking the timestamp just BELOW the surviving working twin's.
func rebuildSlot(s *core.Store, g page.GroupID, r diskarray.Red, dirty bool, e dirtyset.Entry, before BeforeImageFunc) error {
	vals, err := s.ReadGroup(g, r)
	defer s.Pages.Put(vals...)
	if err != nil {
		return fmt.Errorf("recovery: media rebuild %s twin %d of group %d: %w", r.Eq, r.Twin, g, err)
	}
	committedOfDirty := dirty && s.Twins != nil && r.Twin != e.WorkingTwin
	if committedOfDirty {
		var img page.Buf
		if before != nil {
			img = before(g, e)
		}
		if img == nil {
			return fmt.Errorf("recovery: group %d: committed %s twin lost while dirty and no before-image available", g, r.Eq)
		}
		copy(vals[s.Arr.GroupIndex(e.Page)], img)
	}
	var meta disk.Meta
	switch {
	case r.Eq == diskarray.Q:
		if meta, err = s.Arr.ReadMeta(g, parity(r.Twin)); err != nil {
			return fmt.Errorf("recovery: media rebuild Q of group %d: %w", g, err)
		}
	case committedOfDirty:
		wMeta, err := s.Arr.ReadMeta(g, parity(e.WorkingTwin))
		if err != nil {
			return err
		}
		meta = disk.Meta{State: disk.StateCommitted, Timestamp: wMeta.Timestamp}
		if meta.Timestamp > 0 {
			meta.Timestamp--
		}
	case dirty && s.Twins != nil:
		// The working twin is by definition the parity of the on-disk
		// data of a dirty group.
		meta = disk.Meta{State: disk.StateWorking, Timestamp: s.TM.NextTimestamp(), Txn: e.Txn, DirtyPage: e.Page}
	case s.Twins != nil && r.Twin != s.Twins.Current(g):
		meta = disk.Meta{State: disk.StateObsolete}
	default:
		meta = disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
	}
	return s.RewriteSlot(g, r, vals, meta)
}
