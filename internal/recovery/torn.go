package recovery

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
)

// repairTorn rebuilds the payload of every block the hard walk found
// silently corrupt — a torn write's checksum mismatch, a misdirected
// write's stamp mismatch, or a lost write's ledger mismatch — from the
// group's redundancy, so every later pass can read every block.  A torn
// write IS the crash, so at most one block per restart is torn, but any
// number is handled (latent faults accumulate).  The scan is the walk's:
// its charged, verified read of every live block is the one full pass a
// hard restart makes over the array.  The repairs run one after another in
// group order — they mutate the shared Report and the twin bitmap — and
// leave their group touched.
func (st *state) repairTorn() error {
	for _, it := range st.walk.Torn {
		var err error
		switch {
		case it.IsRed && it.Red.Eq == diskarray.Q:
			err = st.repairTornQ(it.Group, it.Red.Twin)
		case it.IsRed:
			err = st.repairTornParity(it.Group, it.Red.Twin, it.HeaderOK)
		default:
			err = st.repairTornData(it.Group, it.Page, it.HeaderOK)
		}
		if err != nil {
			return fmt.Errorf("recovery: repair torn block %+v: %w", it, err)
		}
		st.walk.Touch(it.Group)
	}
	st.rep.RepairedTorn = len(st.walk.Torn)
	return nil
}

// repairTornQ rebuilds a corrupt Q page as the mirror of its P partner:
// the Q equation over the data state the partner describes, under the
// partner's header (the lockstep invariant).  When no authority can be
// established the Q page is zeroed invalid: honest erasure, never a
// silently wrong equation — unless the index's P page is gone as well and
// the group has lost a data page whose describing index
// (core.DescribingTwin) is this one: the tear then took the last
// description of that page, and the loss is made explicit.
func (st *state) repairTornQ(g page.GroupID, twin int) error {
	s := st.s
	vals, pm, err := describedByP(s, g, twin)
	if err == nil {
		return s.RewriteSlot(g, qpage(twin), vals, pm)
	}
	if d, lost := s.LostData(g); lost && !s.TwinReadable(g, parity(twin)) {
		src, derr := s.DescribingTwin(g, d, st.a.committed)
		if errors.Is(derr, core.ErrUnrecoverableCorruption) || (derr == nil && src == twin) {
			return st.lose(g)
		}
		if derr != nil {
			return derr
		}
	}
	return zeroInvalid(s, g, qpage(twin))
}

// describedByP returns the data state S that the P page of redundancy
// index twin describes, with that page's header, for rebuilding the
// index's torn Q page.  The P page — alive (dead slots are excluded by the
// scan) and already repaired by the earlier items of the same group — is
// the authority.  S differs from the platter in at most one member: the
// page named by the P page's own header (a working steal or a flip
// pairing) or, when it names none and does not verify against the platter,
// by the other twin's unresolved working header (this index is then the
// committed partner of an in-flight steal); that member's value in S is
// whatever the P equation solves for it.  Fails when the P page is
// unreadable, the group has lost more than P alone can solve, or no header
// names the differing member.
func describedByP(s *core.Store, g page.GroupID, twin int) ([]page.Buf, disk.Meta, error) {
	if !s.TwinReadable(g, parity(twin)) {
		return nil, disk.Meta{}, errors.New("P partner unreadable")
	}
	pm, err := s.Arr.ReadMeta(g, parity(twin))
	if err != nil {
		return nil, pm, err
	}
	// The torn Q page itself is never an equation to solve with.
	qDisk := s.Arr.Loc(g, qpage(twin)).Disk
	solveNaming := func(named page.PageID) ([]page.Buf, disk.Meta, error) {
		if int(named) >= s.Arr.NumPages() || s.Arr.GroupOf(named) != g {
			return nil, pm, fmt.Errorf("header names page %d of another group", named)
		}
		vals, _, err := s.SolveGroup(g, twin, qDisk, s.Arr.DataLoc(named).Disk)
		return vals, pm, err
	}
	if pm.State == disk.StateWorking || pm.PairedSet {
		return solveNaming(pm.DirtyPage)
	}
	vals, _, err := s.SolveGroup(g, twin, qDisk)
	if err != nil {
		return nil, pm, err
	}
	if ok, err := s.Verify(g, parity(twin)); ok || err != nil {
		return vals, pm, err
	}
	if s.Twins != nil {
		if om, err := s.Arr.ReadMeta(g, parity(1-twin)); err == nil && om.State == disk.StateWorking {
			return solveNaming(om.DirtyPage)
		}
	}
	return nil, pm, errors.New("the P partner disagrees with the platter and no header names the member")
}

// repairTornData rebuilds a corrupt data page p: the torn block is one
// more erasure beside the group's dead ones, and the question is only
// which index to solve it through.
//
//   - A loser's working index names p: the fault interrupted a no-UNDO
//     steal (or its undo), and p goes back to its before-image down the
//     undo ladder; the parity-undo pass then merely invalidates the twin.
//     A rung-2 page gets a zero placeholder, so that pass 4 can read what
//     it overwrites.
//   - Otherwise the fault hit a committed or logged write-back whose
//     parity update preceded it, and p is what its describing index says
//     (core.DescribingTwin: NOT always the Figure 7 winner — parity
//     precedes data in both the flip and steal protocols, so the newest
//     twin may describe a data write that never landed, and solving an
//     innocent bystander through it would XOR the phantom delta into the
//     repaired page).  A steal hidden on an unreadable index is found by
//     its tag, and its page — which the surviving, committed index
//     describes at its before-image, not as the platter holds it — is
//     erased alongside p.
//
// The page goes back under the header the torn write itself persisted —
// or, when the fault destroyed the header too (misdirected or lost
// write), under one resynthesized from the describing index's: the steal's
// echo when that is a (committed writer's) working header naming p —
// parity-as-redo of a steal whose acked data write was lost — the flip
// pairing echo when it pairs p, and a cleared header otherwise.  Erasures
// beyond the surviving equations are explicit loss.
func (st *state) repairTornData(g page.GroupID, p page.PageID, headerOK bool) error {
	s, a := st.s, st.a
	erased, gaveUp := []int{s.Arr.DataLoc(p).Disk}, []page.PageID{p}
	if s.RDA() {
		hidden := false
		for twin := 0; twin < 2; twin++ {
			m, err := s.IndexMeta(g, twin)
			if err != nil {
				return err
			}
			hidden = hidden || m.State == disk.StateNone
			if !a.loser(m) || m.DirtyPage != p {
				continue
			}
			rung, err := st.undoSteal(g, p, m.Txn, 1-twin)
			if err == nil && rung == undoLogged {
				err = s.Arr.WriteData(p, make(page.Buf, s.Arr.PageSize()), disk.Meta{})
			}
			return err
		}
		if hidden {
			q, _, found, err := st.unresolvedSteal(g)
			if err != nil {
				return err
			}
			if found {
				erased, gaveUp = append(erased, s.Arr.DataLoc(q).Disk), append(gaveUp, q)
			}
		}
	}
	twin, err := s.DescribingTwin(g, p, a.committed)
	var vals []page.Buf
	var pm disk.Meta
	if err == nil {
		vals, pm, err = s.SolveGroup(g, twin, erased...)
	}
	if errors.Is(err, core.ErrUnrecoverableCorruption) {
		return st.lose(g, gaveUp...)
	}
	if err != nil {
		return err
	}
	var hdr disk.Meta
	switch {
	case headerOK:
		loc := s.Arr.DataLoc(p)
		if hdr, err = s.Arr.Disk(loc.Disk).PeekMeta(loc.Block); err != nil {
			return err
		}
	case pm.State == disk.StateWorking && pm.DirtyPage == p:
		hdr = disk.Meta{Txn: pm.Txn, Timestamp: pm.Timestamp, ChainSet: true}
	case pm.PairedSet && pm.DirtyPage == p:
		hdr = disk.Meta{Timestamp: pm.Timestamp}
	}
	return s.Arr.WriteData(p, vals[s.Arr.GroupIndex(p)], hdr)
}

// repairTornParity rebuilds a corrupt parity twin, deciding by the header
// the torn write itself persisted — or, when the fault destroyed that too
// (misdirected or lost write), by what the rest of the group says the
// header would have been.
//
//   - A loser's working header: the tear interrupted the steal's own
//     parity write.  If the covered data page already carries the writer's
//     tag the tear hit a re-steal, so the page first goes back to its
//     before-image down the undo ladder; either way the twin is retired,
//     zeroed and invalid.
//   - No trustworthy header, and the OTHER index holds a loser's working
//     header: this twin was the committed pre-steal parity, the only
//     carrier of D_old.  If the steal was also logged the log determines
//     D_old — demote the steal (invalidate the working twin) and rebuild
//     this twin over the on-disk data; otherwise the before-image is
//     genuinely gone: explicit loss.
//   - No trustworthy header, and a member page carries an unresolved loser
//     tag: the steal's parity write is ordered before its data write, so a
//     landed tag under a corrupt twin means THIS twin was the loser's
//     working parity; the page unwinds from the other index and this twin
//     is retired.
//   - Any other header — committed, obsolete, a stale working header whose
//     writer committed, or none at all (then: fresh committed) — belongs to
//     parity that ran ahead of its data write, or to a latent fault: the
//     twin is rebuilt under that header (rebuildTornP).
func (st *state) repairTornParity(g page.GroupID, twin int, headerOK bool) error {
	s, a := st.s, st.a
	var hdr disk.Meta // zero: a header the fault destroyed carries no information
	if headerOK {
		var err error
		if hdr, err = s.Arr.PeekMeta(g, parity(twin)); err != nil {
			return err
		}
	}
	// steal is the working header of the loser's steal this twin was the
	// working parity of, if any; tagged, whether the steal's data write
	// landed as well and must be unwound.
	steal, tagged, demote := hdr, false, false
	switch {
	case a.loser(hdr) && !s.PageUnavailable(hdr.DirtyPage):
		buf := s.Pages.Get()
		_, dMeta, err := s.Arr.ReadData(hdr.DirtyPage, buf)
		s.Pages.Put(buf)
		if err != nil {
			return err
		}
		tagged = dMeta.Txn == hdr.Txn
	case !headerOK && s.Twins != nil:
		om, err := s.IndexMeta(g, 1-twin)
		if err != nil {
			return err
		}
		if demote = a.loser(om); demote {
			if !a.hasLoggedImage(om.Txn, om.DirtyPage) {
				return st.lose(g, om.DirtyPage)
			}
		} else if q, tag, found, err := st.unresolvedSteal(g); err != nil {
			return err
		} else if found {
			steal, tagged = disk.Meta{State: disk.StateWorking, Txn: tag.Txn, DirtyPage: q}, true
		}
	}
	if a.loser(steal) {
		if tagged {
			rung, err := st.undoSteal(g, steal.DirtyPage, steal.Txn, 1-twin)
			if err != nil || rung == undoLost {
				return err // lost: loseGroup rewrote every readable twin, this one included
			}
		}
		return zeroInvalid(s, g, parity(twin))
	}
	if !headerOK {
		hdr = disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
	}
	if err := st.rebuildTornP(g, twin, hdr); err != nil || !demote {
		return err
	}
	return s.WriteIndexMeta(g, 1-twin, invalid)
}

// rebuildTornP rewrites torn index twin of group g under header hdr.  With
// every data page readable the platter is the state the index must
// describe, and its reachable slots recompute over it (a cut small write
// can leave Q ahead of P, so both go).  With a data page d erased as well,
// the torn P is needed only if it is d's describing index
// (core.DescribingTwin): if not it is retired; if so d lives on in the
// index's Q partner alone, the P page is rewritten over the values solved
// through it — and without a Q partner the tear took the last description
// of d: explicit loss.
func (st *state) rebuildTornP(g page.GroupID, twin int, hdr disk.Meta) error {
	s := st.s
	d, lost := s.LostData(g)
	if !lost {
		return s.RecomputeIndex(g, twin, hdr)
	}
	src, err := s.DescribingTwin(g, d, st.a.committed)
	if err == nil && src != twin {
		return zeroInvalid(s, g, parity(twin))
	}
	var vals []page.Buf
	if err == nil {
		vals, _, err = s.SolveGroup(g, twin, s.Arr.Loc(g, parity(twin)).Disk)
	}
	if errors.Is(err, core.ErrUnrecoverableCorruption) {
		return st.lose(g)
	}
	if err != nil {
		return err
	}
	return s.RewriteSlot(g, parity(twin), vals, hdr)
}

// zeroInvalid retires a torn redundancy page whose payload nothing
// describes: it is rewritten zeroed and invalid, and — for a P page, the
// header Figure 7 reads — its index invalidated on the reachable slots.
func zeroInvalid(s *core.Store, g page.GroupID, r diskarray.Red) error {
	zero := s.Pages.Get()
	defer s.Pages.Put(zero)
	zero.Zero()
	if err := s.Arr.Write(g, r, zero, invalid); err != nil || r.Eq == diskarray.Q {
		return err
	}
	return s.WriteIndexMeta(g, r.Twin, invalid)
}
