package core

import (
	"errors"
	"fmt"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/xorparity"
)

// RebuildDataPage reconstructs one data page from its group's
// redundancy — the valid parity view plus the other members — writes it
// back, and returns the contents.  For a dirty group the working twin is
// the parity of the on-disk data; for a clean group the current twin is.
// The rebuilt page's header is restored from what the parity header
// records: a dirty page gets its crash-undo transaction tag (and the
// working twin's timestamp, so the re-steal detection keeps working), and
// a page named by a committed flip pairing gets the pairing timestamp
// back (so a later degraded restart does not mistake the completed flip
// for a broken one).
//
// A survivor that is itself unreachable or corrupt means the group has
// lost two blocks: the rebuild fails with ErrUnrecoverableCorruption
// rather than fabricating contents.
func (s *Store) RebuildDataPage(p page.PageID) (page.Buf, error) {
	g := s.Arr.GroupOf(p)
	twin := 0
	var dirtyTxn page.TxID
	isDirtyPage := false
	if s.Twins != nil {
		twin = s.Twins.Current(g)
		if s.Dirty != nil {
			if e, dirty := s.Dirty.Lookup(g); dirty {
				twin = e.WorkingTwin
				if e.Page == p {
					isDirtyPage = true
					dirtyTxn = e.Txn
				}
			}
		}
	}
	parity, pm, err := s.ReadParityRepair(g, twin, nil)
	if err != nil {
		if disk.IsCorrupt(err) || errors.Is(err, disk.ErrFailed) {
			if s.Arr.HasQ() {
				// The P equation is gone; the index's Q partner solves the
				// same data state (lockstep).
				return s.rebuildDataPageViaSolve(g, p, twin, isDirtyPage, dirtyTxn)
			}
			return nil, fmt.Errorf("core: rebuild page %d: read parity: %v: %w", p, err, ErrUnrecoverableCorruption)
		}
		return nil, fmt.Errorf("core: rebuild page %d: read parity: %w", p, err)
	}
	survivors := [][]byte{parity}
	for _, q := range s.Arr.GroupPages(g) {
		if q == p {
			continue
		}
		if s.pageUnavailable(q) {
			if s.Arr.HasQ() {
				// p plus a dead sibling are two erasures: P and Q together.
				return s.rebuildDataPageViaSolve(g, p, twin, isDirtyPage, dirtyTxn)
			}
			return nil, fmt.Errorf("core: rebuild page %d: survivor %d unreachable: %w", p, q, ErrUnrecoverableCorruption)
		}
		b, _, err := s.Arr.ReadData(q, nil)
		if err != nil {
			if disk.IsCorrupt(err) || errors.Is(err, disk.ErrFailed) {
				if s.Arr.HasQ() && disk.IsCorrupt(err) {
					// p plus a corrupt sibling: solve both from P and Q.
					return s.rebuildDataPageViaSolve(g, p, twin, isDirtyPage, dirtyTxn)
				}
				return nil, fmt.Errorf("core: rebuild page %d: read survivor %d: %v: %w", p, q, err, ErrUnrecoverableCorruption)
			}
			return nil, fmt.Errorf("core: rebuild page %d: read survivor %d: %w", p, q, err)
		}
		survivors = append(survivors, b)
	}
	meta := disk.Meta{}
	switch {
	case isDirtyPage:
		meta = disk.Meta{Txn: dirtyTxn, Timestamp: pm.Timestamp}
	case pm.PairedSet && pm.DirtyPage == p:
		meta = disk.Meta{Timestamp: pm.Timestamp}
	}
	rebuilt := page.Buf(xorparity.Reconstruct(s.Arr.PageSize(), survivors...))
	if err := s.Arr.WriteData(p, rebuilt, meta); err != nil {
		return nil, fmt.Errorf("core: rebuild page %d: write: %w", p, err)
	}
	return rebuilt, nil
}

// rebuildDataPageViaSolve is RebuildDataPage's fallback on QParity arrays
// when the plain P route runs out of equations: the group is solved
// through the describing index's P and Q equations together (unreachable
// and corrupt members are erasures) and page p's value written back under
// a header restored from the index's surviving redundancy header — P's if
// readable, else its Q mirror.
func (s *Store) rebuildDataPageViaSolve(g page.GroupID, p page.PageID, twin int, isDirtyPage bool, dirtyTxn page.TxID) (page.Buf, error) {
	vals, err := s.SolveGroup(g, twin)
	if err != nil {
		return nil, fmt.Errorf("core: rebuild page %d: %w", p, err)
	}
	var hdr disk.Meta
	haveHdr := false
	if s.paritySlotAlive(g, twin) {
		if m, merr := s.Arr.ReadParityMeta(g, twin); merr == nil {
			hdr, haveHdr = m, true
		}
	}
	if !haveHdr && s.qSlotAlive(g, twin) {
		if m, merr := s.Arr.ReadQMeta(g, twin); merr == nil {
			hdr = m
		}
	}
	meta := disk.Meta{}
	switch {
	case isDirtyPage:
		meta = disk.Meta{Txn: dirtyTxn, Timestamp: hdr.Timestamp}
	case hdr.PairedSet && hdr.DirtyPage == p:
		meta = disk.Meta{Timestamp: hdr.Timestamp}
	}
	rebuilt := vals[s.groupIndexOf(g, p)]
	if err := s.Arr.WriteData(p, rebuilt, meta); err != nil {
		return nil, fmt.Errorf("core: rebuild page %d: write: %w", p, err)
	}
	return rebuilt, nil
}

// ReadPageRepair reads a data page verified end to end, transparently
// repairing any silent corruption (checksum mismatch, misdirected-write
// stamp, lost-write ledger) from the group's redundancy — the inline
// counterpart of the scrub pass, so a single bad block never surfaces as
// an application error, and corrupt bytes are never served.  When the
// redundancy cannot reconstruct the block, ErrUnrecoverableCorruption is
// returned instead.
//
// dst, when non-nil, is a page buffer the caller owns and wants reused:
// the platter read, or the degraded reconstruction, fills and returns
// it.  A repaired image comes back in a buffer of its own, so callers use
// the returned slice, never dst itself.
func (s *Store) ReadPageRepair(p page.PageID, dst page.Buf) (page.Buf, error) {
	if s.pageUnavailable(p) {
		return s.readDegraded(p, dst)
	}
	b, _, err := s.Arr.ReadData(p, dst)
	if err == nil {
		return b, nil
	}
	if !disk.IsCorrupt(err) {
		return nil, fmt.Errorf("core: read page %d: %w", p, err)
	}
	s.deg.corruptDetected.Add(1)
	rebuilt, rerr := s.RebuildDataPage(p)
	if rerr != nil {
		if errors.Is(rerr, ErrUnrecoverableCorruption) {
			s.deg.unrecoverable.Add(1)
		}
		return nil, fmt.Errorf("core: read repair of page %d failed: %w (original: %v)", p, rerr, err)
	}
	s.deg.readRepairs.Add(1)
	return rebuilt, nil
}

// ReadParityRepair reads parity twin `twin` of group g verified end to
// end, transparently repairing silent corruption by recomputing the
// parity from the group's data pages — but only when this twin is the one
// describing the on-disk data (the current twin of a clean group, or the
// working twin of a dirty one).  The other twin holds *history* — the
// committed pre-transaction parity of a dirty group, or an obsolete
// version — that the data cannot regenerate, so its errors surface to the
// caller.
//
// The repaired twin's header: when only the payload was damaged
// (checksum mismatch — bit rot or a torn write keep the block's own
// header) the persisted header is reused; when the header itself is gone
// (a misdirected write deposited a foreign one, or a lost write left a
// stale old version) it is resynthesized from the store's in-memory
// state — a working header with the dirty entry's tag for a dirty group,
// a fresh committed header for a clean one.
func (s *Store) ReadParityRepair(g page.GroupID, twin int, dst page.Buf) (page.Buf, disk.Meta, error) {
	b, m, err := s.Arr.ReadParity(g, twin, dst)
	if err == nil || !disk.IsCorrupt(err) {
		return b, m, err
	}
	s.deg.corruptDetected.Add(1)
	if twin != s.describingTwin(g) {
		return nil, disk.Meta{}, fmt.Errorf("core: read twin %d of group %d: %w", twin, g, err)
	}
	var meta disk.Meta
	if errors.Is(err, disk.ErrChecksum) {
		pm, merr := s.Arr.PeekParityMeta(g, twin)
		if merr != nil {
			return nil, disk.Meta{}, fmt.Errorf("core: read twin %d of group %d: %w", twin, g, err)
		}
		meta = pm
	} else {
		meta = s.synthesizeParityMeta(g, twin)
	}
	if rerr := s.Arr.RecomputeParity(g, twin, meta); rerr != nil {
		if disk.IsCorrupt(rerr) || errors.Is(rerr, disk.ErrFailed) {
			s.deg.unrecoverable.Add(1)
			return nil, disk.Meta{}, fmt.Errorf("core: parity repair of group %d twin %d: %v: %w", g, twin, rerr, ErrUnrecoverableCorruption)
		}
		return nil, disk.Meta{}, fmt.Errorf("core: parity repair of group %d twin %d failed: %w (original: %v)", g, twin, rerr, err)
	}
	s.deg.parityRepairs.Add(1)
	return s.Arr.ReadParity(g, twin, dst)
}

// synthesizeParityMeta rebuilds the header of the describing parity twin
// of group g from in-memory state, for repairs where the on-platter
// header cannot be trusted (misdirected or lost writes).  A dirty group's
// working twin gets a working header carrying the dirty entry's
// transaction and covered page; a clean group's current twin gets a fresh
// committed header (the pairing bits are dropped — conservative, the pair
// check simply does not fire).
func (s *Store) synthesizeParityMeta(g page.GroupID, twin int) disk.Meta {
	if s.Dirty != nil {
		if e, dirty := s.Dirty.Lookup(g); dirty && e.WorkingTwin == twin {
			return disk.Meta{
				State: disk.StateWorking, Timestamp: s.TM.NextTimestamp(),
				Txn: e.Txn, DirtyPage: e.Page,
			}
		}
	}
	return disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
}
