package core

import (
	"errors"
	"fmt"

	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
)

// rebuildDataPage reconstructs one data page from its group's
// redundancy — the index that describes the on-disk data (the working
// twin of a dirty group, the current twin of a clean one) solved for p
// (SolvePage) — writes it back, and returns the contents.  The rebuilt
// page's header is restored from what the index's header records: a dirty
// page gets its crash-undo transaction tag (and the working twin's
// timestamp, so the re-steal detection keeps working), and a page named
// by a committed flip pairing gets the pairing timestamp back (so a later
// degraded restart does not mistake the completed flip for a broken one).
//
// A group that has lost more blocks than its equations solve fails with
// ErrUnrecoverableCorruption rather than fabricating contents.
func (s *Store) rebuildDataPage(p page.PageID) (page.Buf, error) {
	g := s.Arr.GroupOf(p)
	rebuilt, hdr, err := s.SolvePage(g, p, s.describingTwin(g))
	if err != nil {
		return nil, fmt.Errorf("core: rebuild page %d: %w", p, err)
	}
	meta := disk.Meta{}
	if hdr.PairedSet && hdr.DirtyPage == p {
		meta = disk.Meta{Timestamp: hdr.Timestamp}
	}
	if s.Dirty != nil {
		if e, dirty := s.Dirty.Lookup(g); dirty && e.Page == p {
			meta = disk.Meta{Txn: e.Txn, Timestamp: hdr.Timestamp}
		}
	}
	if err := s.Arr.WriteData(p, rebuilt, meta); err != nil {
		return nil, fmt.Errorf("core: rebuild page %d: write: %w", p, err)
	}
	return rebuilt, nil
}

// ReadPage reads a data page, charging one transfer.  Every read is
// verified end to end: if the page's disk is down the read is served by
// on-the-fly reconstruction, and silent corruption (checksum mismatch,
// misdirected-write stamp, lost-write ledger) is repaired in place from
// the group's redundancy before the page is returned — the inline
// counterpart of the scrub pass, so a single bad block never surfaces as
// an application error, and corrupt bytes are never served.  When the
// redundancy cannot reconstruct the block, ErrUnrecoverableCorruption is
// returned instead.
//
// dst, when non-nil, is a page buffer the caller owns and wants reused:
// the platter read, or the degraded reconstruction, fills and returns
// it.  A repaired image comes back in a buffer of its own, so callers use
// the returned slice, never dst itself.
func (s *Store) ReadPage(p page.PageID, dst page.Buf) (page.Buf, error) {
	if s.PageUnavailable(p) {
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
	rebuilt, rerr := s.rebuildDataPage(p)
	if rerr != nil {
		return nil, fmt.Errorf("core: read repair of page %d failed: %w (original: %v)", p, rerr, err)
	}
	s.deg.readRepairs.Add(1)
	return rebuilt, nil
}

// readRed reads redundancy page r of group g verified end to end.  A
// corrupt P page is transparently repaired by recomputing the parity from
// the group's data pages — but only when its twin is the one describing
// the on-disk data (the current twin of a clean group, or the working
// twin of a dirty one).  The other twin holds *history* — the committed
// pre-transaction parity of a dirty group, or an obsolete version — that
// the data cannot regenerate, so its errors surface to the caller, as do
// a Q page's: nothing above arbitrates by a Q header, and the scrub and
// resync passes rewrite a damaged one.
//
// The repaired twin's header: when only the payload was damaged
// (checksum mismatch — bit rot or a torn write keep the block's own
// header) the persisted header is reused; when the header itself is gone
// (a misdirected write deposited a foreign one, or a lost write left a
// stale old version) it is resynthesized from the store's in-memory
// state — a working header with the dirty entry's tag for a dirty group,
// a fresh committed header for a clean one.
func (s *Store) readRed(g page.GroupID, r diskarray.Red, dst page.Buf) (page.Buf, disk.Meta, error) {
	b, m, err := s.Arr.Read(g, r, dst)
	if err == nil || !disk.IsCorrupt(err) || r.Eq != diskarray.P {
		return b, m, err
	}
	twin := r.Twin
	s.deg.corruptDetected.Add(1)
	if twin != s.describingTwin(g) {
		return nil, disk.Meta{}, fmt.Errorf("core: read twin %d of group %d: %w", twin, g, err)
	}
	var meta disk.Meta
	if errors.Is(err, disk.ErrChecksum) {
		pm, merr := s.Arr.PeekMeta(g, r)
		if merr != nil {
			return nil, disk.Meta{}, fmt.Errorf("core: read twin %d of group %d: %w", twin, g, err)
		}
		meta = pm
	} else {
		meta = s.synthesizeParityMeta(g, twin)
	}
	if rerr := s.Recompute(g, r, meta); rerr != nil {
		if disk.IsCorrupt(rerr) || errors.Is(rerr, disk.ErrFailed) {
			s.deg.unrecoverable.Add(1)
			return nil, disk.Meta{}, fmt.Errorf("core: parity repair of group %d twin %d: %v: %w", g, twin, rerr, ErrUnrecoverableCorruption)
		}
		return nil, disk.Meta{}, fmt.Errorf("core: parity repair of group %d twin %d failed: %w (original: %v)", g, twin, rerr, err)
	}
	s.deg.parityRepairs.Add(1)
	return s.Arr.Read(g, r, dst)
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
