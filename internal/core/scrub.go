package core

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
)

// GroupScrub is the outcome of scrubbing a single parity group.
type GroupScrub struct {
	// Skipped reports that the group was not verified: it was dirty (a
	// no-log steal is in flight and the twin views are in motion) or
	// degraded beyond what its spare redundancy can still check.  A
	// degraded group on a QParity array is NOT skipped wholesale — its
	// spare equation can still repair latent corruption on the readable
	// members (see ScrubGroup).  The online scrubber retries skipped
	// groups on the next cycle.
	Skipped bool
	// LatentErrors is the number of blocks whose stored contents no longer
	// passed verification (checksum, location stamp or write ledger) —
	// latent silent corruption.
	LatentErrors int
	// Repaired is the number of blocks rebuilt from group redundancy.
	Repaired int
	// ParityRewritten counts redundancy pages recomputed because they no
	// longer matched their group's data.
	ParityRewritten int
	// RepairedPages lists the data pages whose platter contents were
	// rewritten, so callers can invalidate exactly the buffer frames that
	// went stale (redundancy rewrites are invisible to the buffer pool).
	RepairedPages []page.PageID
}

// ScrubGroup verifies and repairs one parity group, the unit of work of
// the online scrubber (rda.DB.ScrubStep).  A dirty group is skipped (not
// an error — it is retried on the next scrub cycle); so is a degraded
// group on a single-redundancy array, whose only equation is already
// consumed by the dead disk.  Everything else is
// verified end to end through the current index (repair) and silently
// corrupt blocks are rewritten from the group's redundancy; corrupt blocks
// beyond what the equations can solve return ErrUnrecoverableCorruption.
//
// A degraded group on a QParity array still has an equation to spare: a
// READABLE member that rotted is two erasures with the dead block, which
// P and Q solve together — the repair that turns a would-be
// ErrUnrecoverableCorruption read into a served one.  Its unreachable
// members are the rebuild's job and are not touched, and no consistency
// check is made beyond what the solve itself proves: with members missing,
// a surviving equation cannot be checked against the data without
// consuming the other one.
func (s *Store) ScrubGroup(g page.GroupID) (GroupScrub, error) {
	var res GroupScrub
	degraded := s.GroupDegraded(g)
	if _, dirty := s.dirtyEntry(g); dirty || degraded && !s.Arr.HasQ() {
		res.Skipped = true
		return res, nil
	}
	twin := s.currentTwin(g)
	h, err := s.repair(g, twin, -1, nil, s.Arr.Equations(), !degraded)
	defer h.release(s)
	res.LatentErrors, res.RepairedPages, res.ParityRewritten = h.latent, h.pages, h.stale
	res.Repaired = len(h.pages) + h.reds
	defer func() { s.deg.scrubRepairs.Add(uint64(res.Repaired)) }()
	if err != nil {
		return res, fmt.Errorf("core: scrub group %d: %w", g, err)
	}
	// The obsolete twin of a whole group is also checked for latent
	// errors; its contents are free to rewrite (it is obsolete).
	if s.Twins != nil && !degraded {
		for _, eq := range s.Arr.Equations() {
			r := eq.Twin(1 - twin)
			if _, _, err := s.Arr.Read(g, r, nil); disk.IsCorrupt(err) {
				res.LatentErrors++
				s.deg.corruptDetected.Add(1)
				if err := s.RewriteSlot(g, r, h.vals, disk.Meta{State: disk.StateObsolete}); err != nil {
					return res, err
				}
				res.Repaired++
			}
		}
	}
	s.deg.scrubbedGroups.Add(1)
	return res, nil
}

// RewriteSlot rewrites redundancy page r of group g as its equation over
// the given data values (a nil value counts as a zero page), under the
// given header.
func (s *Store) RewriteSlot(g page.GroupID, r diskarray.Red, vals []page.Buf, meta disk.Meta) error {
	img := s.Pages.Get()
	defer s.Pages.Put(img)
	return s.rewriteSlot(g, r, vals, meta, img)
}

// rewriteSlot is RewriteSlot computing the page into img.
func (s *Store) rewriteSlot(g page.GroupID, r diskarray.Red, vals []page.Buf, meta disk.Meta, img page.Buf) error {
	r.Eq.ComputeInto(img, page.Raw(vals)...)
	if err := s.Arr.Write(g, r, img, meta); err != nil {
		return fmt.Errorf("core: rewrite %s twin %d of group %d: %w", r.Eq, r.Twin, g, err)
	}
	return nil
}

// recompute reads the whole group through the verified group read and
// rewrites redundancy page r as its equation over what it read, under the
// given header: the full-stripe fallback of resync and demotion and media
// recovery of a redundancy block.
func (s *Store) recompute(g page.GroupID, r diskarray.Red, meta disk.Meta) error {
	vals, err := s.ReadGroup(g, r)
	defer s.Pages.Put(vals...)
	if err != nil {
		return err
	}
	return s.RewriteSlot(g, r, vals, meta)
}

// computeIndex returns, by equation, the redundancy pages of a group
// whose data members hold the given values, in pages from s.Pages that the
// caller puts back.
func (s *Store) computeIndex(vals []page.Buf) (imgs [2]page.Buf) {
	raw := page.Raw(vals)
	for _, eq := range s.Arr.Equations() {
		imgs[eq] = s.Pages.Get()
		eq.ComputeInto(imgs[eq], raw...)
	}
	return imgs
}
