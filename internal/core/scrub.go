package core

import (
	"errors"
	"fmt"

	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
)

// ScrubReport summarizes a parity scrub pass.
type ScrubReport struct {
	// GroupsScanned is the number of parity groups examined.
	GroupsScanned int
	// GroupsSkipped is the number of groups left for a later pass because
	// they were dirty or degraded at the time (online scrubbing only).
	GroupsSkipped int
	// LatentErrors is the number of blocks whose stored contents no
	// longer passed verification (checksum, location stamp or write
	// ledger) — latent silent corruption.
	LatentErrors int
	// Repaired is the number of blocks rebuilt from group redundancy.
	Repaired int
	// ParityRewritten counts parity pages recomputed because they no
	// longer matched their group's data.
	ParityRewritten int
	// RepairedPages lists the data pages whose platter contents were
	// rewritten, so callers can invalidate exactly the buffer frames that
	// went stale (parity rewrites are invisible to the buffer pool).
	RepairedPages []page.PageID
}

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
	// LatentErrors, Repaired and ParityRewritten are as in ScrubReport.
	LatentErrors    int
	Repaired        int
	ParityRewritten int
	// RepairedPages lists data pages rewritten on the platter.
	RepairedPages []page.PageID
}

// Scrub walks every parity group, verifying that each valid parity page
// equals the XOR of its data pages and that every block still passes
// end-to-end verification.  Latent silent corruption — checksum rot,
// misdirected writes, lost writes — is repaired from the group's
// surviving redundancy; mismatched parity is recomputed.
//
// Scrub requires a quiesced store: no parity group may be dirty
// (scrubbing would not know which twin view to repair toward).  Online,
// incremental scrubbing of a live store goes through ScrubGroup, which
// skips in-motion groups instead.  This is the paper's "background
// process that runs during the idle periods of the system" (Section 4.2)
// extended from bitmap reconstruction to full redundancy verification.
func (s *Store) Scrub() (*ScrubReport, error) {
	if s.Dirty != nil && s.Dirty.Len() > 0 {
		return nil, fmt.Errorf("core: scrub requires a quiesced store (%d dirty groups)", s.Dirty.Len())
	}
	rep := &ScrubReport{}
	for g := 0; g < s.Arr.NumGroups(); g++ {
		res, err := s.ScrubGroup(page.GroupID(g))
		rep.merge(res)
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// merge folds one group's scrub outcome into the pass report.
func (rep *ScrubReport) merge(res GroupScrub) {
	if res.Skipped {
		rep.GroupsSkipped++
		return
	}
	rep.GroupsScanned++
	rep.LatentErrors += res.LatentErrors
	rep.Repaired += res.Repaired
	rep.ParityRewritten += res.ParityRewritten
	rep.RepairedPages = append(rep.RepairedPages, res.RepairedPages...)
}

// ScrubGroup verifies and repairs one parity group, the unit of work of
// the online scrubber.  A dirty group is skipped (not an error — it is
// retried on the next scrub cycle); so is a degraded group on a
// single-redundancy array, whose only equation is already consumed by
// the dead disk.  Everything else is verified end to end through the
// current index (healIndex) and silently corrupt blocks are rewritten from
// the group's redundancy; corrupt blocks beyond what the equations can
// solve return ErrUnrecoverableCorruption.
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
	if degraded && !s.Arr.HasQ() {
		res.Skipped = true
		return res, nil
	}
	if s.Dirty != nil {
		if _, dirty := s.Dirty.Lookup(g); dirty {
			res.Skipped = true
			return res, nil
		}
	}
	twin := s.currentTwin(g)
	h, err := s.healIndex(g, twin, s.Arr.Equations(), !degraded)
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

// healed is what one healIndex pass found and fixed.
type healed struct {
	latent int           // blocks that failed verification
	pages  []page.PageID // data pages rewritten on the platter
	reds   int           // redundancy pages rewritten because they were corrupt
	stale  int           // redundancy pages rewritten because the data had moved on
	vals   []page.Buf    // the group's data values as the index describes them
}

// healIndex runs a verified pass over group g through redundancy index
// twin — every member checked against its checksum, location stamp and
// the write ledger — and rewrites what failed: corrupt data pages get the
// value the index's equations solve for them (SolveGroup; their header's
// flip-pairing echo is restored when the index names them, so a later
// degraded restart does not mistake the completed flip for a broken one),
// and each corrupt page of eqs is recomputed from the data.  With verify
// set, a readable page of eqs that no longer satisfies its equation is
// recomputed too.  A rewritten redundancy page keeps its persisted header
// when only its payload was damaged (a checksum failure); a misdirected or
// lost write leaves a foreign or stale header, so the index's other page
// lends its own (the lockstep mirror), and failing that the page starts
// over as committed under a fresh timestamp.
func (s *Store) healIndex(g page.GroupID, twin int, eqs []diskarray.Eq, verify bool) (healed, error) {
	var h healed
	sol, err := s.solve(g, twin, nil)
	for _, i := range sol.erased {
		if !s.PageUnavailable(sol.pages[i]) {
			h.latent++
		}
	}
	for _, r := range sol.red {
		if disk.IsCorrupt(r.err) {
			h.latent++
		}
	}
	if err != nil {
		return h, err
	}
	h.vals = sol.vals
	// Read the pages of eqs the solve had no use for.
	red, payload := sol.red, [2]page.Buf{}
	for _, eq := range eqs {
		r := eq.Twin(twin)
		if red[eq].read || !s.SlotAlive(g, r) {
			continue
		}
		payload[eq], red[eq].meta, red[eq].err = s.Arr.Read(g, r, nil)
		red[eq].read = true
		if err := red[eq].err; disk.IsCorrupt(err) {
			h.latent++
			s.deg.corruptDetected.Add(1)
		} else if err != nil {
			return h, fmt.Errorf("read %s twin %d: %w", eq, twin, err)
		}
	}
	// own[eq] is a page's own header where the fault left it trustworthy —
	// the page read fine, or only its payload was damaged — and hdr the
	// index's: P's when it survived, else the Q mirror's.
	var own [2]disk.Meta
	for eq, r := range red {
		switch {
		case r.read && r.err == nil:
			own[eq] = r.meta
		case r.read && errors.Is(r.err, disk.ErrChecksum):
			own[eq], _ = s.Arr.PeekMeta(g, diskarray.Eq(eq).Twin(twin))
		}
	}
	hdr := own[diskarray.P]
	if hdr.State == disk.StateNone {
		hdr = own[diskarray.Q]
	}
	for _, i := range sol.erased {
		p := sol.pages[i]
		if s.PageUnavailable(p) {
			continue
		}
		meta := disk.Meta{}
		if hdr.PairedSet && hdr.DirtyPage == p {
			meta = disk.Meta{Timestamp: hdr.Timestamp}
		}
		if err := s.Arr.WriteData(p, sol.vals[i], meta); err != nil {
			return h, fmt.Errorf("repair page %d: %w", p, err)
		}
		h.pages = append(h.pages, p)
	}
	var sum page.Buf // where verify sums an equation
	if verify {
		sum = s.Pages.Get()
		defer s.Pages.Put(sum)
	}
	for _, eq := range eqs {
		r := eq.Twin(twin)
		switch {
		case !red[eq].read:
			continue
		case red[eq].err != nil:
			meta := own[eq]
			if meta.State == disk.StateNone {
				meta = hdr
			}
			if meta.State == disk.StateNone {
				meta = disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
			}
			if err := s.RewriteSlot(g, r, sol.vals, meta); err != nil {
				return h, err
			}
			h.reds++
		case verify && payload[eq] != nil && !eq.Holds(sum, payload[eq], page.Raw(sol.vals)...):
			if err := s.RewriteSlot(g, r, sol.vals, hdr); err != nil {
				return h, err
			}
			h.stale++
		}
	}
	return h, nil
}

// RewriteSlot rewrites redundancy page r of group g as its equation over
// the given data values (a nil value counts as a zero page), under the
// given header.
func (s *Store) RewriteSlot(g page.GroupID, r diskarray.Red, vals []page.Buf, meta disk.Meta) error {
	if err := s.rewriteSlot(g, r, vals, meta); err != nil {
		return fmt.Errorf("core: rewrite %s twin %d of group %d: %w", r.Eq, r.Twin, g, err)
	}
	return nil
}

// rewriteSlot computes the page in scratch from s.Pages and writes it.
func (s *Store) rewriteSlot(g page.GroupID, r diskarray.Red, vals []page.Buf, meta disk.Meta) error {
	img := s.Pages.Get()
	defer s.Pages.Put(img)
	r.Eq.ComputeInto(img, page.Raw(vals)...)
	return s.Arr.Write(g, r, img, meta)
}

// ReadGroup reads all N data pages of group g, together when the drives
// queue, into pages from s.Pages: the caller puts them back when it is done
// with them, after an error too.
func (s *Store) ReadGroup(g page.GroupID) ([]page.Buf, error) {
	bufs := make([]page.Buf, s.Arr.GroupWidth())
	for i := range bufs {
		bufs[i] = s.Pages.Get()
	}
	return bufs, s.Arr.ReadGroup(g, bufs)
}

// Recompute reads the whole group and rewrites redundancy page r as its
// equation over what it read, under the given header: the full-stripe
// fallback of resync, parity repair and media recovery of a redundancy
// block.  Every data page of the group must be readable.
func (s *Store) Recompute(g page.GroupID, r diskarray.Red, meta disk.Meta) error {
	vals, err := s.ReadGroup(g)
	defer s.Pages.Put(vals...)
	if err != nil {
		return err
	}
	return s.rewriteSlot(g, r, vals, meta)
}

// computeIndex returns, by equation, the redundancy pages of a group
// whose data members hold the given values.
func (s *Store) computeIndex(vals []page.Buf) (imgs [2]page.Buf) {
	raw := page.Raw(vals)
	for _, eq := range s.Arr.Equations() {
		imgs[eq] = eq.Compute(s.Arr.PageSize(), raw...)
	}
	return imgs
}
