package core

import (
	"errors"
	"fmt"

	"repro/internal/disk"
	"repro/internal/erasure"
	"repro/internal/page"
	"repro/internal/xorparity"
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
	// members (scrubGroupDegraded).  The online scrubber retries skipped
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
// the dead disk.  A degraded group on a QParity array is instead handed
// to scrubGroupDegraded: as long as the down disks leave a spare
// equation, latent corruption on the readable members is still
// repairable.  Everything else is verified end to end and silently
// corrupt blocks are rewritten from the group's redundancy.  Corrupt
// blocks beyond what the redundancy equations can solve return
// ErrUnrecoverableCorruption.
//
// Repairs restore block headers: a rebuilt data page named by the
// parity's committed-flip pairing gets the pairing timestamp back (so a
// later degraded restart does not mistake the completed flip for a
// broken one), and a repaired current parity twin keeps its persisted
// header when only the payload rotted (checksum failure) or gets a fresh
// committed header when the header itself is untrustworthy (misdirected
// or lost write).  Q pages mirror their P partner's header (the
// lockstep invariant).
func (s *Store) ScrubGroup(g page.GroupID) (GroupScrub, error) {
	var res GroupScrub
	if s.GroupDegraded(g) {
		if s.Arr.HasQ() {
			return s.scrubGroupDegraded(g)
		}
		res.Skipped = true
		return res, nil
	}
	if s.Dirty != nil {
		if _, dirty := s.Dirty.Lookup(g); dirty {
			res.Skipped = true
			return res, nil
		}
	}

	pages := s.Arr.GroupPages(g)
	data := make([]page.Buf, len(pages))
	bad := -1
	for i, p := range pages {
		b, _, err := s.Arr.ReadData(p, nil)
		switch {
		case err == nil:
			data[i] = b
		case disk.IsCorrupt(err):
			res.LatentErrors++
			s.deg.corruptDetected.Add(1)
			if bad >= 0 {
				s.deg.unrecoverable.Add(1)
				return res, fmt.Errorf("core: group %d has two corrupt data blocks (%v): %w", g, err, ErrUnrecoverableCorruption)
			}
			bad = i
		default:
			return res, fmt.Errorf("core: scrub group %d: %w", g, err)
		}
	}

	twin := s.currentTwin(g)
	parity, pMeta, perr := s.Arr.ReadParity(g, twin, nil)
	if perr != nil {
		if !disk.IsCorrupt(perr) {
			return res, fmt.Errorf("core: scrub group %d parity: %w", g, perr)
		}
		res.LatentErrors++
		s.deg.corruptDetected.Add(1)
	}

	switch {
	case bad >= 0 && perr != nil:
		// Both a data block and its P page rotted.  Single parity is out
		// of equations; with a Q partner the data block solves through
		// the Q equation, and P recomputes behind it under the Q header
		// (the lockstep mirror of the header P lost).
		if !s.Arr.HasQ() {
			s.deg.unrecoverable.Add(1)
			return res, fmt.Errorf("core: group %d lost both a data block and its parity (%v): %w", g, perr, ErrUnrecoverableCorruption)
		}
		qBuf, qMeta, qerr := s.Arr.ReadQ(g, twin, nil)
		if qerr != nil {
			s.deg.unrecoverable.Add(1)
			return res, fmt.Errorf("core: group %d lost a data block, its parity (%v) and its Q page (%v): %w", g, perr, qerr, ErrUnrecoverableCorruption)
		}
		raw := make([][]byte, len(data))
		for i, b := range data {
			raw[i] = b
		}
		rebuilt := page.Buf(erasure.ReconstructOneQ(qBuf, raw, bad))
		meta := disk.Meta{}
		if qMeta.PairedSet && qMeta.DirtyPage == pages[bad] {
			meta = disk.Meta{Timestamp: qMeta.Timestamp}
		}
		if err := s.Arr.WriteData(pages[bad], rebuilt, meta); err != nil {
			return res, fmt.Errorf("core: scrub repair page %d: %w", pages[bad], err)
		}
		data[bad] = rebuilt
		pMeta = qMeta
		if errors.Is(perr, disk.ErrChecksum) {
			if m, merr := s.Arr.PeekParityMeta(g, twin); merr == nil {
				pMeta = m
			}
		}
		newP, err := s.recomputeParityFrom(g, twin, data, pMeta)
		if err != nil {
			return res, err
		}
		parity = newP
		res.Repaired += 2
		res.RepairedPages = append(res.RepairedPages, pages[bad])
		s.deg.scrubRepairs.Add(2)
	case bad >= 0:
		// Rebuild the corrupt data block from parity + survivors,
		// restoring a flip-pairing header if the parity names this page.
		survivors := [][]byte{parity}
		for i, b := range data {
			if i != bad {
				survivors = append(survivors, b)
			}
		}
		meta := disk.Meta{}
		if pMeta.PairedSet && pMeta.DirtyPage == pages[bad] {
			meta = disk.Meta{Timestamp: pMeta.Timestamp}
		}
		rebuilt := xorparity.Reconstruct(s.Arr.PageSize(), survivors...)
		if err := s.Arr.WriteData(pages[bad], rebuilt, meta); err != nil {
			return res, fmt.Errorf("core: scrub repair page %d: %w", pages[bad], err)
		}
		res.Repaired++
		res.RepairedPages = append(res.RepairedPages, pages[bad])
		s.deg.scrubRepairs.Add(1)
		data[bad] = rebuilt
	case perr != nil:
		// Rebuild the corrupt parity page from the data.  The persisted
		// header survives a payload-only checksum failure; a misdirected
		// or lost write leaves an untrustworthy header, so synthesize a
		// fresh committed one (the group is clean here).
		meta := disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
		if errors.Is(perr, disk.ErrChecksum) {
			if m, merr := s.Arr.PeekParityMeta(g, twin); merr == nil {
				meta = m
			}
		}
		newP, err := s.recomputeParityFrom(g, twin, data, meta)
		if err != nil {
			return res, err
		}
		res.Repaired++
		s.deg.scrubRepairs.Add(1)
		parity, pMeta = newP, meta
	}

	// Verify parity correctness and rewrite if stale.
	raw := make([][]byte, len(data))
	for i, b := range data {
		raw[i] = b
	}
	if !xorparity.Verify(parity, raw...) {
		if _, err := s.recomputeParityFrom(g, twin, data, pMeta); err != nil {
			return res, err
		}
		res.ParityRewritten++
	}

	// The Q pages of a QParity array: the current index's Q must solve
	// the same data state as its P partner; latent corruption and stale
	// payloads are rewritten under the partner's header (lockstep).
	if s.Arr.HasQ() {
		qBuf, _, qerr := s.Arr.ReadQ(g, twin, nil)
		switch {
		case qerr != nil && !disk.IsCorrupt(qerr):
			return res, fmt.Errorf("core: scrub group %d Q: %w", g, qerr)
		case qerr != nil:
			res.LatentErrors++
			s.deg.corruptDetected.Add(1)
			if err := s.recomputeQFrom(g, twin, data, pMeta); err != nil {
				return res, err
			}
			res.Repaired++
			s.deg.scrubRepairs.Add(1)
		case !erasure.VerifyQ(qBuf, raw...):
			if err := s.recomputeQFrom(g, twin, data, pMeta); err != nil {
				return res, err
			}
			res.ParityRewritten++
		}
	}

	// The obsolete twin of a twinned array is also checked for latent
	// errors; its contents are free to rewrite (it is obsolete).
	if s.Twins != nil {
		other := 1 - twin
		if _, _, err := s.Arr.ReadParity(g, other, nil); disk.IsCorrupt(err) {
			res.LatentErrors++
			s.deg.corruptDetected.Add(1)
			meta := disk.Meta{State: disk.StateObsolete, Timestamp: 0}
			if _, err := s.recomputeParityFrom(g, other, data, meta); err != nil {
				return res, err
			}
			res.Repaired++
			s.deg.scrubRepairs.Add(1)
		}
		if other < s.Arr.QParityPages() {
			if _, _, err := s.Arr.ReadQ(g, other, nil); disk.IsCorrupt(err) {
				res.LatentErrors++
				s.deg.corruptDetected.Add(1)
				meta := disk.Meta{State: disk.StateObsolete, Timestamp: 0}
				if err := s.recomputeQFrom(g, other, data, meta); err != nil {
					return res, err
				}
				res.Repaired++
				s.deg.scrubRepairs.Add(1)
			}
		}
	}
	s.deg.scrubbedGroups.Add(1)
	return res, nil
}

// scrubGroupDegraded scrubs a group that has blocks on down disks, on a
// QParity array.  Unreachable members are the rebuild's job and are not
// touched; the scrub's value while degraded is the spare equation: a
// READABLE member that rotted is still two erasures (the dead block plus
// the corrupt one) against the P and Q equations, which the solver
// handles — the repair that turns a would-be ErrUnrecoverableCorruption
// read into a served one.  Equation payloads of the current index are
// likewise repaired when corrupt and their slots are alive.  No
// consistency verification is attempted beyond what the solve itself
// proves: with members missing, a surviving equation cannot be checked
// against the data without consuming the other one.
func (s *Store) scrubGroupDegraded(g page.GroupID) (GroupScrub, error) {
	var res GroupScrub
	if s.Dirty != nil {
		if _, dirty := s.Dirty.Lookup(g); dirty {
			res.Skipped = true
			return res, nil
		}
	}
	twin := s.currentTwin(g)
	pages := s.Arr.GroupPages(g)

	// Probe the readable members and the current index's alive equation
	// slots for latent corruption.
	var corrupt []int
	for i, p := range pages {
		if s.pageUnavailable(p) {
			continue
		}
		if _, _, err := s.Arr.ReadData(p, nil); err != nil {
			if !disk.IsCorrupt(err) {
				return res, fmt.Errorf("core: scrub group %d: %w", g, err)
			}
			res.LatentErrors++
			corrupt = append(corrupt, i)
		}
	}
	pCorrupt, qCorrupt := false, false
	var pErr, qErr error
	if s.paritySlotAlive(g, twin) {
		if _, _, err := s.Arr.ReadParity(g, twin, nil); disk.IsCorrupt(err) {
			res.LatentErrors++
			pCorrupt, pErr = true, err
		}
	}
	if s.qSlotAlive(g, twin) {
		if _, _, err := s.Arr.ReadQ(g, twin, nil); disk.IsCorrupt(err) {
			res.LatentErrors++
			s.deg.corruptDetected.Add(1)
			qCorrupt, qErr = true, err
		}
	}
	if len(corrupt) == 0 && !pCorrupt && !qCorrupt {
		return res, nil
	}

	// Solve the group through the current index.  SolveGroup treats the
	// unreachable members, the corrupt readable ones and a corrupt P as
	// erasures; if the count exceeds the reachable equations the typed
	// ErrUnrecoverableCorruption propagates.
	vals, err := s.SolveGroup(g, twin)
	if err != nil {
		return res, fmt.Errorf("core: scrub group %d: %w", g, err)
	}

	// Header for pairing restoration and equation rewrites: P's if its
	// slot is alive and its header survived the fault (a checksum failure
	// keeps the block's own header; a misdirected or lost write leaves a
	// foreign or stale one), else the Q mirror, else a fresh committed
	// header (the group is clean while degraded).
	var hdr disk.Meta
	haveHdr := false
	if s.paritySlotAlive(g, twin) && (!pCorrupt || errors.Is(pErr, disk.ErrChecksum)) {
		if m, merr := s.Arr.ReadParityMeta(g, twin); merr == nil {
			hdr, haveHdr = m, true
		}
	}
	if !haveHdr && s.qSlotAlive(g, twin) && (!qCorrupt || errors.Is(qErr, disk.ErrChecksum)) {
		if m, merr := s.Arr.ReadQMeta(g, twin); merr == nil {
			hdr, haveHdr = m, true
		}
	}
	if !haveHdr {
		hdr = disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
	}

	for _, i := range corrupt {
		meta := disk.Meta{}
		if hdr.PairedSet && hdr.DirtyPage == pages[i] {
			meta = disk.Meta{Timestamp: hdr.Timestamp}
		}
		if err := s.Arr.WriteData(pages[i], vals[i], meta); err != nil {
			return res, fmt.Errorf("core: scrub repair page %d: %w", pages[i], err)
		}
		res.Repaired++
		res.RepairedPages = append(res.RepairedPages, pages[i])
		s.deg.scrubRepairs.Add(1)
	}
	raw := make([][]byte, len(vals))
	for i, v := range vals {
		raw[i] = v
	}
	if pCorrupt {
		newP := xorparity.Compute(s.Arr.PageSize(), raw...)
		if err := s.Arr.WriteParity(g, twin, newP, hdr); err != nil {
			return res, fmt.Errorf("core: scrub rewrite parity of group %d: %w", g, err)
		}
		res.Repaired++
		s.deg.scrubRepairs.Add(1)
	}
	if qCorrupt {
		newQ := erasure.ComputeQ(s.Arr.PageSize(), raw...)
		if err := s.Arr.WriteQ(g, twin, newQ, hdr); err != nil {
			return res, fmt.Errorf("core: scrub rewrite Q of group %d: %w", g, err)
		}
		res.Repaired++
		s.deg.scrubRepairs.Add(1)
	}
	s.deg.scrubbedGroups.Add(1)
	return res, nil
}

// recomputeParityFrom rewrites parity twin `twin` of group g as the XOR
// of the given data values under the given header, returning the payload
// written.
func (s *Store) recomputeParityFrom(g page.GroupID, twin int, data []page.Buf, meta disk.Meta) (page.Buf, error) {
	raw := make([][]byte, len(data))
	for i, b := range data {
		raw[i] = b
	}
	parity := page.Buf(xorparity.Compute(s.Arr.PageSize(), raw...))
	if err := s.Arr.WriteParity(g, twin, parity, meta); err != nil {
		return nil, fmt.Errorf("core: scrub rewrite parity of group %d: %w", g, err)
	}
	return parity, nil
}

// recomputeQFrom rewrites Q page `twin` of group g over the given data
// values under the given header (normally the P partner's — lockstep).
func (s *Store) recomputeQFrom(g page.GroupID, twin int, data []page.Buf, meta disk.Meta) error {
	raw := make([][]byte, len(data))
	for i, b := range data {
		raw[i] = b
	}
	q := erasure.ComputeQ(s.Arr.PageSize(), raw...)
	if err := s.Arr.WriteQ(g, twin, q, meta); err != nil {
		return fmt.Errorf("core: scrub rewrite Q of group %d: %w", g, err)
	}
	return nil
}
