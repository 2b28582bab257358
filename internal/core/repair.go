package core

import (
	"errors"
	"fmt"

	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
)

// ReadPage reads a data page, charging one transfer.  Every read is
// verified end to end: if the page's disk is down the read is served by
// on-the-fly reconstruction, and silent corruption (checksum mismatch,
// misdirected-write stamp, lost-write ledger) is repaired in place from
// the group's redundancy before the page is returned (repair) — the
// inline counterpart of the scrub pass, so a single bad block never
// surfaces as an application error, and corrupt bytes are never served.
// When the redundancy cannot reconstruct the block,
// ErrUnrecoverableCorruption is returned instead.
//
// dst, when non-nil, is a page buffer the caller owns and wants reused:
// the platter read, the reconstruction or the repair fills and returns it.
func (s *Store) ReadPage(p page.PageID, dst page.Buf) (page.Buf, error) {
	if s.PageUnavailable(p) {
		return s.readDegraded(p, dst)
	}
	b, _, err := s.Arr.ReadData(p, dst)
	if !disk.IsCorrupt(err) {
		if err != nil {
			return nil, fmt.Errorf("core: read page %d: %w", p, err)
		}
		return b, nil
	}
	g := s.Arr.GroupOf(p)
	h, rerr := s.repairRead(g, s.describingTwin(g), s.Arr.DataLoc(p).Disk, err, nil)
	defer h.release(s)
	if rerr != nil {
		return nil, fmt.Errorf("core: read repair of page %d failed: %w (original: %v)", p, rerr, err)
	}
	i := s.Arr.GroupIndex(p)
	got := h.vals[i]
	h.vals[i] = nil
	return s.serve(got, dst), nil
}

// readRed reads redundancy page r of group g verified end to end, and
// repairs it in place like ReadPage repairs a data page — P or Q alike —
// when its twin is the one describing the on-disk data (the current twin
// of a clean group, or the working twin of a dirty one).  The other twin
// holds *history* — the committed pre-transaction redundancy of a dirty
// group, or an obsolete version — that the data cannot regenerate, so its
// errors surface to the caller.  The header returned is the one the page
// holds on the platter afterwards.
func (s *Store) readRed(g page.GroupID, r diskarray.Red, dst page.Buf) (page.Buf, disk.Meta, error) {
	b, m, err := s.Arr.Read(g, r, dst)
	if !disk.IsCorrupt(err) || r.Twin != s.describingTwin(g) {
		return b, m, err
	}
	h, rerr := s.repairRead(g, r.Twin, s.Arr.Loc(g, r).Disk, err, s.Arr.Equations())
	defer h.release(s)
	if rerr != nil {
		return nil, disk.Meta{}, fmt.Errorf("core: repair of %s twin %d of group %d failed: %w (original: %v)", r.Eq, r.Twin, g, rerr, err)
	}
	img := h.imgs[r.Eq]
	h.imgs[r.Eq] = nil
	return s.serve(img, dst), h.hdrs[r.Eq], nil
}

// repairRead is the repair of the block on disk bad, which a verified read
// found corrupt with err, through index twin, reading the index's pages of
// eqs as well — a redundancy page's mirror is where its header comes from.
func (s *Store) repairRead(g page.GroupID, twin, bad int, err error, eqs []diskarray.Eq) (healed, error) {
	s.deg.corruptDetected.Add(1)
	h, rerr := s.repair(g, twin, bad, err, eqs, false)
	if rerr == nil {
		s.deg.readRepairs.Add(uint64(len(h.pages)))
		s.deg.parityRepairs.Add(uint64(h.reds))
	}
	return h, rerr
}

// serve hands a solved image to a reader: copied into dst when the caller
// supplied a page (the image goes back to s.Pages), else the image itself.
func (s *Store) serve(got, dst page.Buf) page.Buf {
	if len(dst) != len(got) {
		return got
	}
	copy(dst, got)
	s.Pages.Put(got)
	return dst
}

// healed is what one repair found and fixed.
type healed struct {
	latent int           // blocks that failed verification
	pages  []page.PageID // data pages rewritten on the platter
	reds   int           // redundancy pages rewritten because they were corrupt
	stale  int           // redundancy pages rewritten because the data had moved on
	vals   []page.Buf    // the group's data values as the index describes them
	// imgs and hdrs are the index's rewritten pages, by equation, and the
	// headers they went back under.
	imgs [2]page.Buf
	hdrs [2]disk.Meta
}

// release puts the pages a repair handed out back on s.Pages.
func (h *healed) release(s *Store) {
	s.Pages.Put(h.vals...)
	s.Pages.Put(h.imgs[:]...)
}

// repair is the one repair of a member of group g that failed
// verification: the group is solved through redundancy index twin — the
// index that describes the platter — with the failed member erased
// (SolveGroup), and every block the pass finds failing, the member and any
// other the solve or the index's reads meet, is rewritten from the
// solution under the header rule of its kind:
//
//   - a data page: the steal tag when the Dirty_Set names it — the
//     writer's, under the working index's timestamp — else the flip's
//     pairing echo when the index's header pairs it, else a cleared header;
//   - a redundancy page: its own header when the fault left it (a checksum
//     failure damages the payload alone), else its lockstep mirror's —
//     the index's other page, read sound — else one synthesized from the
//     Dirty_Set (synthesizedHeader).
//
// bad names the block a caller's verified read found corrupt, by disk (-1:
// none), and badErr that read's error.  eqs are the index's pages to read
// beyond what the solve reads for itself, and with verify set a readable
// one that no longer satisfies its equation is rewritten too.  A page of
// eqs on a drive that died unobserved is left unread.  The caller releases
// the result, after an error too.
func (s *Store) repair(g page.GroupID, twin, bad int, badErr error, eqs []diskarray.Eq, verify bool) (healed, error) {
	var h healed
	var erased []int
	if bad >= 0 {
		erased = []int{bad}
	}
	sol, err := s.solve(g, twin, erased)
	h.vals = sol.vals
	red := sol.red
	for _, eq := range s.Arr.Equations() {
		if s.Arr.Loc(g, eq.Twin(twin)).Disk == bad {
			red[eq].read, red[eq].err = true, badErr
		}
	}
	for _, i := range sol.erased {
		if !s.PageUnavailable(sol.pages[i]) {
			h.latent++
		}
	}
	for _, r := range red {
		if disk.IsCorrupt(r.err) {
			h.latent++
		}
	}
	if err != nil {
		return h, err
	}
	// Read the pages of eqs the solve had no use for.
	var payload [2]page.Buf
	for _, eq := range eqs {
		r := eq.Twin(twin)
		if red[eq].read || !s.SlotAlive(g, r) {
			continue
		}
		b, m, err := s.Arr.Read(g, r, nil)
		switch {
		case errors.Is(err, disk.ErrFailed):
			continue
		case disk.IsCorrupt(err):
			h.latent++
			s.deg.corruptDetected.Add(1)
		case err != nil:
			return h, fmt.Errorf("read %s twin %d: %w", eq, twin, err)
		}
		payload[eq], red[eq].read, red[eq].err, red[eq].meta = b, true, err, m
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
		var meta disk.Meta
		switch e, dirty := s.dirtyEntry(g); {
		case dirty && e.Page == p:
			meta = disk.Meta{Txn: e.Txn, Timestamp: hdr.Timestamp, ChainSet: true}
		case hdr.PairedSet && hdr.DirtyPage == p:
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
	for _, eq := range s.Arr.Equations() {
		meta := own[eq]
		switch r := red[eq]; {
		case !r.read:
			continue
		case r.err != nil:
			if meta.State == disk.StateNone {
				meta = hdr
			}
			if meta.State == disk.StateNone {
				meta = s.synthesizedHeader(g, twin)
			}
			h.reds++
		case verify && payload[eq] != nil && !eq.Holds(sum, payload[eq], page.Raw(sol.vals)...):
			meta = hdr
			h.stale++
		default:
			continue
		}
		h.imgs[eq], h.hdrs[eq] = s.Pages.Get(), meta
		if err := s.rewriteSlot(g, eq.Twin(twin), sol.vals, meta, h.imgs[eq]); err != nil {
			return h, err
		}
	}
	return h, nil
}

// synthesizedHeader is the header of redundancy index twin of group g from
// in-memory state alone, for a repair where no page of the index kept a
// trustworthy one (a misdirected or lost write left a foreign or stale
// header): a dirty group's working twin gets a working header carrying the
// Dirty_Set entry's transaction and covered page, anything else a fresh
// committed header (the pairing bits are dropped — conservative, the pair
// check simply does not fire).
func (s *Store) synthesizedHeader(g page.GroupID, twin int) disk.Meta {
	if e, dirty := s.dirtyEntry(g); dirty && e.WorkingTwin == twin {
		return disk.Meta{State: disk.StateWorking, Timestamp: s.TM.NextTimestamp(), Txn: e.Txn, DirtyPage: e.Page}
	}
	return disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
}

// ReadGroup is the verified group read: all N data pages of group g, read
// together when the drives queue, into pages from s.Pages that the caller
// puts back when it is done with them, after an error too.  The pages are
// read raw; only when one fails verification is the group solved instead,
// through the index that describes the platter with redundancy page r —
// the slot the caller is about to rewrite over these values, so no
// equation to solve with — erased.  Any other failure surfaces as it is.
func (s *Store) ReadGroup(g page.GroupID, r diskarray.Red) ([]page.Buf, error) {
	vals := make([]page.Buf, s.Arr.GroupWidth())
	for i := range vals {
		vals[i] = s.Pages.Get()
	}
	err := s.Arr.ReadGroup(g, vals)
	if !disk.IsCorrupt(err) {
		return vals, err
	}
	s.Pages.Put(vals...)
	vals, _, err = s.SolveGroup(g, s.describingTwin(g), s.Arr.Loc(g, r).Disk)
	return vals, err
}
