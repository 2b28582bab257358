// Degraded-mode serving: with disks down, every parity group has lost
// at most one block per down disk (the array organizations place at most
// one block of a group per disk), so reads of lost blocks reconstruct on
// the fly from the group's redundancy equations and writes maintain the
// reachable redundancy without the dead members.  Single-parity and
// twinned arrays tolerate one down disk; QParity arrays solve the P and
// Q equations together (internal/erasure) and tolerate two.
//
// The paper-faithful twist is the steal policy: a group whose redundancy
// is consumed by a disk loss cannot also fund transaction recovery, so
// Decide refuses degraded groups the no-log steal and the engine falls
// back to UNDO logging until the rebuild restores them (see DESIGN.md).
package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dirtyset"
	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/erasure"
	"repro/internal/page"
)

// DegradedStats is a snapshot of the degraded-serving and latent-repair
// work done by the store (see DegradedCounters).
type DegradedStats struct {
	// DegradedReads is the number of reads served by on-the-fly
	// reconstruction because the target block's disk was down.
	DegradedReads uint64
	// DegradedWrites is the number of writes that maintained parity
	// without a dead group member.
	DegradedWrites uint64
	// ParityRepairs is the number of redundancy pages — P or Q — rewritten
	// in place by the repair behind a verified read (ReadPage, readRed)
	// after one failed verification: checksum, location stamp or write
	// ledger.  The scrubber's rewrites count as ScrubRepairs instead.
	ParityRepairs uint64
	// RebuiltGroups is the number of groups restored by the online
	// rebuild worker since the last disk loss.
	RebuiltGroups uint64
}

// degCounters is the live form of DegradedStats and IntegrityStats.  The
// hot-path counters are bumped by ordinary page operations running
// concurrently under the engine's shared gate, so they are atomics rather
// than fields behind a lock.
type degCounters struct {
	degradedReads  atomic.Uint64
	degradedWrites atomic.Uint64
	parityRepairs  atomic.Uint64
	rebuiltGroups  atomic.Uint64

	// Integrity plane (see integrity.go).
	corruptDetected atomic.Uint64
	readRepairs     atomic.Uint64
	unrecoverable   atomic.Uint64
	scrubbedGroups  atomic.Uint64
	scrubRepairs    atomic.Uint64
}

// EnterDegraded records that the given disks are down: reads and writes
// touching their blocks are served from redundancy until LeaveDegraded.
// The engine calls it (with its mutex held) when the array health
// machine leaves Healthy, after demoting any dirty groups that touch the
// disks.  A second call with a grown down set (a second death while
// single-degraded) resets the restored map: the restarted rebuild must
// revisit every group.
func (s *Store) EnterDegraded(ds ...int) {
	if len(ds) == 0 {
		s.LeaveDegraded()
		return
	}
	s.degraded = true
	s.down = append([]int(nil), ds...)
	s.restored = make([]bool, s.Arr.NumGroups())
	s.replacement = false
	s.deg.rebuiltGroups.Store(0)
}

// LeaveDegraded returns the store to normal serving: every block is
// reachable again (the disks were rebuilt online or media recovery ran).
func (s *Store) LeaveDegraded() {
	s.degraded = false
	s.down = nil
	s.restored = nil
	s.replacement = false
}

// SetReplacementPresent records whether the down disks' slots hold fresh
// replacement drives (array health Rebuilding) rather than the dead
// drives themselves.  Crash recovery uses this: a replacement drive is
// physically readable, and a parity twin it holds in any state other
// than StateNone was genuinely written after the swap (rebuild restores
// or post-restore steals), so recovery may trust it even though the
// position counts as down for serving purposes.
func (s *Store) SetReplacementPresent(ok bool) { s.replacement = ok }

// PageUnavailable reports whether data page p must not be read from its
// platter: it lives on a down disk and its group has not been restored.
// During crash recovery this is always position-keyed — even when a
// replacement drive is present the page's content is untrustworthy
// (a rebuilt page is indistinguishable from an unrestored zeroed one).
func (s *Store) PageUnavailable(p page.PageID) bool {
	return s.degraded && s.isDown(s.Arr.DataLoc(p).Disk) && s.GroupDegraded(s.Arr.GroupOf(p))
}

// SlotAlive reports whether redundancy page r of group g can be read and
// written: the array keeps that equation, and the page's disk is up or
// the group has been restored by the rebuild worker.  Unlike TwinReadable
// it says nothing about the slot's header — only whether the platter
// answers.
func (s *Store) SlotAlive(g page.GroupID, r diskarray.Red) bool {
	if r.Eq == diskarray.Q && !s.Arr.HasQ() {
		return false
	}
	if !s.degraded || (s.restored != nil && s.restored[g]) {
		return true
	}
	return !s.isDown(s.Arr.Loc(g, r).Disk)
}

// hasDeadSlot reports whether any redundancy page of group g is
// unreachable.
func (s *Store) hasDeadSlot(g page.GroupID) bool {
	if !s.degraded {
		return false
	}
	for _, eq := range s.Arr.Equations() {
		for twin := 0; twin < s.Arr.ParityPages(); twin++ {
			if !s.SlotAlive(g, eq.Twin(twin)) {
				return true
			}
		}
	}
	return false
}

// TwinReadable reports whether redundancy page r of group g holds
// trustworthy bits.  Pages off the down disks always do.  A page on a
// down disk is gone while the dead drive is still in place; once a
// replacement drive is spinning (SetReplacementPresent), a header state
// other than StateNone proves the slot was written after the swap and
// the page may be used.  The header probe is a charged read, like every
// recovery decision that touches disk.
func (s *Store) TwinReadable(g page.GroupID, r diskarray.Red) bool {
	if s.SlotAlive(g, r) {
		return true
	}
	if !s.replacement || (r.Eq == diskarray.Q && !s.Arr.HasQ()) {
		return false
	}
	m, err := s.Arr.ReadMeta(g, r)
	return err == nil && m.State != disk.StateNone
}

// IndexMeta returns the header of redundancy index twin of group g: its
// P page's when that slot is alive, else its Q partner's — a faithful
// proxy, since a Q page is always written under its P partner's header.
// An index with no reachable slot yields the zero header, whose StateNone
// no arbitration accepts.
func (s *Store) IndexMeta(g page.GroupID, twin int) (disk.Meta, error) {
	if !s.degraded {
		return s.Arr.ReadMeta(g, diskarray.P.Twin(twin))
	}
	for _, eq := range s.Arr.Equations() {
		if r := eq.Twin(twin); s.SlotAlive(g, r) {
			return s.Arr.ReadMeta(g, r)
		}
	}
	return disk.Meta{}, nil
}

// aliveSlots returns the reachable pages of redundancy index twin of group
// g in write order: Q first, then P, so the P header, the only one Figure
// 7 consults, never describes more than its Q partner already does.
func (s *Store) aliveSlots(g page.GroupID, twin int) (slots [2]diskarray.Red, n int) {
	eqs := s.Arr.Equations()
	for i := len(eqs) - 1; i >= 0; i-- {
		if r := eqs[i].Twin(twin); s.SlotAlive(g, r) {
			slots[n] = r
			n++
		}
	}
	return slots, n
}

// WriteIndexMeta rewrites the header of redundancy index twin of group g
// on its reachable slots, Q before P.  With a StateInvalid header it is
// Figure 8's abort transition, usable even when one of the index's slots
// sits on a down disk.
func (s *Store) WriteIndexMeta(g page.GroupID, twin int, meta disk.Meta) error {
	slots, n := s.aliveSlots(g, twin)
	for _, r := range slots[:n] {
		if err := s.Arr.WriteMeta(g, r, meta); err != nil {
			return fmt.Errorf("core: write %s header of twin %d of group %d: %w", r.Eq, twin, g, err)
		}
	}
	return nil
}

// invalid is the header of Figure 8's abort transition.
var invalid = disk.Meta{State: disk.StateInvalid}

// writeIndex writes redundancy index twin of group g — imgs[eq] to each
// reachable slot, all under one header, Q before P.
func (s *Store) writeIndex(g page.GroupID, twin int, imgs [2]page.Buf, meta disk.Meta) error {
	slots, n := s.aliveSlots(g, twin)
	for _, r := range slots[:n] {
		if err := s.Arr.Write(g, r, imgs[r.Eq], meta); err != nil {
			return fmt.Errorf("core: write %s twin %d of group %d: %w", r.Eq, twin, g, err)
		}
	}
	return nil
}

// RecomputeIndex rewrites redundancy index twin of group g from the
// on-disk data, under the given header, on its reachable slots (Q before
// P); the rebuild worker re-derives the dead ones once their drive is
// replaced.  Every data page of the group must be readable.
func (s *Store) RecomputeIndex(g page.GroupID, twin int, meta disk.Meta) error {
	slots, n := s.aliveSlots(g, twin)
	for _, r := range slots[:n] {
		if err := s.recompute(g, r, meta); err != nil {
			return fmt.Errorf("core: recompute %s twin %d of group %d: %w", r.Eq, twin, g, err)
		}
	}
	return nil
}

// Degraded reports whether the store is serving in degraded mode.
func (s *Store) Degraded() bool { return s.degraded }

// DownDisks returns the disks being served around (nil when healthy).
func (s *Store) DownDisks() []int {
	if !s.degraded {
		return nil
	}
	return append([]int(nil), s.down...)
}

// isDown reports whether disk d is in the down set.
func (s *Store) isDown(d int) bool {
	if !s.degraded {
		return false
	}
	for _, x := range s.down {
		if x == d {
			return true
		}
	}
	return false
}

// MarkRestored records that group g's blocks on the down disks have been
// reconstructed by the rebuild worker: the group serves normally again.
func (s *Store) MarkRestored(g page.GroupID) {
	if s.restored != nil && !s.restored[g] {
		s.restored[g] = true
		s.deg.rebuiltGroups.Add(1)
	}
}

// DegradedCounters returns a snapshot of the cumulative degraded-serving
// counters.
func (s *Store) DegradedCounters() DegradedStats {
	return DegradedStats{
		DegradedReads:  s.deg.degradedReads.Load(),
		DegradedWrites: s.deg.degradedWrites.Load(),
		ParityRepairs:  s.deg.parityRepairs.Load(),
		RebuiltGroups:  s.deg.rebuiltGroups.Load(),
	}
}

// ResetCounters zeroes the degraded-serving and integrity counters.
// RebuiltGroups stays: it is the rebuild's progress since the last disk
// loss, which the engine reads to tell a dead replacement drive from a
// fresh one, and EnterDegraded resets it.
func (s *Store) ResetCounters() {
	for _, c := range []*atomic.Uint64{
		&s.deg.degradedReads, &s.deg.degradedWrites, &s.deg.parityRepairs,
		&s.deg.corruptDetected, &s.deg.readRepairs, &s.deg.unrecoverable,
		&s.deg.scrubbedGroups, &s.deg.scrubRepairs,
	} {
		c.Store(0)
	}
}

// GroupDegraded reports whether group g currently has an unreachable
// block: the store is degraded and the group has not been restored by the
// rebuild worker.  Which disks are down does not enter into it: a group
// keeps exactly one block on every disk of the array (NumDisks = N + the
// redundancy pages, each on a disk of its own), so any down disk holds a
// block of every group.
func (s *Store) GroupDegraded(g page.GroupID) bool {
	return s.degraded && !(s.restored != nil && s.restored[g])
}

// describingTwin returns the twin whose parity describes the group's
// on-disk data: the working twin of a dirty group, the current twin of a
// clean one (and 0 on single-parity arrays).
func (s *Store) describingTwin(g page.GroupID) int {
	if e, dirty := s.dirtyEntry(g); dirty {
		return e.WorkingTwin
	}
	return s.currentTwin(g)
}

// dirtyEntry returns group g's Dirty_Set entry, if the group is dirty.
func (s *Store) dirtyEntry(g page.GroupID) (dirtyset.Entry, bool) {
	if s.Dirty == nil {
		return dirtyset.Entry{}, false
	}
	return s.Dirty.Lookup(g)
}

// solved is one verified pass over a group through one redundancy index.
type solved struct {
	// vals holds every data member's value in group order, the erased
	// ones solved from the equations.
	vals []page.Buf
	// erased indexes the members that were not read — unreachable, silently
	// corrupt, or named by the caller — and were solved instead.
	erased []int
	// red is what the pass learned of the index's own page of each
	// equation: whether it was read at all, and the verified read's
	// outcome.
	red [2]struct {
		read bool
		err  error
		meta disk.Meta
	}
}

// hdr returns the header of the first redundancy page the pass read
// successfully (P's, else its Q mirror's); zero when it needed none.
func (sol *solved) hdr() disk.Meta {
	for _, r := range sol.red {
		if r.read && r.err == nil {
			return r.meta
		}
	}
	return disk.Meta{}
}

// SolveGroup returns the data values of every member of group g as
// described by redundancy index `twin`, treating unreachable and silently
// corrupt members as erasures and solving them from the P and/or Q
// equations of that index — the one reconstruction primitive: the healthy
// group is its zero-erasure case, the classic XOR rebuild its
// one-erasure case.  erased names further members the caller already
// knows not to trust (a torn page, the page a header names, a replaced
// drive's blocks) by the disk that holds them: a group keeps at most one
// block per disk, so within g a disk number names one member, data or
// redundancy.
//
// The equations are read only as the erasures call for them — none at zero
// erasures, P alone at one (Q only when P is itself dead, corrupt or
// erased), both at two — so the transfer counts of the classic
// single-loss paths are unchanged by the Q machinery.  The member reads go
// out together when the drives queue (diskarray.Together), and with them
// the equation pages that the erasures known beforehand — a dead disk, the
// caller's — already call for; a member found corrupt by its read asks for
// the equation it is missing afterwards.  On synchronous drives that is the
// members in group order, then P, then Q.  Erasures beyond
// what the reachable equations can solve surface as
// ErrUnrecoverableCorruption.  The second result is the header of the
// redundancy page the solve read (zero when it read none).  The caller
// owns vals, pages drawn from s.Pages, and returns them there once it is
// done with them — written, folded or discarded.  A solve that fails
// returns no pages: the ones it read are back on s.Pages already.
func (s *Store) SolveGroup(g page.GroupID, twin int, erased ...int) ([]page.Buf, disk.Meta, error) {
	sol, err := s.solve(g, twin, erased)
	if err != nil {
		s.Pages.Put(sol.vals...)
		return nil, sol.hdr(), err
	}
	return sol.vals, sol.hdr(), nil
}

// solvePage is SolveGroup for one member: the value redundancy index
// `twin` gives data page p, whatever p's platter holds, with the index's
// header.  The other members' pages go back to s.Pages.
func (s *Store) solvePage(g page.GroupID, p page.PageID, twin int) (page.Buf, disk.Meta, error) {
	vals, hdr, err := s.SolveGroup(g, twin, s.Arr.DataLoc(p).Disk)
	if err != nil {
		return nil, hdr, err
	}
	i := s.Arr.GroupIndex(p)
	got := vals[i]
	vals[i] = nil
	s.Pages.Put(vals...)
	return got, hdr, nil
}

func (s *Store) solve(g page.GroupID, twin int, erased []int) (solved, error) {
	gone := func(d int) bool {
		for _, x := range erased {
			if x == d {
				return true
			}
		}
		return false
	}
	n := s.Arr.GroupWidth()
	sol := solved{vals: make([]page.Buf, n)}
	for i := range sol.vals {
		if p := s.Arr.GroupPage(g, i); s.PageUnavailable(p) || gone(s.Arr.DataLoc(p).Disk) {
			sol.erased = append(sol.erased, i)
		}
	}
	// The erasures known before the first read already call for equation
	// pages, and those ride along with the member reads: P at one or more,
	// Q at two, or at one when P is itself erased or surely dead (a slot a
	// replacement drive may have rewritten answers by its own probe, and Q
	// waits for it).  These are the pages the lazy rule below would ask for
	// anyway, so the transfer count is what it would be reading P and Q last.
	var eqs [2][]byte
	readEq := func(eq diskarray.Eq) error {
		r := eq.Twin(twin)
		if gone(s.Arr.Loc(g, r).Disk) || !s.TwinReadable(g, r) {
			return nil
		}
		b, m, err := s.Arr.Read(g, r, s.Pages.Get())
		sol.red[eq].read, sol.red[eq].err, sol.red[eq].meta = true, err, m
		switch {
		case err == nil:
			eqs[eq] = b
		case disk.IsCorrupt(err):
			s.deg.corruptDetected.Add(1)
		default:
			return fmt.Errorf("core: solve group %d: read %s twin %d: %w", g, eq, twin, err)
		}
		return nil
	}
	known := sol.erased
	riding := 0 // equation pages in the batch: P, then Q
	switch p := diskarray.P.Twin(twin); {
	case len(known) == 0:
	case !s.Arr.HasQ():
		riding = 1
	case len(known) > 1, gone(s.Arr.Loc(g, p).Disk), !s.SlotAlive(g, p) && !s.replacement:
		riding = 2
	default:
		riding = 1
	}
	err := s.Arr.Together(n+riding, func(i int) error {
		if i >= n {
			return readEq(diskarray.Eq(i - n))
		}
		if slices.Contains(known, i) {
			return nil
		}
		p := s.Arr.GroupPage(g, i)
		b, _, err := s.Arr.ReadData(p, s.Pages.Get())
		if err != nil {
			if !disk.IsCorrupt(err) {
				return fmt.Errorf("core: solve group %d: read page %d: %w", g, p, err)
			}
			s.deg.corruptDetected.Add(1)
			return nil
		}
		sol.vals[i] = b
		return nil
	})
	if err != nil {
		return sol, err
	}
	// Classified in member order: a member without a value is an erasure,
	// known beforehand or found corrupt by its read.
	sol.erased = sol.erased[:0]
	for i, v := range sol.vals {
		if v == nil {
			sol.erased = append(sol.erased, i)
		}
	}
	if len(sol.erased) == 0 {
		return sol, nil
	}
	// A corruption the reads discovered asks for the equation it is missing
	// now: P at the first erasure, Q when P did not come or at the second.
	for _, eq := range s.Arr.Equations()[riding:] {
		if eq == diskarray.Q && len(sol.erased) == 1 && eqs[diskarray.P] != nil {
			break
		}
		if err := readEq(eq); err != nil {
			return sol, err
		}
	}
	// Every solve runs in the redundancy pages just read, which become the
	// answers: no page is allocated.
	pBuf, qBuf := eqs[diskarray.P], eqs[diskarray.Q]
	switch {
	case len(sol.erased) == 1 && pBuf != nil:
		// The lost member is the XOR of P and the survivors.
		for _, v := range sol.vals {
			if v != nil {
				erasure.AddInto(pBuf, v)
			}
		}
		sol.vals[sol.erased[0]] = pBuf
	case len(sol.erased) == 1 && qBuf != nil:
		erasure.ReconstructOneQ(qBuf, page.Raw(sol.vals), sol.erased[0])
		sol.vals[sol.erased[0]] = qBuf
	case len(sol.erased) == 2 && pBuf != nil && qBuf != nil:
		i, j := sol.erased[0], sol.erased[1]
		erasure.ReconstructTwo(pBuf, qBuf, page.Raw(sol.vals), i, j)
		sol.vals[i], sol.vals[j] = qBuf, pBuf
	default:
		s.deg.unrecoverable.Add(1)
		return sol, fmt.Errorf("core: solve group %d: %d erased members exceed the reachable redundancy of index %d: %w",
			g, len(sol.erased), twin, ErrUnrecoverableCorruption)
	}
	return sol, nil
}

// readDegraded serves a read of an unreachable data page by on-the-fly
// reconstruction from the describing index's redundancy equations: P
// alone for one lost member, P and Q together for two.  Nothing is
// written back; the rebuild worker restores the block.  The image lands
// in dst when the caller supplied one.
func (s *Store) readDegraded(p page.PageID, dst page.Buf) (page.Buf, error) {
	g := s.Arr.GroupOf(p)
	got, _, err := s.solvePage(g, p, s.describingTwin(g))
	if err != nil {
		return nil, fmt.Errorf("core: degraded read of page %d: %w", p, err)
	}
	s.deg.degradedReads.Add(1)
	return s.serve(got, dst), nil
}

// writeDegradedNeeded reports whether writing page p of degraded group g
// needs the special degraded protocol.  When the group's only lost
// blocks are *different* data pages, the ordinary small-write protocol
// never touches them (it reads p's old contents and the redundancy, all
// reachable), so the normal paths stay in force.
func (s *Store) writeDegradedNeeded(g page.GroupID, p page.PageID) bool {
	if !s.GroupDegraded(g) {
		return false
	}
	return s.PageUnavailable(p) || s.hasDeadSlot(g)
}

// writeDegraded writes data page p of a group with unreachable blocks.
//
// Degraded groups are always clean — the engine demotes their no-log
// steals when a disk goes down and Decide refuses new ones — so
// there is no working twin to preserve and the write may recompute the
// redundancy wholesale, which also launders any partial parity state
// left by the failure moment.  The group's new data values (p's new
// contents plus every other member, lost members solved from the
// describing index first) yield fresh P and Q images; they go to the
// obsolete index whenever any of its slots survive — never the current
// one, exactly WriteCommitted's flip discipline, because the current
// index may be the *only* description of a dead sibling page and a crash
// mid-write would destroy it — Q first, then P, both committed under one
// fresh timestamp, and the bitmap flips.  Only when the obsolete index
// lost every slot does the write overwrite the current index in place;
// the group then has no dead data page (two losses are already spent on
// the obsolete index), so a crash-torn overwrite is recoverable wholesale
// from the readable data (establishIndex).  When p is
// reachable the redundancy carries the flip pairing (DirtyPage +
// PairedSet) and the data write echoes the timestamp, exactly like
// flipCommitted: the redundancy is written ahead of the data, so a crash
// between them leaves equations describing a data value that never
// reached the platter — without the echo, recovery would keep that index
// as the Figure 7 winner and any later wholesale recompute would launder
// the discrepancy into the solved value of a dead sibling page.  A lost
// p gets no pairing (there is no data write to echo); it lives on in the
// redundancy alone (parity-as-redo) until the rebuild materializes it,
// which is self-consistent because solving always treats p as missing.
func (s *Store) writeDegraded(p page.PageID, data page.Buf) error {
	g := s.Arr.GroupOf(p)
	s.deg.degradedWrites.Add(1)
	n, idx := s.Arr.GroupWidth(), s.Arr.GroupIndex(p)
	othersLost := false
	for i := 0; i < n && !othersLost; i++ {
		othersLost = i != idx && s.PageUnavailable(s.Arr.GroupPage(g, i))
	}
	// The new redundancy is accumulated member by member — P ⊕= D_i,
	// Q ⊕= g^i·D_i — in pages from s.Pages, like the sibling reads.  A
	// single-parity array keeps P alone.
	eqs := s.Arr.Equations()
	if s.Twins == nil {
		eqs = eqs[:1]
	}
	var imgs [2]page.Buf
	for _, eq := range eqs {
		imgs[eq] = s.Pages.Get()
		clear(imgs[eq])
	}
	defer s.Pages.Put(imgs[:]...)
	fold := func(i int, b page.Buf) {
		for _, eq := range eqs {
			eq.AddMember(imgs[eq], b, i)
		}
	}
	fold(idx, data)
	if othersLost {
		// A second data member is also gone (double-degraded): its old
		// value is needed for the wholesale recompute, so solve the whole
		// group from the describing index first.
		old, _, err := s.SolveGroup(g, s.describingTwin(g))
		if err != nil {
			return fmt.Errorf("core: degraded write of page %d: %w", p, err)
		}
		for i, b := range old {
			if i != idx {
				fold(i, b)
			}
		}
		s.Pages.Put(old...)
	} else {
		// Each sibling is read — verified, and repaired through the
		// describing index if it fails — into a page of its own (on
		// synchronous drives the same one, back on the free list between
		// reads) and folded in as it arrives: the sums commute.
		var folding sync.Mutex
		if err := s.Arr.Together(n, func(i int) error {
			if i == idx {
				return nil
			}
			member := s.Pages.Get()
			defer s.Pages.Put(member)
			b, err := s.ReadPage(s.Arr.GroupPage(g, i), member)
			if err != nil {
				return fmt.Errorf("core: degraded parity of group %d: %w", g, err)
			}
			folding.Lock()
			fold(i, b)
			folding.Unlock()
			return nil
		}); err != nil {
			return err
		}
	}

	if s.Twins == nil {
		if s.PageUnavailable(p) {
			parity := diskarray.P.Twin(0)
			pMeta, err := s.Arr.PeekMeta(g, parity)
			if err == nil {
				err = s.Arr.Write(g, parity, imgs[diskarray.P], pMeta)
			}
			if err != nil {
				return fmt.Errorf("core: degraded write of page %d: %w", p, err)
			}
			return nil
		}
		// Single-parity array with its parity block lost: write the data
		// alone; redundancy for this group returns with the rebuild.
		return s.writeData(p, data, disk.Meta{})
	}

	target := s.Twins.Obsolete(g)
	if _, alive := s.aliveSlots(g, target); alive == 0 {
		target = 1 - target
	}
	if _, alive := s.aliveSlots(g, target); alive == 0 {
		// Both of the index's slots are on down disks (and so are the
		// other index's — scores tie at zero only then).  Only the data
		// write can carry the group; the rebuild recomputes redundancy.
		if s.PageUnavailable(p) {
			s.deg.unrecoverable.Add(1)
			return fmt.Errorf("core: degraded write of page %d: no reachable redundancy: %w", p, ErrUnrecoverableCorruption)
		}
		return s.writeData(p, data, disk.Meta{})
	}
	ts := s.TM.NextTimestamp()
	meta := disk.Meta{State: disk.StateCommitted, Timestamp: ts}
	if !s.PageUnavailable(p) {
		meta.DirtyPage = p
		meta.PairedSet = true
	}
	if err := s.writeIndex(g, target, imgs, meta); err != nil {
		return fmt.Errorf("core: degraded write of page %d: %w", p, err)
	}
	s.Twins.Promote(g, target)
	if s.PageUnavailable(p) {
		return nil
	}
	return s.writeData(p, data, disk.Meta{Timestamp: ts})
}
