package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
	"repro/internal/twinpage"
	"repro/internal/workpool"
)

// Lanes is the width of every restart fan-out: the group walk, the
// laundering writes, the resync and the drive probe.  On synchronous drives
// it is Workers (1: the plain loop in group order that replayable crash
// schedules require).  When the drives queue it is one lane per drive: a
// queued drive serves one transfer at a time and its queue depth bounds what
// is outstanding, so fewer lanes leave drives idle and more only wait in line.
func (s *Store) Lanes() int {
	if s.Pipelined {
		return s.Arr.NumDisks()
	}
	return max(s.Workers, 1)
}

// WorkingTwinInfo is a working parity twin found by the walk, with its
// header: the writer, the timestamp, the covered data page (DirtyPage).
type WorkingTwinInfo struct {
	Group page.GroupID
	Twin  int
	disk.Meta
}

// TornBlock is a block the hard walk's verified read rejected: redundancy
// page Red when IsRed, else data page Page.  HeaderOK: its own header
// survived (a checksum failure damages the payload only; a misdirected write
// deposits a foreign header, a lost one leaves a stale one, and their repairs
// resynthesize it from the rest of the group).
type TornBlock struct {
	Group    page.GroupID
	IsRed    bool
	Red      diskarray.Red
	Page     page.PageID
	HeaderOK bool
}

// GroupWalk is crash recovery's one visit to every parity group — Section
// 4.2's scan of the parity headers — kept as a table the later passes
// answer from: the working twins, the bitmap (Figure 7), the resync.
type GroupWalk struct {
	s         *Store
	committed func(page.TxID) bool
	groups    []groupScan
	// Torn lists what the hard walk could not verify, by group and in it data,
	// P twins, Q twins: a Q page's repair needs its P partner restored first.
	Torn []TornBlock
}

type groupScan struct {
	// metas are the P twin headers as read, zero where none was: what
	// IndexMeta answers for a group that has lost no block.
	metas    [2]disk.Meta
	touched  bool // a pass rewrote the group since: the platter answers now
	verified bool // hard walk: every block sound, the winner's equations hold
}

// WalkGroups visits every group once, Lanes() at a time, and reads its twin
// parity headers: two charged transfers a group, the paper's restart cost.
// A hard walk (after a mid-I/O crash) reads every live block verified
// instead — the torn-block scan — and gets from the same transfers the
// headers, the blocks that fail (Torn), and whether the parity Figure 7
// picks under the log's verdicts holds; Resync skips the groups that passed.
func (s *Store) WalkGroups(committed func(page.TxID) bool, hard bool) (*GroupWalk, error) {
	w := &GroupWalk{s: s, committed: committed, groups: make([]groupScan, s.Arr.NumGroups())}
	// Each lane of a hard walk reads into pages of its own, handed back here.
	var torn [][]TornBlock
	var bufs [][]page.Buf
	if hard {
		torn, bufs = make([][]TornBlock, len(w.groups)), make([][]page.Buf, s.Lanes())
	}
	err := workpool.RunLanes(s.Lanes(), len(w.groups), func(lane, g int) (err error) {
		if !hard {
			return w.readHeaders(page.GroupID(g))
		}
		for len(bufs[lane]) < s.Arr.GroupWidth()+2*s.Arr.ParityPages() {
			bufs[lane] = append(bufs[lane], s.Pages.Get())
		}
		torn[g], err = w.readBlocks(page.GroupID(g), bufs[lane])
		return err
	})
	for _, b := range bufs {
		s.Pages.Put(b...)
	}
	for _, t := range torn {
		w.Torn = append(w.Torn, t...)
	}
	return w, err
}

// readHeaders fills group g's entry from the platter.  A twin on a down
// disk is skipped: the drive is gone or, mid-rebuild, read directly (a
// replacement's StateNone header is never working).  The steals such twins
// described are found by the data pages' transaction tags instead.
func (w *GroupWalk) readHeaders(g page.GroupID) error {
	s := w.s
	if s.Twins == nil {
		return nil // single parity keeps no header to arbitrate by
	}
	for twin := range w.groups[g].metas {
		r, m := diskarray.P.Twin(twin), disk.Meta{}
		if !s.degraded || s.replacement || s.SlotAlive(g, r) {
			var err error
			if m, err = s.Arr.ReadMeta(g, r); err != nil {
				return fmt.Errorf("core: scan group %d twin %d: %w", g, twin, err)
			}
		}
		w.groups[g].metas[twin] = m
	}
	return nil
}

// readBlocks is the hard walk's visit: every live block of group g read
// verified into bufs.  A block that fails is returned torn; one on a dead
// disk is skipped.
func (w *GroupWalk) readBlocks(g page.GroupID, bufs []page.Buf) (torn []TornBlock, _ error) {
	s, e := w.s, &w.groups[g]
	pages := s.Arr.GroupPages(g)
	data, red := bufs[:len(pages)], bufs[len(pages):]
	for i, p := range pages {
		if s.PageUnavailable(p) {
			continue
		}
		if _, _, err := s.Arr.ReadData(p, data[i]); disk.IsCorrupt(err) {
			torn = append(torn, TornBlock{Group: g, Page: p, HeaderOK: errors.Is(err, disk.ErrChecksum)})
		} else if err != nil {
			return nil, fmt.Errorf("core: torn scan page %d: %w", p, err)
		}
	}
	for _, eq := range s.Arr.Equations() {
		for twin := 0; twin < s.Arr.ParityPages(); twin++ {
			r := eq.Twin(twin)
			if !s.TwinReadable(g, r) {
				continue
			}
			_, m, err := s.Arr.Read(g, r, red[2*twin+int(eq)])
			if disk.IsCorrupt(err) {
				torn = append(torn, TornBlock{Group: g, IsRed: true, Red: r, HeaderOK: errors.Is(err, disk.ErrChecksum)})
			} else if err != nil {
				return nil, fmt.Errorf("core: torn scan group %d %s twin %d: %w", g, eq, twin, err)
			} else if eq == diskarray.P {
				e.metas[twin] = m
			}
		}
	}
	cur, ok := 0, true
	if s.Twins != nil {
		cur, ok = twinpage.CurrentParity(e.metas[0], e.metas[1], w.committed)
	}
	e.verified = ok && len(torn) == 0 && !s.GroupDegraded(g)
	for _, eq := range s.Arr.Equations() {
		e.verified = e.verified && eq.Holds(red[2*cur+int(eq)], page.Raw(data)...)
	}
	return torn, nil
}

// Touch records that a pass rewrote group g since the walk read it.
func (w *GroupWalk) Touch(g page.GroupID) { w.groups[g].touched = true }

// Working returns the twins in the working state, in group order.  A
// touched group's headers are read again first.
func (w *GroupWalk) Working() ([]WorkingTwinInfo, error) {
	var out []WorkingTwinInfo
	for g := range w.groups {
		e, gid := &w.groups[g], page.GroupID(g)
		if e.touched {
			if err := w.readHeaders(gid); err != nil {
				return nil, err
			}
		}
		for twin, m := range e.metas {
			if m.State == disk.StateWorking {
				out = append(out, WorkingTwinInfo{Group: gid, Twin: twin, Meta: m})
			}
		}
	}
	return out, nil
}

// Settle reconstructs the volatile twin bitmap: Current_Parity over the
// headers the walk read, or over the platter (currentFromDisk) for a group
// touched since or missing a block.  Call after the losers' working twins
// are undone.  Returns the number of groups with a redundancy slot on a down
// disk, whose recomputation is deferred to the restarted online rebuild.
func (w *GroupWalk) Settle() (deferred int, err error) {
	s := w.s
	for g := range w.groups {
		e, gid := &w.groups[g], page.GroupID(g)
		deadSlot := s.hasDeadSlot(gid)
		if deadSlot {
			deferred++
		}
		if s.Twins == nil {
			continue // single parity keeps no bitmap
		}
		cur, ok := 0, false
		if !e.touched && !s.GroupDegraded(gid) {
			cur, ok = twinpage.CurrentParity(e.metas[0], e.metas[1], w.committed)
		}
		if !ok { // the platter's to answer, or to report as having no valid twin
			if cur, err = s.currentFromDisk(gid, deadSlot, w.committed); err != nil {
				return deferred, fmt.Errorf("core: bitmap rebuild of group %d: %w", g, err)
			}
		}
		s.Twins.Promote(gid, cur)
	}
	return deferred, nil
}

// Resync makes every group's current parity satisfy its equations over the
// on-disk data again, closing the window where an in-place parity write (or a
// committed twin flip) ran ahead of the data write behind it: after the
// bitmap is rebuilt, before logged undo.  A group the hard walk verified —
// by its charged reads — and nothing touched since is in sync; the rest are
// checked by uncharged Peeks and repaired (resyncGroup), each on its own.
func (w *GroupWalk) Resync() (int, error) {
	var fixed atomic.Int64
	err := workpool.Run(w.s.Lanes(), len(w.groups), func(g int) error {
		if e := &w.groups[g]; e.verified && !e.touched {
			return nil
		}
		did, err := w.s.resyncGroup(page.GroupID(g))
		if did {
			fixed.Add(1)
		}
		return err
	})
	return int(fixed.Load()), err
}
