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

// Lanes is the width of every whole-array fan-out over parity groups:
// restart's group walk, laundering writes, resync and drive probe, the
// groups of media recovery and of an online rebuild step, and a bulk
// load's full stripes.  On synchronous drives it is Workers (1: the plain
// loop in group order that replayable crash schedules require).  When the
// drives queue it is one lane per drive: a queued drive serves one
// transfer at a time and its queue depth bounds what is outstanding, so
// fewer lanes leave drives idle and more only wait in line.
func (s *Store) Lanes() int {
	if s.Arr.Queued() {
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
	// metas are the index headers as read — what IndexMeta answers: P's
	// where the P slot is alive, else its Q partner's, zero where neither
	// is (or the hard walk's read failed).  Figure 7 reads these.
	metas [2]disk.Meta
	// spares are the P headers a replacement drive holds in a slot metas
	// count as down: no basis for Figure 7, but a working header there is a
	// steal that still needs its undo.
	spares   [2]disk.Meta
	touched  bool // a pass rewrote the group since: the platter answers now
	verified bool // hard walk: every block sound, the winner's equations hold
}

// WalkGroups visits every group once, Lanes() at a time, and reads the
// header of each of its two redundancy indexes (readHeaders): two charged
// transfers a group, the paper's restart cost, a drive down or not.
// A hard walk (after a mid-I/O crash) reads every live block verified
// instead — the torn-block scan — and gets from the same transfers the
// headers, the blocks that fail (Torn), and whether the parity Figure 7
// picks under the log's verdicts holds; Resync skips the groups that passed.
func (s *Store) WalkGroups(committed func(page.TxID) bool, hard bool) (*GroupWalk, error) {
	w := &GroupWalk{s: s, committed: committed, groups: make([]groupScan, s.Arr.NumGroups())}
	// Each lane of a hard walk reads into pages of its own, handed back here.
	var torn [][]TornBlock
	var scratch []walkScratch
	if hard {
		torn, scratch = make([][]TornBlock, len(w.groups)), make([]walkScratch, s.Lanes())
	}
	err := workpool.RunLanes(s.Lanes(), len(w.groups), func(lane, g int) (err error) {
		if !hard {
			return w.readHeaders(page.GroupID(g))
		}
		sc := &scratch[lane]
		if sc.w == nil {
			sc.init(w)
		}
		torn[g], err = sc.readBlocks(page.GroupID(g))
		return err
	})
	for _, sc := range scratch {
		s.Pages.Put(sc.bufs...)
		s.Pages.Put(sc.sum)
	}
	for _, t := range torn {
		w.Torn = append(w.Torn, t...)
	}
	return w, err
}

// readHeaders fills group g's entry from the platter: one header read per
// index, its P page's or, with that slot down, its Q partner's (IndexMeta),
// and a down P twin's on a replacement drive besides (spares).  A steal
// whose working index no slot of answers for is found by the data pages'
// transaction tags instead.
func (w *GroupWalk) readHeaders(g page.GroupID) error {
	s, e := w.s, &w.groups[g]
	if s.Twins == nil {
		return nil // single parity keeps no header to arbitrate by
	}
	e.metas, e.spares = [2]disk.Meta{}, [2]disk.Meta{}
	for twin := range e.metas {
		for _, eq := range s.Arr.Equations() {
			r := eq.Twin(twin)
			alive := s.SlotAlive(g, r)
			if !alive && !(s.replacement && eq == diskarray.P) {
				continue
			}
			m, err := s.Arr.ReadMeta(g, r)
			if err != nil {
				return fmt.Errorf("core: scan group %d %s twin %d: %w", g, eq, twin, err)
			}
			if !alive {
				e.spares[twin] = m
				continue
			}
			e.metas[twin] = m
			break
		}
	}
	return nil
}

// walkScratch is one lane of a hard walk: the pages it reads each group
// into in turn — one per block, data first and then redundancy page {eq,
// twin} at 2·twin+eq — beside each the error of a block that failed
// verification, and a page to sum an equation in.  Everything a group's visit
// needs is here and made once, so a visit allocates nothing of its own but
// the torn blocks it finds.
type walkScratch struct {
	w    *GroupWalk
	bufs []page.Buf
	raw  [][]byte // the data pages of bufs, as the parity kernels take them
	errs []error
	sum  page.Buf
	read func(i int) error // readBlock, bound once
	// qmetas are the alive Q twins' headers as read, zero where one was
	// not: an index whose P slot is down answers with its Q partner's.
	qmetas [2]disk.Meta

	// The group being visited.
	g page.GroupID
	n int // its data pages
}

func (sc *walkScratch) init(w *GroupWalk) {
	s := w.s
	sc.w, sc.read, sc.sum = w, sc.readBlock, s.Pages.Get()
	for len(sc.bufs) < s.Arr.GroupWidth()+2*s.Arr.ParityPages() {
		sc.bufs = append(sc.bufs, s.Pages.Get())
	}
	sc.raw, sc.errs = page.Raw(sc.bufs[:s.Arr.GroupWidth()]), make([]error, len(sc.bufs))
}

// slot is the redundancy page read i-th of a group of n data pages: the P
// twins, then the Q twins.
func (sc *walkScratch) slot(i int) diskarray.Red {
	twins := sc.w.s.Arr.ParityPages()
	i -= sc.n
	return diskarray.Eq(i / twins).Twin(i % twins)
}

// readBlocks is the hard walk's visit: every live block of group g read
// verified into sc, all of them together when the drives queue.  A block
// that fails is returned torn, in the order data, P twins, Q twins; one on a
// dead disk is skipped.
func (sc *walkScratch) readBlocks(g page.GroupID) (torn []TornBlock, _ error) {
	w := sc.w
	s, e := w.s, &w.groups[g]
	sc.g, sc.n = g, s.Arr.GroupWidth()
	sc.qmetas = [2]disk.Meta{}
	n := sc.n
	red := sc.bufs[n:]
	errs := sc.errs[:n+len(s.Arr.Equations())*s.Arr.ParityPages()]
	clear(errs)
	if err := s.Arr.Together(len(errs), sc.read); err != nil {
		return nil, err
	}
	for twin := range e.metas {
		if s.Twins != nil && !s.SlotAlive(g, diskarray.P.Twin(twin)) {
			e.metas[twin] = sc.qmetas[twin]
		}
	}
	for i, err := range errs {
		if err == nil {
			continue
		}
		t := TornBlock{Group: g, HeaderOK: errors.Is(err, disk.ErrChecksum)}
		if i < n {
			t.Page = s.Arr.GroupPage(g, i)
		} else {
			t.IsRed, t.Red = true, sc.slot(i)
		}
		torn = append(torn, t)
	}
	cur, ok := 0, true
	if s.Twins != nil {
		cur, ok = twinpage.CurrentParity(e.metas[0], e.metas[1], w.committed)
	}
	// A group with every data page read is checked on the winner's
	// reachable slots; the rebuild recomputes the others.
	e.verified = ok && len(torn) == 0 && !s.lostData(g)
	for _, eq := range s.Arr.Equations() {
		if !e.verified {
			break
		}
		if s.SlotAlive(g, eq.Twin(cur)) {
			e.verified = eq.Holds(sc.sum, red[2*cur+int(eq)], sc.raw...)
		}
	}
	return torn, nil
}

// readBlock is the i-th read of the group sc is visiting, writing state of
// its own index only (Together).
func (sc *walkScratch) readBlock(i int) error {
	s, g, n := sc.w.s, sc.g, sc.n
	if i < n {
		p := s.Arr.GroupPage(g, i)
		if s.PageUnavailable(p) {
			return nil
		}
		if _, _, err := s.Arr.ReadData(p, sc.bufs[i]); disk.IsCorrupt(err) {
			sc.errs[i] = err
		} else if err != nil {
			return fmt.Errorf("core: torn scan page %d: %w", p, err)
		}
		return nil
	}
	r := sc.slot(i)
	if !s.TwinReadable(g, r) {
		return nil
	}
	_, m, err := s.Arr.Read(g, r, sc.bufs[n+2*r.Twin+int(r.Eq)])
	e := &sc.w.groups[g]
	switch alive := s.SlotAlive(g, r); {
	case disk.IsCorrupt(err):
		sc.errs[i] = err
	case err != nil:
		return fmt.Errorf("core: torn scan group %d %s twin %d: %w", g, r.Eq, r.Twin, err)
	case r.Eq == diskarray.P && alive:
		e.metas[r.Twin] = m
	case r.Eq == diskarray.P:
		e.spares[r.Twin] = m
	case alive:
		sc.qmetas[r.Twin] = m
	}
	return nil
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
			if m.State != disk.StateWorking {
				m = e.spares[twin]
			}
			if m.State == disk.StateWorking {
				out = append(out, WorkingTwinInfo{Group: gid, Twin: twin, Meta: m})
			}
		}
	}
	return out, nil
}

// Settle reconstructs the volatile twin bitmap: Current_Parity over the
// walk's table, every group alike — a group touched since is read again
// first — and a group that has lost a block checked by settle.  Call after
// the losers' working twins are undone.  Returns the number of groups with a
// redundancy slot on a down disk, whose recomputation is deferred to the
// restarted online rebuild.
func (w *GroupWalk) Settle() (deferred int, err error) {
	s := w.s
	for g := range w.groups {
		e, gid := &w.groups[g], page.GroupID(g)
		if s.hasDeadSlot(gid) {
			deferred++
		}
		if s.Twins == nil {
			continue // single parity keeps no bitmap
		}
		if e.touched {
			if err := w.readHeaders(gid); err != nil {
				return deferred, err
			}
		}
		cur, rewrote, err := s.settle(gid, e.metas, w.committed)
		if err != nil {
			return deferred, fmt.Errorf("core: bitmap rebuild of group %d: %w", g, err)
		}
		e.touched = e.touched || rewrote
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
