// Package core implements the paper's primary contribution: RDA-based
// transaction recovery (Section 4), together with the traditional
// single-parity write path it is compared against.
//
// The Store owns every mutation of array state.  The paper's write-back
// policy — which of the paths below a write takes — is one pure function,
// Decide (policy.go); the paths are:
//
//   - StealNoLog — the RDA fast path (Section 4.1): a page modified by a
//     single active transaction is written in place with NO UNDO logging;
//     the new parity goes to the group's obsolete twin in the working
//     state (Figure 8) and the group is entered into the Dirty_Set
//     (Figure 3).  Undo material is the pair of twin parity pages:
//     D_old = (P ⊕ P′) ⊕ D_new (Figure 6).
//   - WriteLogged — the classic STEAL path: the caller has put the
//     before-image(s) on the log; the page is written in place and the
//     parity is maintained by read-modify-write.  When the target group
//     is dirty, BOTH twins must be updated so each keeps describing its
//     view of the group — the paper's 2·p_l extra transfers
//     (Section 5.2.1).
//   - WriteCommitted — write-back of a page with no active modifiers
//     (FORCE at EOT, checkpoint flushes of committed data, REDO).
//
// plus the corresponding undo and commit primitives.  Buffer, lock and
// transaction orchestration live in the public engine package; crash and
// media recovery drivers live in internal/recovery.
package core

import (
	"errors"
	"fmt"

	"repro/internal/dirtyset"
	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
	"repro/internal/twinpage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Store mediates all disk-array state changes for one database.
type Store struct {
	Arr *diskarray.Array
	// Twins is non-nil exactly when the array is twinned.
	Twins *twinpage.Manager
	// Dirty is the Dirty_Set; non-nil exactly when RDA recovery is on.
	Dirty *dirtyset.Table
	Log   *wal.Log
	TM    *txn.Manager
	// Pages is the free list of page-sized scratch: the redundancy images
	// a write reads, folds and writes out come from it and go back when
	// the write returns, and the engine keeps its transactions'
	// before-images on it too.
	Pages *page.FreeList

	// Workers is the width of the whole-array loops on synchronous drives;
	// it is read only by Lanes, which every such loop fans out by.  <= 1
	// runs them inline in index order.  Set once by the engine at Open,
	// before the store is shared.
	Workers int

	// Degraded-serving state (degraded.go), the snapshot of the array's
	// health the engine adopted last (EnterDegraded).  down is the set of
	// down disks being served around, oldest loss first, empty when
	// healthy.  restored[g] is set once the rebuild worker has
	// reconstructed group g's blocks on them.
	down     []int
	restored []bool
	// replacement marks that the down disk's slot holds a fresh
	// (readable) replacement drive instead of the dead one; see
	// SetReplacementPresent in degraded.go.
	replacement bool
	deg         degCounters
}

// maxFreePages bounds the idle pages Store.Pages keeps.  The scratch of a
// write in flight is two or three pages, drawn and returned within one
// call; the rest absorbs what running transactions hand back until others
// draw it again, chiefly a committing transaction's before-images.  The
// dirty frames' disk versions come from the buffer pool's own list, which
// keeps up to a page per frame, so the hundreds of versions a ¬FORCE
// checkpoint hands back at once wait there for the next dirty frames
// instead of overflowing this one.  16 stopped being enough when two
// drivers stopped taking turns at the buffer pool's mutex.  At 32 / 64 /
// 128 / 256 idle pages the benchmark's workloads allocate per commit and
// keep live (seed 1, full scale):
//
//	pipelined_io       9.89 / 7.86 / 7.85 / 7.85 KiB   1.998 / 2.040 / 2.028 / 2.025 MiB
//	oltp_force         7.68 / 5.85 / 5.82 / 5.82 KiB   49.50 / 49.56 / 49.61 / 49.61 MiB
//	degraded_pq       14.81 / 13.81 / 13.80 / 13.80 KiB   58.28 / 58.35 / 58.38 / 58.38 MiB
//	retrieval_noforce  2.59 at every size              59.54 MiB at every size
//
// 64 takes nearly all there is to take; 128 takes the last 0.02 KiB on
// the FORCE workloads for at most 0.05 MiB of heap.
const maxFreePages = 128

// NewStore wires a store over the given array.  RDA recovery is enabled
// iff the array is twinned (the engine validates the combination).
func NewStore(arr *diskarray.Array, log *wal.Log, tm *txn.Manager) *Store {
	s := &Store{Arr: arr, Log: log, TM: tm, Pages: page.NewFreeList(arr.PageSize(), maxFreePages), restored: make([]bool, arr.NumGroups())}
	if arr.Twinned() {
		s.Twins = twinpage.New(arr)
		s.Dirty = dirtyset.New()
	}
	return s
}

// RDA reports whether RDA recovery is active.
func (s *Store) RDA() bool { return s.Twins != nil }

// currentTwin returns the index of the current parity twin for group g
// (always 0 on single-parity arrays).
func (s *Store) currentTwin(g page.GroupID) int {
	if s.Twins == nil {
		return 0
	}
	return s.Twins.Current(g)
}

// WriteCommitted writes a data page that carries no uncommitted state:
// EOT forcing, checkpoint flushes of committed pages, and REDO.
//
// On a clean group of a twinned array the new parity is written to the
// obsolete twin in the committed state with a fresh timestamp and the
// bitmap flips — the same crash-atomic two-version discipline the
// working path uses.  On a dirty group both twins are XOR-updated in
// place so that the undo identity P ⊕ P′ = D_old ⊕ D_new for the dirty
// page is preserved.  Single-parity arrays do the classic
// read-modify-write.
func (s *Store) WriteCommitted(p page.PageID, data, cachedOld page.Buf) error {
	// What differs from WriteLogged is what the caller has put on the log,
	// not what reaches the array.
	return s.WriteLogged(p, data, cachedOld, nil)
}

// Chain is a run of writes into one clean parity group under one hold of
// its latch — a committing transaction's EOT flush of the group (the
// engine's flushGroup): logged flips, then at most one no-log steal.  Each
// write's new redundancy is the next one's old, so a link reads its own
// index back while its data page goes out — two transfers on different
// drives, one wait on queued ones — and hands the verified image on; the
// flip or the steal that follows folds its delta into that instead of
// waiting for a read of its own.  The paper's a = 3 argument (the old
// version is already in memory) applied to parity, with the check a read
// is kept: what a chain carries has passed checksum, location stamp and
// write ledger after the write, so a parity write the drive acknowledged
// and lost is met here, while every data page of the group is still
// committed, and never becomes the committed twin a steal's Figure 6 undo
// depends on.  A read-back that fails for any reason carries nothing, and
// the next link reads — and repairs — for itself.
//
// The images are the very pages the link before sent to the drives, handed
// on, not copied; they are valid exactly as long as nobody else writes the
// group, which is what the latch guarantees, so a Chain lives on the
// flush's stack and nothing of it survives on the Store.  The writes keep
// their order (Q before P before data, one page after the other), so a
// crash exposes the states separate writes expose.
//
// A new chain (Store.Chain) carries nothing; Release puts what is carried
// back on the free list and must follow the last write.  Any write other
// than a flip or a steal in the chain's clean group ends it.  A nil *Chain
// is a write on its own.
type Chain struct {
	s *Store
	g page.GroupID
	// imgs, when imgs[P] is set, is what index twin of g holds on disk.
	twin int
	imgs [2]page.Buf
}

// Chain starts a chain of writes into group g.
func (s *Store) Chain(g page.GroupID) *Chain { return &Chain{s: s, g: g} }

// Release ends the chain.  Safe on a nil chain and more than once.
func (c *Chain) Release() {
	if c != nil {
		c.s.Pages.Put(c.imgs[:]...)
		c.imgs = [2]page.Buf{}
	}
}

// take hands over the images of index twin of group g if the chain carries
// exactly those, and ends the chain otherwise.
func (c *Chain) take(g page.GroupID, twin int) ([2]page.Buf, bool) {
	if c == nil || c.imgs[diskarray.P] == nil || c.g != g || c.twin != twin {
		c.Release()
		return [2]page.Buf{}, false
	}
	imgs := c.imgs
	c.imgs = [2]page.Buf{}
	return imgs, true
}

// keep leaves the images just written to index twin with the chain,
// reporting false when there is no chain to leave them with.
func (c *Chain) keep(twin int, imgs [2]page.Buf) bool {
	if c == nil {
		return false
	}
	c.twin, c.imgs = twin, imgs
	return true
}

// flipCommitted performs the committed small-write on a clean group of a
// twinned array: the new parity goes to the obsolete twin in the
// committed state with a fresh timestamp, the bitmap flips, then the
// data page is written.  The parity header names the written page
// (DirtyPage + PairedSet) and the data header echoes the parity
// timestamp — the same pairing StealNoLog records — so a restart that
// cannot recompute parity (a sibling data page unreadable after a disk
// loss) can still tell whether the flip's data write reached disk: a
// broken pair means the parity ran ahead and the untouched other twin
// still describes the on-disk data.
//
// On a QParity array the target index's Q page is written first, with
// the SAME header: whenever a P twin describes data state S, its Q
// partner already holds ComputeQ(S) (the lockstep invariant, see
// DESIGN.md), so recovery's Figure 7 arbitration over P headers alone
// also selects a usable Q.
func (s *Store) flipCommitted(g page.GroupID, p page.PageID, data, cachedOld page.Buf, c *Chain) error {
	imgs, err := s.smallWriteParity(g, s.currentTwin(g), p, cachedOld, data, c)
	if err != nil {
		return err
	}
	kept := false
	defer func() {
		if !kept {
			s.Pages.Put(imgs[:]...)
		}
	}()
	obsolete := s.Twins.Obsolete(g)
	ts := s.TM.NextTimestamp()
	meta := disk.Meta{State: disk.StateCommitted, Timestamp: ts, DirtyPage: p, PairedSet: true}
	if err := s.writeIndex(g, obsolete, imgs, meta); err != nil {
		return err
	}
	s.Twins.Promote(g, obsolete)
	if c == nil {
		return s.writeData(p, data, disk.Meta{Timestamp: ts})
	}
	// A link of a chain: the index just written is read back, into the
	// pages it was written from, beside the data write.  Verified, those
	// pages are the next link's old redundancy.  (back: the closure gets a
	// copy of the array, or imgs would move to the heap in every flip.)
	eqs, back := s.Arr.Equations(), imgs
	var unread [2]bool
	err = s.Arr.Together(1+len(eqs), func(i int) error {
		if i == 0 {
			return s.writeData(p, data, disk.Meta{Timestamp: ts})
		}
		eq := eqs[i-1]
		_, _, e := s.Arr.Read(g, eq.Twin(obsolete), back[eq])
		unread[eq] = e != nil
		return nil
	})
	if err == nil && unread == [2]bool{} {
		kept = c.keep(obsolete, imgs)
	}
	return err
}

// smallWriteParity computes the redundancy images for writing `data`
// over page p from the given twin index, one per equation (indexed by
// diskarray.Eq; nil for an equation the array does not keep):
// P_new = P ⊕ D_old ⊕ D_new and Q_new = Q ⊕ g^i·(D_old ⊕ D_new).  The
// images are pages from s.Pages that the old redundancy was read into — or
// the pages chain c (nil: none) carries for that index, which then cost no
// read — and the update folded into in place; the caller writes them out
// and puts them back.  Width-1 (mirrored) groups get copies of the data
// with no reads at all.
func (s *Store) smallWriteParity(g page.GroupID, twin int, p page.PageID, cachedOld, data page.Buf, c *Chain) ([2]page.Buf, error) {
	eqs := s.Arr.Equations()
	imgs, carried := c.take(g, twin)
	if !carried {
		for _, eq := range eqs {
			imgs[eq] = s.Pages.Get()
		}
	}
	if s.Arr.GroupWidth() == 1 {
		for _, eq := range eqs {
			copy(imgs[eq], data)
		}
		return imgs, nil
	}
	// Read 0 is the page's old contents, the rest the old redundancy: all
	// on different drives.  Reads commute, so issuing them together changes
	// no recovery-visible order.
	r := oldReads{s: s, g: g, twin: twin, p: p, imgs: imgs, old: cachedOld}
	if cachedOld != nil {
		r.first = 1 // a=3: the old contents came along
	}
	last := 1 + len(eqs)
	if carried {
		last = 1 // and so did the old redundancy
	}
	defer func() { s.Pages.Put(r.scratch) }()
	if err := r.run(last - r.first); err != nil {
		s.Pages.Put(r.imgs[:]...)
		return [2]page.Buf{}, err
	}
	idx := 0
	if len(eqs) > 1 {
		idx = s.Arr.GroupIndex(p)
	}
	for _, eq := range eqs {
		eq.SmallWrite(r.imgs[eq], r.old, data, idx)
	}
	return r.imgs, nil
}

// oldReads is what a small write reads before it computes the redundancy:
// read 0 the page's old contents into scratch (old; the caller's copy when
// it has one, and the reads start at first = 1), read 1 + k the old
// redundancy of equation k into its image.  A value of its own, so that a
// write on synchronous drives keeps it on the stack.
type oldReads struct {
	s       *Store
	g       page.GroupID
	twin    int
	p       page.PageID
	first   int
	imgs    [2]page.Buf
	old     page.Buf
	scratch page.Buf
}

// run issues reads first … first+n-1: together on queued drives, whose
// lanes take them on goroutines of their own — the one case that moves
// the reads to the heap — and one after another, in order, otherwise.
func (r *oldReads) run(n int) error {
	if n > 1 && r.s.Arr.Queued() {
		q := *r
		defer func() { *r = q }()
		return r.s.Arr.Together(n, q.read)
	}
	for i := 0; i < n; i++ {
		if err := r.read(i); err != nil {
			return err
		}
	}
	return nil
}

// read is read first+i.
func (r *oldReads) read(i int) error {
	s := r.s
	if i += r.first; i == 0 {
		r.scratch = s.Pages.Get()
		var err error
		r.old, err = s.ReadPage(r.p, r.scratch)
		return err
	}
	red := s.Arr.Equations()[i-1].Twin(r.twin)
	var err error
	if r.imgs[red.Eq], _, err = s.readRed(r.g, red, r.imgs[red.Eq]); err != nil {
		return fmt.Errorf("core: read %s twin %d of group %d: %w", red.Eq, r.twin, r.g, err)
	}
	return nil
}

// errMustLog reports a StealNoLog attempt that the policy (Decide) refuses;
// callers fall back to the logging path.
var errMustLog = errors.New("core: parity group requires UNDO logging")

// StealNoLog writes page p, modified by active transaction t, without
// UNDO logging (Section 4.1).  The data page header records the writing
// transaction — the steal tag recovery finds stolen pages by — and the
// working redundancy header records t, a fresh timestamp and the covered
// page.
//
// The transfers touch only per-group state (twins, dirty set, the group's
// drives), each safe under the group latch the caller holds, so a
// pipelined commit overlaps one transaction's steals across parity
// groups.
//
// As the last link of chain c (nil: on its own) the steal takes the
// committed index the flip before it wrote, read back and verified, as its
// old redundancy; the group being dirty from here on, it leaves nothing.
func (s *Store) StealNoLog(p page.PageID, data, cachedOld page.Buf, t *txn.Txn, c *Chain) error {
	defer c.Release()
	g := s.Arr.GroupOf(p)
	v, entry := s.ViewOf(PageWriteBack, g, p, t.ID)
	v.Modifiers = 1
	if a := Decide(v); a != Steal {
		return fmt.Errorf("%w: group %d page %d txn %d: %s", errMustLog, g, p, t.ID, a)
	}
	ts := s.TM.NextTimestamp()
	// A first steal reads the current index and lands on the obsolete one
	// (Figure 8's transition into the working state).  A re-steal of the
	// same page by the same transaction refreshes the working index in
	// place: the committed one is untouched, so P ⊕ P′ keeps equalling
	// D_committed ⊕ D_current.
	from, twin := s.Twins.Current(g), s.Twins.Obsolete(g)
	if v.Dirty == SameSteal {
		from, twin = entry.WorkingTwin, entry.WorkingTwin
	}
	imgs, err := s.smallWriteParity(g, from, p, cachedOld, data, c)
	if err != nil {
		return err
	}
	defer s.Pages.Put(imgs[:]...)
	// Q before P before data: the lockstep invariant holds the moment the
	// P header switches to working.
	working := disk.Meta{State: disk.StateWorking, Timestamp: ts, Txn: t.ID, DirtyPage: p}
	if err := s.writeIndex(g, twin, imgs, working); err != nil {
		return err
	}
	// The data header carries the same timestamp as the working parity
	// written above: after a crash the scan can tell whether this data
	// write made it to disk before re-stealing rewrote the twin.
	if err := s.writeData(p, data, disk.Meta{Txn: t.ID, Timestamp: ts, ChainSet: true}); err != nil {
		return err
	}
	s.Dirty.MarkDirty(g, p, t.ID, twin)
	return nil
}

// WriteLogged writes a page whose UNDO material is already on the log.
// On a clean twinned group the write flips to the obsolete twin like
// WriteCommitted — the same four transfers as the classic
// read-modify-write, but the previous parity version survives the write,
// which is what lets a degraded restart fall back to it when a crash cuts
// a flip in half (see flipCommitted).  Otherwise the redundancy is updated
// in place, index by index, each through the flip's small write under the
// header it already holds: both twins of a dirty group, so that each keeps
// describing its view (the paper's 2·p_l extra transfers), or index 0 of a
// single-parity array.  On width-1 groups — mirrored pairs — the "parity"
// of the single data page is the page itself, so a single-parity write is
// two transfers, the mirroring cost of Bitton & Gray [1] that the paper's
// introduction compares against.
//
// Only the flip takes its old redundancy from, and leaves its new with,
// chain c (nil: a write on its own); a write that changes the group's
// redundancy any other way ends the chain.
func (s *Store) WriteLogged(p page.PageID, data, cachedOld page.Buf, c *Chain) error {
	g := s.Arr.GroupOf(p)
	if s.writeDegradedNeeded(g, p) {
		c.Release()
		return s.writeDegraded(p, data)
	}
	twins := 1
	if s.Twins != nil {
		if !s.Dirty.IsDirty(g) {
			return s.flipCommitted(g, p, data, cachedOld, c)
		}
		twins = 2
	}
	c.Release()
	// Unless the caller has them (the paper's a = 3), the old contents are
	// read once (a = 4), for every index; a mirror's small write needs none.
	oldData := cachedOld
	if oldData == nil && s.Arr.GroupWidth() > 1 {
		scratch := s.Pages.Get()
		defer s.Pages.Put(scratch)
		var err error
		if oldData, err = s.ReadPage(p, scratch); err != nil {
			return err
		}
	}
	for twin := range twins {
		imgs, err := s.smallWriteParity(g, twin, p, oldData, data, nil)
		if err != nil {
			return err
		}
		// smallWriteParity has just read and verified this P page under
		// g's latch, or, on a mirror, rewrites it with its header
		// unchanged: its header is the one the write keeps, so it is
		// peeked, not read again.  A Q page carries its P partner's header
		// (the lockstep invariant).
		hdr, err := s.Arr.PeekMeta(g, diskarray.P.Twin(twin))
		if err != nil {
			err = fmt.Errorf("core: header of twin %d of group %d: %w", twin, g, err)
		} else {
			err = s.writeIndex(g, twin, imgs, hdr)
		}
		s.Pages.Put(imgs[:]...)
		if err != nil {
			return err
		}
	}
	return s.writeData(p, data, disk.Meta{})
}

// WriteStripeLogged writes every data page of one clean, healthy group
// of a twinned array with a single parity update — the paper's
// large-write case, reached when a committing transaction's flush covers
// a whole stripe.  The new parity is the XOR of the new data alone, so
// the k-transfer read-modify-write per page collapses to one parity
// write plus k data writes and no reads.
//
// The caller must have the group's UNDO material durable on the log
// (before-images of every page in the stripe, forced) before calling:
// coalescing k deltas into one parity write destroys the per-page
// crash-atomicity of flipCommitted — a crash inside the batch leaves a
// mixed stripe that NO parity version describes, and a reconstruction
// from either twin can hand back garbage for a member page.  That is
// safe precisely because the stripe has no bystanders: every page a bad
// reconstruction could touch belongs to the batch, the batch's writer
// cannot have committed (its EOT is appended only after the flush
// returns), and logged undo rewrites every member from its forced
// before-image.  Partial-stripe batches have bystander pages with no
// such cover, so they must not coalesce: anything but the policy's
// full-stripe answer (Decide) for the group and pages is refused.
//
// Write ordering inside the batch follows flipCommitted: parity first
// (to the obsolete twin, committed state, naming the LAST page with the
// pairing echo), then the unnamed data pages — overlapped across their
// drives when the store is pipelined — and the named page physically
// last, stamped with the parity timestamp.  An intact echo therefore
// still proves the whole stripe landed.
func (s *Store) WriteStripeLogged(g page.GroupID, pages []page.PageID, datas []page.Buf) error {
	v, _ := s.ViewOf(GroupFlush, g, 0, 0)
	v.DirtyPages = min(len(pages), 2)
	v.WholeStripe = len(pages) == s.Arr.GroupWidth() && len(datas) == len(pages)
	for i := 0; v.WholeStripe && i < len(pages); i++ {
		v.WholeStripe = pages[i] == s.Arr.GroupPage(g, i)
	}
	if a := Decide(v); a != FullStripe {
		return fmt.Errorf("core: full-stripe write of group %d refused: the policy says %s", g, a)
	}
	obsolete := s.Twins.Obsolete(g)
	ts := s.TM.NextTimestamp()
	last := len(pages) - 1
	pMeta := disk.Meta{State: disk.StateCommitted, Timestamp: ts, DirtyPage: pages[last], PairedSet: true}
	imgs := s.computeIndex(datas)
	err := s.writeIndex(g, obsolete, imgs, pMeta)
	s.Pages.Put(imgs[:]...)
	if err != nil {
		return err
	}
	s.Twins.Promote(g, obsolete)
	if err := s.Arr.Together(last, func(i int) error {
		return s.writeData(pages[i], datas[i], disk.Meta{Timestamp: ts})
	}); err != nil {
		return err
	}
	return s.writeData(pages[last], datas[last], disk.Meta{Timestamp: ts})
}

func (s *Store) writeData(p page.PageID, data page.Buf, meta disk.Meta) error {
	if err := s.Arr.WriteData(p, data, meta); err != nil {
		return fmt.Errorf("core: write page %d: %w", p, err)
	}
	return nil
}

// --- Commit ---------------------------------------------------------------

// CommitGroups makes tx's working parities current (Figure 8: working →
// committed) and cleans its Dirty_Set entries.  Pure bookkeeping — the
// EOT log record is the commit point and the on-disk parity headers catch
// up lazily.
func (s *Store) CommitGroups(t *txn.Txn) {
	if s.Dirty == nil {
		return
	}
	var buf [16]page.GroupID
	for _, g := range s.Dirty.GroupsOf(t.ID, buf[:0]) {
		e, ok := s.Dirty.Lookup(g)
		if !ok {
			continue
		}
		s.Twins.Promote(g, e.WorkingTwin)
		s.Dirty.Clean(g)
	}
}

// DescribingTwin picks the parity twin a corrupt data page p must be
// reconstructed from, judged by headers alone.  The key is the *newest*
// valid twin — the group's latest acked parity write — NOT the Figure 7
// current twin: Figure 7 resolves ownership (a loser's working twin is
// never current), but a loser's parity still describes the platter once
// its steal's data write landed, and that is all reconstruction needs.
// What recovery then DOES with the group (undo, launder) is a separate
// question answered by the other passes.
//
// Both the flip and the steal protocols write parity BEFORE data, so the
// newest twin may describe a data write that never reached the platter.
// The pairing echo arbitrates — both protocols stamp the named data page
// with the parity's own timestamp:
//
//   - The newest twin names p itself.  Its payload is the only surviving
//     copy of the acked write to p — parity-as-redo — and it is the
//     reconstruction source precisely BECAUSE the platter disagrees: the
//     stale or missing on-disk image is the fault under repair.  (If the
//     writer is a known loser the write must instead be undone, so the
//     sibling is returned; the torn-repair pass normally handles that
//     case before calling here.)
//   - The newest twin names some other page q (p is a bystander).  A
//     matching header on q proves the twin's data write landed and its
//     payload matches the platter.  A broken echo means the twin ran
//     ahead; reconstructing p from it would XOR the phantom q-delta into
//     the repaired page, so the sibling — the parity the on-disk bytes
//     still satisfy — is used instead.
func (s *Store) DescribingTwin(g page.GroupID, p page.PageID, committed func(page.TxID) bool) (int, error) {
	if s.Twins == nil {
		return 0, nil
	}
	var metas [2]disk.Meta
	for twin := range metas {
		var err error
		if metas[twin], err = s.IndexMeta(g, twin); err != nil {
			return 0, fmt.Errorf("core: describing twin of group %d: %w", g, err)
		}
	}
	// Figure 7 with every writer counted as committed: the larger
	// timestamp among the twins that hold parity at all.
	newest, ok := twinpage.CurrentParity(metas[0], metas[1], anyWriter)
	if !ok {
		s.deg.unrecoverable.Add(1)
		return 0, fmt.Errorf("core: describing twin of group %d: no valid parity twin: %w", g, ErrUnrecoverableCorruption)
	}
	m, sibling := metas[newest], twinpage.Valid(metas[1-newest], anyWriter)
	if m.State != disk.StateWorking && !m.PairedSet {
		// Names no page (formatted or wholesale-recomputed parity):
		// nothing can have run ahead of the data.
		return newest, nil
	}
	if m.DirtyPage == p {
		if m.State == disk.StateWorking && committed != nil && !committed(m.Txn) && sibling {
			return 1 - newest, nil // loser's steal: undo from the sibling
		}
		return newest, nil // parity-as-redo: the newest twin defines p
	}
	if s.PageUnavailable(m.DirtyPage) {
		// The named page went with its disk: its echo is unknowable, and
		// the winner is kept rather than demoted on a guess.
		return newest, nil
	}
	// Bystander repair: check the pairing echo on the named page.  The
	// raw header is deliberately used — arbitration is about which bytes
	// sit on the platter, not whether they verify.
	loc := s.Arr.DataLoc(m.DirtyPage)
	dm, err := s.Arr.Disk(loc.Disk).PeekMeta(loc.Block)
	if err == nil && dm.Timestamp == m.Timestamp {
		return newest, nil
	}
	// Broken echo: the newest twin's data write never landed.  Before
	// falling back to the sibling, make sure the sibling does not predate
	// a *landed* write to the named page: a re-steal refreshes the
	// working twin in place, so if its data write was then cut, the twin
	// version that described the platter (the first steal's) has been
	// destroyed by the rewrite.  The named page's on-disk timestamp sitting
	// above the sibling's betrays exactly that — neither twin matches the
	// platter and p's contents exceed the surviving redundancy.
	if err == nil && dm.Timestamp > metas[1-newest].Timestamp {
		s.deg.unrecoverable.Add(1)
		return 0, fmt.Errorf("core: repair page %d of group %d: %w: twin %d ran ahead of its data write and the platter-consistent parity version was overwritten in place", p, g, ErrUnrecoverableCorruption, newest)
	}
	if sibling {
		return 1 - newest, nil
	}
	return newest, nil
}

// anyWriter is the outcome predicate under which a working twin counts
// whoever wrote it (DescribingTwin).
func anyWriter(page.TxID) bool { return true }

// resyncGroup verifies the current index of one group against its data
// pages, equation by equation, and repairs mismatches, reporting whether a
// repair happened.
//
// P goes first and carries the decisions: silent corruption is ruled out
// before the mismatch is read as an interrupted read-modify-write, and if
// the other twin already matches the data the group simply never finished
// switching — the matching twin is promoted and the stale one invalidated.
// Otherwise the page is recomputed in place from the platter.  A cut small
// write can also leave Q ahead of P (Q is written first) or the pair
// ahead of the data write; the wholesale recompute restores the lockstep
// invariant either way, under the P twin's (already resynced) header.
func (s *Store) resyncGroup(gid page.GroupID) (bool, error) {
	if s.GroupDegraded(gid) {
		// A group that lost a data page cannot be verified: the current
		// parity *defines* the lost page's value, and settleFlip has
		// already demoted a flip whose data write the crash cut off.  One
		// that lost a redundancy slot has the current index's reachable
		// slots established over its data.  Either way the restarted
		// rebuild recomputes the group's redundancy.
		if s.Twins == nil || s.lostData(gid) {
			return false, nil
		}
		return s.establishIndex(gid, s.currentTwin(gid))
	}
	did := false
	for _, eq := range s.Arr.Equations() {
		cur := s.currentTwin(gid)
		r := eq.Twin(cur)
		ok, err := s.Verify(gid, r)
		if err != nil {
			return did, fmt.Errorf("core: resync %s of group %d: %w", eq, gid, err)
		}
		if ok {
			continue
		}
		did = true
		if eq == diskarray.P {
			settled, err := s.resyncSettleP(gid, cur)
			if err != nil {
				return did, err
			}
			if settled {
				continue
			}
		}
		meta, err := s.Arr.PeekMeta(gid, diskarray.P.Twin(cur))
		if err != nil {
			return did, err
		}
		if err := s.recompute(gid, r, meta); err != nil {
			return did, fmt.Errorf("core: resync %s of group %d: %w", eq, gid, err)
		}
	}
	return did, nil
}

// resyncSettleP tries to explain a current P twin that fails the XOR
// identity without recomputing it, reporting whether it did.
//
// Silent corruption is ruled out first.  A write the crash cut off was
// never acknowledged, so every member still passes the verified read; a
// lost, misdirected or rotted block trips a detector — the ledger is what
// distinguishes a crash from a lie — and must be rebuilt from the current
// twin's redundancy: demoting to the twin that matches the stale block, or
// recomputing parity over it, would launder a committed update away.
// Then, if the other twin matches the data and is committed, the group
// never finished switching: it is promoted and the stale twin invalidated.
func (s *Store) resyncSettleP(gid page.GroupID, cur int) (bool, error) {
	h, err := s.repair(gid, cur, -1, nil, s.Arr.Equations()[:1], false)
	h.release(s)
	s.deg.readRepairs.Add(uint64(len(h.pages) + h.reds))
	if err != nil {
		return false, fmt.Errorf("core: resync group %d: %w", gid, err)
	}
	if len(h.pages)+h.reds > 0 {
		ok, err := s.Verify(gid, diskarray.P.Twin(cur))
		if ok || err != nil {
			return ok, err
		}
	}
	if s.Twins == nil {
		return false, nil
	}
	other := diskarray.P.Twin(1 - cur)
	if ok, err := s.Verify(gid, other); !ok || err != nil {
		return false, err
	}
	om, err := s.Arr.PeekMeta(gid, other)
	if err != nil || om.State != disk.StateCommitted {
		return false, err
	}
	s.Twins.Promote(gid, other.Twin)
	return true, s.WriteIndexMeta(gid, cur, invalid)
}

// settle returns the index of group g that is current after a crash, and
// whether settling it rewrote the group: Current_Parity (Figure 7) over the
// index headers the walk read (metas), the whole of it for a group that has
// lost no block.  A group that has lost one — a data page or a redundancy
// slot — has its winner's flip pairing checked as well (settleFlip), the one
// check a header read leaves open: whether the winner's data write landed.
// A dead slot changes nothing else: the winner keeps its header, however
// many slots the other index has left, and the restarted rebuild recomputes
// the slot.
//
// Only when the headers cannot arbitrate is the group established from its
// data (establishIndex): no index with a reachable slot is valid, or one
// index has no reachable slot at all — the other's header, whatever it says,
// was never compared with anything (twin parity with a P twin down, or both
// pages of a P+Q index).  Both leave every data page readable.
func (s *Store) settle(g page.GroupID, metas [2]disk.Meta, committed func(page.TxID) bool) (cur int, rewrote bool, err error) {
	cur, ok := twinpage.CurrentParity(metas[0], metas[1], committed)
	degraded := s.GroupDegraded(g)
	switch {
	case ok && !degraded:
		return cur, false, nil
	case ok && metas[1-cur].State != disk.StateNone:
		return s.settleFlip(g, cur, metas, committed)
	case !degraded || !ok && s.lostData(g):
		return 0, false, fmt.Errorf("core: group %d has no valid parity twin (states %v/%v)", g, metas[0].State, metas[1].State)
	case metas[cur].State == disk.StateNone:
		cur = 1 // no index is valid, and index 0 has no reachable slot
	}
	rewrote, err = s.establishIndex(g, cur)
	return cur, rewrote, err
}

// settleFlip validates the Figure 7 winner cur of a group that has lost a
// block, and returns the index that stays current and whether the group was
// rewritten.  A committed small-write flip records which data page it wrote
// (DirtyPage + PairedSet) and stamps that page with the parity's timestamp
// (flipCommitted, writeDegraded); if the crash landed between the
// redundancy write and the data write, the pair is broken — the winner
// describes data that never reached disk, and through its equations it
// would assign an unreadable page a garbage value.  The other index,
// untouched by the flip, still describes the on-disk contents, so it is made
// current again and the half-finished flip invalidated.  The interrupted
// write's own page is consistent either way: its transaction cannot have
// logged EOT past an unfinished flush, so the old on-disk contents are
// exactly what UNDO wants.
//
// A pair that names the dead page itself, or a page that no longer reads,
// is unverifiable; the winner is kept rather than demoted on a guess (a
// degraded parity-only write carries no pairing, so the first arises only
// for flips that completed before the disk died with the crash).
//
// The fallback index is whatever the flip was computed from — the current
// index of the clean pre-flip group — so its *payload* describes the
// on-disk data whatever its header says: committed, obsolete (an older
// flip's leftover, or the formatted state), or working with a committed
// writer (a winner's steal the laundering pass has not reached).  All
// three are Figure 7's valid bases and are laundered to committed; any
// other header cannot be current under a completed flip, so the winner is
// kept.
func (s *Store) settleFlip(g page.GroupID, cur int, metas [2]disk.Meta, committed func(page.TxID) bool) (int, bool, error) {
	m, other := metas[cur], metas[1-cur]
	if m.State != disk.StateCommitted || !m.PairedSet || s.PageUnavailable(m.DirtyPage) || !twinpage.Valid(other, committed) {
		return cur, false, nil
	}
	echo := s.Pages.Get()
	defer s.Pages.Put(echo)
	_, dm, err := s.Arr.ReadData(m.DirtyPage, echo)
	if err != nil && !disk.IsCorrupt(err) {
		return cur, false, err
	}
	if err != nil || dm.Timestamp == m.Timestamp {
		return cur, false, nil
	}
	if other.State != disk.StateCommitted {
		other = disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
		if err := s.WriteIndexMeta(g, 1-cur, other); err != nil {
			return cur, true, err
		}
	}
	return 1 - cur, true, s.WriteIndexMeta(g, cur, invalid)
}

// LostData returns a data page of group g that is unreachable, if any.
func (s *Store) LostData(g page.GroupID) (page.PageID, bool) {
	for i := 0; i < s.Arr.GroupWidth(); i++ {
		if p := s.Arr.GroupPage(g, i); s.PageUnavailable(p) {
			return p, true
		}
	}
	return 0, false
}

// lostData reports whether a data page of group g is unreachable.
func (s *Store) lostData(g page.GroupID) bool {
	_, lost := s.LostData(g)
	return lost
}

// establishIndex makes index t's reachable slots describe the on-disk
// data, reporting whether it rewrote any: each alive slot is kept when its
// header is committed and its payload verifies, and recomputed committed
// otherwise — P under a fresh timestamp, Q under its P partner's committed
// header when that survived (the lockstep invariant), else under the same
// fresh one.  Every data page of the group must be readable.
func (s *Store) establishIndex(g page.GroupID, t int) (rewrote bool, _ error) {
	var fresh, kept disk.Meta
	for _, eq := range s.Arr.Equations() {
		r := eq.Twin(t)
		if !s.SlotAlive(g, r) {
			continue
		}
		m, err := s.Arr.ReadMeta(g, r)
		if err != nil {
			return rewrote, err
		}
		ok := false
		if m.State == disk.StateCommitted {
			if ok, err = s.Verify(g, r); err != nil {
				return rewrote, err
			}
		}
		if !ok {
			m = kept
			if m.State != disk.StateCommitted {
				if fresh.State == disk.StateNone {
					fresh = disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
				}
				m = fresh
			}
			if err := s.recompute(g, r, m); err != nil {
				return rewrote, fmt.Errorf("core: recompute surviving %s twin of group %d: %w", eq, g, err)
			}
			rewrote = true
		}
		if kept.State == disk.StateNone {
			kept = m
		}
	}
	return rewrote, nil
}

// ResetVolatile drops the store's main-memory state (Dirty_Set, twin
// bitmap) — the system crash.
func (s *Store) ResetVolatile() {
	if s.Dirty != nil {
		s.Dirty.Reset()
	}
	if s.Twins != nil {
		s.Twins.Reset()
	}
}

// Verify reports whether redundancy page r of group g satisfies its
// equation over the group's on-disk data pages.  Free (Peek) I/O, summed in
// two pages from s.Pages.
func (s *Store) Verify(g page.GroupID, r diskarray.Red) (bool, error) {
	sum, blk := s.Pages.Get(), s.Pages.Get()
	defer s.Pages.Put(sum, blk)
	return s.Arr.Verify(g, r, sum, blk)
}

// VerifyParityInvariant checks, for every group, that the current twin's
// parity equals the XOR of the group's on-disk data pages (clean groups),
// or that the working twin does (dirty groups).  Free (Peek) I/O;
// verification aid for tests.
//
// On a degraded array only what redundancy still pins down is checked: a
// group whose lost block is a parity twin has its surviving twin
// verified against the (fully readable) data; a group whose lost block
// is a data page is skipped, since the current parity *defines* the lost
// page's value and the platter under the dead position holds stale bits
// the Peek I/O must not be compared against.
func (s *Store) VerifyParityInvariant() error {
	for g := 0; g < s.Arr.NumGroups(); g++ {
		gid := page.GroupID(g)
		if s.GroupDegraded(gid) && (s.Twins == nil || s.lostData(gid)) {
			// A single-parity array lost its parity block or a data page:
			// nothing verifiable remains.  On a twinned one the redundancy
			// *defines* the lost pages' values and the platter under the
			// dead positions holds stale bits the Peek I/O must not be
			// compared against.
			continue
		}
		// What is left to check is the index that describes the on-disk
		// data — the working twin of a dirty group, else the current one —
		// on every slot that is reachable.
		twin := s.describingTwin(gid)
		for _, eq := range s.Arr.Equations() {
			r := eq.Twin(twin)
			if !s.SlotAlive(gid, r) {
				continue
			}
			ok, err := s.Verify(gid, r)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("core: group %d %s invariant violated (twin %d)", g, eq, twin)
			}
		}
	}
	return nil
}
