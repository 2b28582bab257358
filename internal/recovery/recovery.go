// Package recovery implements the restart (system crash) and media
// (disk failure) recovery drivers over the core store.
//
// # Crash recovery (Section 4.3)
//
// After a crash all main-memory state is gone: the buffer, the lock
// table, the Dirty_Set and the current-parity bitmap.  Restart proceeds
// in the following passes, each idempotent so that a crash during
// recovery simply restarts it:
//
//  1. Analysis — one charged scan of the log determines every
//     transaction's outcome.  Losers are transactions with a BOT but
//     neither EOT nor abort record.
//  2. Parity undo — the twin parity header scan (the same scan the paper
//     uses to rebuild the current-parity bitmap) locates every group
//     whose working twin belongs to a loser; the covered data page is
//     restored as D_old = (P ⊕ P′) ⊕ D_new and the twin invalidated.
//  3. Bitmap rebuild — Current_Parity (Figure 7) with log outcomes; twins
//     left in the working state by transactions that actually committed
//     are laundered to the committed state on disk.
//  4. Logged undo — losers' logged before-images (pages or records) are
//     written back through the store, newest first.
//  5. Abort records are appended for every loser.
//  6. REDO (¬FORCE algorithms) — winners' after-images logged after the
//     last checkpoint are replayed in log order.
//
// # Media recovery
//
// A failed disk is replaced and every affected parity group rebuilt from
// its surviving members.  For clean groups this is the classic RAID
// reconstruction against the current parity.  For groups that are dirty
// at the time of the failure the driver distinguishes which block was
// lost: the data page and the working twin rebuild from each other, and a
// lost committed twin is recomputed from the on-disk data plus the
// before-image of the dirty page that the engine retains in memory while
// the owning transaction is active.
package recovery

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dirtyset"
	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
	"repro/internal/record"
	"repro/internal/wal"
	"repro/internal/workpool"
)

// parity and qpage address the two pages of a redundancy index.
func parity(twin int) diskarray.Red { return diskarray.P.Twin(twin) }
func qpage(twin int) diskarray.Red  { return diskarray.Q.Twin(twin) }

// invalid is the header of Figure 8's abort transition.
var invalid = disk.Meta{State: disk.StateInvalid}

// Outcome classifies a transaction from the log.
type Outcome int

// Transaction outcomes discovered by analysis.
const (
	// OutcomeUnknown means the transaction never appeared in the log.
	OutcomeUnknown Outcome = iota
	// OutcomeLoser means active at the crash: BOT without EOT/abort.
	OutcomeLoser
	// OutcomeCommitted means an EOT record exists.
	OutcomeCommitted
	// OutcomeAborted means a completed rollback's abort record exists.
	OutcomeAborted
)

// Analysis is the result of the log analysis pass.
type Analysis struct {
	Outcomes      map[page.TxID]Outcome
	Losers        []page.TxID // sorted
	CheckpointLSN wal.LSN     // 0 when the log has no checkpoint
	// LoserImages holds each loser's before-image records in log order.
	LoserImages map[page.TxID][]wal.Record
	// RedoImages holds winners' after-image records with LSN after the
	// last checkpoint, in log order.
	RedoImages []wal.Record
	// Records is the total number of log records scanned.
	Records int
}

// Committed returns an outcome predicate suitable for
// core.Store.RebuildAfterCrash.
//
// A transaction UNKNOWN to the log is treated as committed.  This is
// what makes log truncation safe: a working parity twin can outlive its
// writer's EOT record (commits flip the bitmap and launder the on-disk
// header lazily), but it can never outlive its writer's BOT while the
// writer is undecided — truncation keeps everything from the oldest
// active BOT — and a completed abort invalidates its twins on disk
// before its abort record is written.  So an un-invalidated working twin
// whose writer the log no longer knows can only belong to a committed
// transaction.
func (a *Analysis) Committed(tx page.TxID) bool {
	o := a.Outcomes[tx]
	return o == OutcomeCommitted || o == OutcomeUnknown
}

// Analyze performs the (charged) analysis scan.
func Analyze(log *wal.Log) (*Analysis, error) {
	a := &Analysis{
		Outcomes:    make(map[page.TxID]Outcome),
		LoserImages: make(map[page.TxID][]wal.Record),
	}
	var all []wal.Record
	if err := log.Scan(1, func(r wal.Record) bool {
		all = append(all, r)
		return true
	}); err != nil {
		return nil, fmt.Errorf("recovery: analysis scan: %w", err)
	}
	a.Records = len(all)
	if len(all) > 0 {
		log.ChargeScan(1, all[len(all)-1].LSN)
	}
	for _, r := range all {
		switch r.Type {
		case wal.TypeBOT:
			if a.Outcomes[r.Txn] == OutcomeUnknown {
				a.Outcomes[r.Txn] = OutcomeLoser
			}
		case wal.TypeEOT:
			a.Outcomes[r.Txn] = OutcomeCommitted
		case wal.TypeAbort:
			a.Outcomes[r.Txn] = OutcomeAborted
		case wal.TypeCheckpoint:
			a.CheckpointLSN = r.LSN
		}
	}
	for tx, o := range a.Outcomes {
		if o == OutcomeLoser {
			a.Losers = append(a.Losers, tx)
		}
	}
	sort.Slice(a.Losers, func(i, j int) bool { return a.Losers[i] < a.Losers[j] })
	for _, r := range all {
		switch r.Type {
		case wal.TypeBeforeImage:
			if a.Outcomes[r.Txn] == OutcomeLoser {
				a.LoserImages[r.Txn] = append(a.LoserImages[r.Txn], r)
			}
		case wal.TypeAfterImage:
			if a.Outcomes[r.Txn] == OutcomeCommitted && r.LSN > a.CheckpointLSN {
				a.RedoImages = append(a.RedoImages, r)
			}
		}
	}
	return a, nil
}

// Report summarizes a completed restart.
type Report struct {
	Losers          []page.TxID
	UndoneViaParity int // data pages restored from twin parity
	UndoneViaLog    int // before-images written back
	Redone          int // after-images replayed
	LaunderedTwins  int // winner working twins promoted on disk
	RepairedTorn    int // torn blocks rebuilt from redundancy
	ResyncedGroups  int // groups whose parity was resynchronized

	// Degraded-restart counters (zero on a healthy array).
	//
	// UndoneViaReconstruction counts loser pages whose undo could not
	// run the plain Figure 6 identity because a group member sat on the
	// dead disk, and was instead served by reconstruction from the
	// surviving members (promoting the committed twin over a lost dirty
	// page, or rebuilding D_old from the committed twin when the working
	// twin was lost).
	UndoneViaReconstruction int
	// DeferredParityGroups counts groups whose parity member is on the
	// down disk: recovery re-establishes their surviving parity only,
	// and the restarted online rebuild recomputes the lost member.
	DeferredParityGroups int
	// LostPages lists pages whose contents genuinely exceeded the
	// surviving redundancy (for example a dirty group whose committed
	// twin died *unobserved* in the same instant as the crash, so no
	// demotion ever logged the before-image).  They are zeroed, parity
	// is made consistent, and the caller decides how loudly to escalate
	// — explicit, reported loss, never silent corruption.
	LostPages []page.PageID
}

// CrashRecover runs the full restart sequence described in the package
// comment.  redo selects whether the REDO pass runs (¬FORCE algorithms);
// FORCE algorithms have nothing to redo.
//
// hard marks a restart after a mid-I/O crash (the fault plane's crash
// points, as opposed to db.Crash()'s quiescent loss of volatile state).
// It enables two extra passes that only mid-I/O interleavings need: the
// torn-block repair scan after analysis, and the parity resynchronization
// after the bitmap rebuild, closing the window where an in-place parity
// read-modify-write ran ahead of its data write.  Quiescent restarts skip
// both so their transfer counts match the paper's cost model.
func CrashRecover(s *core.Store, redo, hard bool) (*Report, error) {
	a, err := Analyze(s.Log)
	if err != nil {
		return nil, err
	}
	rep := &Report{Losers: a.Losers}
	loser := func(tx page.TxID) bool { return a.Outcomes[tx] == OutcomeLoser }
	degraded := s.Degraded()

	// Pass 1.5: repair torn blocks from redundancy, so every later pass
	// can read every block.  On a degraded array the scan covers the
	// surviving members only.
	if hard {
		n, err := repairTorn(s, a, rep)
		if err != nil {
			return nil, err
		}
		rep.RepairedTorn = n
	}

	// Pass 2: parity undo via the twin header scan.  With a member down
	// the scan sees surviving twins only; crashUndoWorking dispatches each
	// loser twin to the plain Figure 6 identity or to its degraded
	// fallbacks (reconstruction from survivors, the logged before-image,
	// or — only when a committed twin died unobserved in the same instant
	// as the crash — explicit reported loss).
	var working []core.WorkingTwinInfo
	if s.RDA() {
		if working, err = s.ScanWorkingTwins(); err != nil {
			return nil, err
		}
		handled := make(map[page.GroupID]bool)
		for _, w := range working {
			if !loser(w.Txn) {
				continue
			}
			handled[w.Group] = true
			if err := crashUndoWorking(s, a, w, rep); err != nil {
				return nil, fmt.Errorf("recovery: parity undo of group %d: %w", w.Group, err)
			}
		}
		// Pass 2.5 (degraded only): the twin scan cannot see a loser's
		// working twin that sat on the dead disk.  Those steals are found
		// by the other half of the paper's machinery — the per-page
		// transaction tag of the TWIST chain — and unwound from the
		// surviving committed twin.
		if degraded {
			if err := undoDeadTwinLosers(s, a, handled, rep); err != nil {
				return nil, err
			}
		}
	}
	// Pass 3: rebuild the bitmap and launder winners' working twins.  A
	// single-parity array has no twins to undo from or launder, but its
	// groups whose parity block is lost are still handed to the rebuild.
	if rep.DeferredParityGroups, err = s.RebuildAfterCrash(a.Committed); err != nil {
		return nil, err
	}
	for _, w := range working {
		if !a.Committed(w.Txn) {
			continue
		}
		if degraded && (s.DeadTwin(w.Group, diskarray.P) >= 0 || s.DeadTwin(w.Group, diskarray.Q) >= 0) {
			// The degraded bitmap pass re-established this group's
			// surviving redundancy wholesale (committed, fresh
			// timestamp); re-stamping the old working header would
			// resurrect stale state.  The dead slots are the
			// rebuild's job.
			continue
		}
		meta := disk.Meta{State: disk.StateCommitted, Timestamp: w.Timestamp, Txn: w.Txn}
		if err := s.WriteIndexMeta(w.Group, w.Twin, meta); err != nil {
			return nil, fmt.Errorf("recovery: launder twin of group %d: %w", w.Group, err)
		}
		rep.LaunderedTwins++
	}

	// Pass 3.5: resynchronize parity with the on-disk data.  At this
	// point no working twins remain (losers' invalidated, winners'
	// laundered) and all remaining undo/redo is log-based, so forcing
	// every group's current parity to XOR(data) is safe — and necessary
	// when the crash fell between an in-place parity write and the data
	// write behind it.
	if hard {
		n, err := s.ResyncParity()
		if err != nil {
			return nil, err
		}
		rep.ResyncedGroups = n
	}

	// The loss declarations above (Pass 2/2.5) run before the log-based
	// passes, so a page can be declared lost and *then* rewritten by a
	// full-page log image — its content is log-determined after all, and
	// leaving it in LostPages would misreport recoverable (non-zero)
	// state as explicit loss.  Track the set and drop re-determined
	// pages; record-level images cannot re-determine a lost page (the
	// page base they would patch is gone), so they are skipped and the
	// page stays zeroed and reported.
	lostSet := make(map[page.PageID]bool, len(rep.LostPages))
	for _, p := range rep.LostPages {
		lostSet[p] = true
	}

	// Pass 4: logged undo, newest first per loser.
	for _, tx := range a.Losers {
		images := a.LoserImages[tx]
		for i := len(images) - 1; i >= 0; i-- {
			r := images[i]
			if lostSet[r.Page] && r.Slot != wal.NoSlot {
				continue
			}
			if err := applyImage(s, r, false); err != nil {
				return nil, fmt.Errorf("recovery: undo txn %d page %d: %w", tx, r.Page, err)
			}
			rep.UndoneViaLog++
			delete(lostSet, r.Page)
		}
	}

	// Pass 5: close out the losers on the log.
	for _, tx := range a.Losers {
		s.Log.Append(wal.Record{Type: wal.TypeAbort, Txn: tx, Slot: wal.NoSlot})
	}

	// Pass 6: REDO.
	if redo {
		for _, r := range a.RedoImages {
			if lostSet[r.Page] && r.Slot != wal.NoSlot {
				continue
			}
			if err := applyImage(s, r, true); err != nil {
				return nil, fmt.Errorf("recovery: redo txn %d page %d: %w", r.Txn, r.Page, err)
			}
			rep.Redone++
			delete(lostSet, r.Page)
		}
	}
	if len(lostSet) != len(rep.LostPages) {
		kept := rep.LostPages[:0]
		for _, p := range rep.LostPages {
			if lostSet[p] {
				kept = append(kept, p)
			}
		}
		rep.LostPages = kept
	}
	return rep, nil
}

// crashUndoWorking unwinds one loser's working twin.  On a healthy group
// this is the plain Figure 6 undo (CrashUndoWorkingTwin).  On a group
// with a member on the dead disk it dispatches by which member is gone:
//
//   - the dirty page itself: promote the committed twin and invalidate
//     the working one — the committed parity now *defines* the page's
//     before-image, served by reconstruction and materialized by the
//     rebuild (Figure 6 without the data write);
//   - the committed twin's P page: (P ⊕ P′) ⊕ D_new has nothing to XOR
//     against — but on a QParity array the committed index's Q partner
//     mirrors it (the lockstep invariant) and supplies D_old through the
//     Q equation.  Only when that is gone too does the undo fall back to
//     the logged before-image that the eager demotion's log-first
//     ordering guarantees whenever the disk's death was observed before
//     the crash.  If the death was *unobserved* (it coincided with the
//     crash) no demotion ever ran and D_old existed only on the dead
//     twin: explicit, reported data loss;
//   - a sibling data page: the undo's own reads never touch it — except
//     when the crash fell inside a re-steal (twin timestamp ahead of the
//     data page), whose recovery needs every other data page.  W ⊕ C
//     cancels the dead sibling but leaves two unknowns in one equation;
//     with a Q partner the second equation resolves them, otherwise
//     both pages are lost, explicitly.
func crashUndoWorking(s *core.Store, a *Analysis, w core.WorkingTwinInfo, rep *Report) error {
	if !s.GroupDegraded(w.Group) {
		if err := s.CrashUndoWorkingTwin(w); err != nil {
			return err
		}
		rep.UndoneViaParity++
		return nil
	}
	committed := 1 - w.Twin
	// undone finishes an undo served from the committed index.
	undone := func() error {
		rep.UndoneViaReconstruction++
		return s.WriteIndexMeta(w.Group, w.Twin, invalid)
	}
	// fromCommitted restores the page to what the committed index gives it,
	// reporting false when that index cannot determine it.
	fromCommitted := func() (bool, error) {
		dOld, _, err := s.SolvePage(w.Group, w.Page, committed)
		if err != nil {
			return false, nil
		}
		if err := s.Arr.WriteData(w.Page, dOld, disk.Meta{}); err != nil {
			return false, fmt.Errorf("recovery: undo page %d from the committed index: %w", w.Page, err)
		}
		return true, undone()
	}
	switch {
	case s.PageUnavailable(w.Page):
		s.Twins.Promote(w.Group, committed)
		return undone()
	case !s.TwinReadable(w.Group, parity(committed)):
		if s.TwinReadable(w.Group, qpage(committed)) {
			// The committed P twin died with its disk, but its Q partner
			// survives and describes the same pre-transaction state:
			// D_old solves through the Q equation directly.  That needs
			// every other data page; a second loss in the group falls
			// through to the logged image or to loss.
			if ok, err := fromCommitted(); ok || err != nil {
				return err
			}
		}
		if hasLoggedImage(a, w.Txn, w.Page) {
			// The demotion's log append completed before the crash; the
			// logged-undo pass restores D_old, and its degraded write
			// re-establishes the surviving parity and launders this
			// twin's working state along the way.
			return nil
		}
		return loseGroup(s, w.Group, rep, w.Page)
	}
	// The dead member is a sibling data page; w.Page and both twins are
	// readable.
	_, m, err := s.Arr.ReadData(w.Page, nil)
	if err != nil {
		return fmt.Errorf("recovery: read tagged page %d: %w", w.Page, err)
	}
	if m.Txn == w.Txn && m.Timestamp != w.Timestamp {
		// Re-steal entanglement: the working twin describes a newer page
		// version than the platter, so the undo needs the committed index
		// — against two unknowns, the before-image and the dead sibling.
		// The committed P and Q together solve both; with single twin
		// parity it is one surviving equation and the group is lost.
		if ok, err := fromCommitted(); ok || err != nil {
			return err
		}
		return loseGroup(s, w.Group, rep, w.Page)
	}
	if err := s.CrashUndoWorkingTwin(w); err != nil {
		return err
	}
	rep.UndoneViaParity++
	return nil
}

// restoreFromIndex writes data page p back as redundancy index `from`
// describes it — whatever p's platter holds, and with every unreachable
// sibling solved alongside it (SolvePage) — under a cleared header: the
// undo of a steal from its committed index.
func restoreFromIndex(s *core.Store, g page.GroupID, p page.PageID, from int) error {
	dOld, _, err := s.SolvePage(g, p, from)
	if err != nil {
		return err
	}
	if err := s.Arr.WriteData(p, dOld, disk.Meta{}); err != nil {
		return fmt.Errorf("recovery: undo page %d from index %d: %w", p, from, err)
	}
	return nil
}

// undoDeadTwinLosers finds loser steals whose working twin sat on the
// dead disk, invisible to the twin header scan.  The steal's data write
// carries the writer's transaction tag (the TWIST chain), so scanning
// the surviving data pages of every group with an unreadable twin
// recovers exactly the set: an unresolved loser tag under a dead twin
// means the dead twin was the working one, hence the surviving twin is
// the committed one — it describes the group with the page at its
// before-image, which therefore reconstructs as D_old = P_cmt ⊕ (other
// data).  A tag whose before-image reached the log (the group was being
// demoted when the crash hit) is left to the logged-undo pass instead.
func undoDeadTwinLosers(s *core.Store, a *Analysis, handled map[page.GroupID]bool, rep *Report) error {
	if s.Twins == nil {
		return nil
	}
	for g := 0; g < s.Arr.NumGroups(); g++ {
		gid := page.GroupID(g)
		if handled[gid] {
			continue
		}
		dead := s.DeadTwin(gid, diskarray.P)
		if dead < 0 || s.TwinReadable(gid, parity(dead)) {
			continue
		}
		for _, p := range s.Arr.GroupPages(gid) {
			if s.PageUnavailable(p) {
				continue
			}
			_, m, err := s.Arr.ReadData(p, nil)
			if err != nil {
				return fmt.Errorf("recovery: tag scan of group %d: %w", g, err)
			}
			if !m.ChainSet || a.Outcomes[m.Txn] != OutcomeLoser {
				continue
			}
			if hasLoggedImage(a, m.Txn, p) {
				continue
			}
			// The surviving index is normally the other twin; when BOTH P
			// slots are down (double-degraded) the Q headers — mirrors of
			// their P partners — arbitrate which index is the committed
			// one: the one NOT carrying the loser's working state.
			undoFrom := 1 - dead
			if !s.TwinReadable(gid, parity(undoFrom)) {
				for t := 0; t < 2; t++ {
					if !s.TwinReadable(gid, qpage(t)) {
						continue
					}
					qm, qerr := s.Arr.ReadMeta(gid, qpage(t))
					if qerr == nil && !(qm.State == disk.StateWorking && qm.Txn == m.Txn) {
						undoFrom = t
						break
					}
				}
			}
			dOld, _, err := s.SolvePage(gid, p, undoFrom)
			if groupLostData(s, gid, p) {
				// The surviving index's P and Q solved the before-image AND
				// the dead sibling together — or could not, and both are
				// lost.  The platter is restored directly: the index's
				// equations already describe exactly the restored state, so
				// no recompute may touch them (a recompute would consult the
				// reset twin bitmap this early in recovery).
				if err != nil {
					if err := loseGroup(s, gid, rep, p); err != nil {
						return err
					}
					break
				}
				err = s.Arr.WriteData(p, dOld, disk.Meta{})
			} else if err == nil {
				err = s.WriteCommitted(p, dOld, nil)
			}
			if err != nil {
				return fmt.Errorf("recovery: tag undo of page %d: %w", p, err)
			}
			rep.UndoneViaReconstruction++
		}
	}
	return nil
}

// groupLostData reports whether group g has a data page other than p on
// a down disk.
func groupLostData(s *core.Store, g page.GroupID, p page.PageID) bool {
	for _, q := range s.Arr.GroupPages(g) {
		if q != p && s.PageUnavailable(q) {
			return true
		}
	}
	return false
}

// hasLoggedImage reports whether analysis found a logged before-image of
// page p for loser tx.  The eager demotion's log-first ordering
// guarantees one whenever a degraded group's no-log steal was demoted —
// even a demotion the crash itself interrupted.
func hasLoggedImage(a *Analysis, tx page.TxID, p page.PageID) bool {
	for _, r := range a.LoserImages[tx] {
		if r.Page == p {
			return true
		}
	}
	return false
}

// loseGroup abandons state the surviving redundancy can no longer
// determine: the listed readable pages are zeroed (cleared headers), the
// group's unreachable data pages are recorded as lost (they rebuild as
// whatever the recomputed redundancy implies — zero), and every
// *readable* redundancy page is rewritten consistent with the remaining
// data (the first reachable index committed with a fresh timestamp and
// promoted, the rest obsolete; a Q page mirrors its index's P header).
// The pages given up are appended to rep.LostPages — the explicit
// data-loss event a DBA answers with an archive restore, mirroring the
// RecoverMediaMulti contract for losses beyond redundancy.
func loseGroup(s *core.Store, g page.GroupID, rep *Report, zero ...page.PageID) error {
	lost := append([]page.PageID(nil), zero...)
	for _, p := range zero {
		if err := s.Arr.WriteData(p, make(page.Buf, s.Arr.PageSize()), disk.Meta{}); err != nil {
			return fmt.Errorf("recovery: zero lost page %d: %w", p, err)
		}
	}
	pages := s.Arr.GroupPages(g)
	// Positional: a lost member contributes zero to its coefficient.
	vals := make([]page.Buf, len(pages))
	for i, q := range pages {
		if s.PageUnavailable(q) {
			lost = append(lost, q)
			continue
		}
		b, _, err := s.Arr.ReadData(q, nil)
		if err != nil {
			return fmt.Errorf("recovery: read lost group %d page %d: %w", g, q, err)
		}
		vals[i] = b
	}
	first := true
	eqs := s.Arr.Equations()
	for twin := 0; twin < s.Arr.ParityPages(); twin++ {
		var readable [2]bool
		for _, eq := range eqs {
			readable[eq] = s.TwinReadable(g, eq.Twin(twin))
		}
		if !readable[diskarray.P] && !readable[diskarray.Q] {
			continue
		}
		meta := disk.Meta{State: disk.StateObsolete}
		if first {
			meta = disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
		}
		for i := len(eqs) - 1; i >= 0; i-- {
			if r := eqs[i].Twin(twin); readable[r.Eq] {
				if err := s.RewriteSlot(g, r, vals, meta); err != nil {
					return fmt.Errorf("recovery: reset lost group %d: %w", g, err)
				}
			}
		}
		if s.Twins != nil && first {
			s.Twins.Promote(g, twin)
		}
		first = false
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	rep.LostPages = append(rep.LostPages, lost...)
	return nil
}

// repairTorn scans every block for silent corruption — a torn write's
// checksum mismatch, a misdirected write's stamp mismatch, or a lost
// write's ledger mismatch — and rebuilds its payload from the group's
// redundancy, so every later pass can read every block.  A torn write IS
// the crash, so at most one block per restart is torn, but the scan
// handles any number (latent faults accumulate).  The scan's reads are
// charged, like every recovery pass.  On a degraded array the scan skips
// the dead disk's blocks; a corrupt block in a group that ALSO lost a
// member to the disk is repaired from what survives, or reported lost
// when the two together exceed the redundancy.
//
// Each finding records whether the block's own header is still
// trustworthy: a checksum failure damages only the payload (the header is
// out-of-band and the block's own), while a misdirected write deposits a
// foreign header and a lost write leaves a stale one — those repairs must
// resynthesize the header from the rest of the group.
//
// The scan — a charged read of every live block — is the expensive part
// and touches nothing shared, so it fans out across the store's Workers,
// each worker filling its own group's slot of the findings table.  The
// repairs themselves (at most one per restart in practice) then run
// sequentially in group order, because they mutate the shared Report and
// the twin bitmap.
func repairTorn(s *core.Store, a *Analysis, rep *Report) (int, error) {
	type torn struct {
		red      bool // a redundancy page (r), else a data page (p)
		r        diskarray.Red
		p        page.PageID
		headerOK bool // the block's own header survived the fault
	}
	found := make([][]torn, s.Arr.NumGroups())
	err := workpool.Run(s.Workers, s.Arr.NumGroups(), func(g int) error {
		gid := page.GroupID(g)
		for _, p := range s.Arr.GroupPages(gid) {
			if s.PageUnavailable(p) {
				continue
			}
			_, _, err := s.Arr.ReadData(p, nil)
			if err == nil {
				continue
			}
			if !disk.IsCorrupt(err) {
				return fmt.Errorf("recovery: torn scan page %d: %w", p, err)
			}
			found[g] = append(found[g], torn{p: p, headerOK: errors.Is(err, disk.ErrChecksum)})
		}
		// P twins, then Q twins: a Q page's repair reuses the group's P
		// partner as the authority, which the earlier items of the same
		// group restore.
		for _, eq := range s.Arr.Equations() {
			for twin := 0; twin < s.Arr.ParityPages(); twin++ {
				r := eq.Twin(twin)
				if !s.TwinReadable(gid, r) {
					continue
				}
				_, _, err := s.Arr.Read(gid, r, nil)
				if err == nil {
					continue
				}
				if !disk.IsCorrupt(err) {
					return fmt.Errorf("recovery: torn scan group %d %s twin %d: %w", g, eq, twin, err)
				}
				found[g] = append(found[g], torn{red: true, r: r, headerOK: errors.Is(err, disk.ErrChecksum)})
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	repaired := 0
	for g, items := range found {
		gid := page.GroupID(g)
		for _, it := range items {
			switch {
			case it.red && it.r.Eq == diskarray.Q:
				err = repairTornQ(s, gid, it.r.Twin)
			case it.red:
				err = repairTornParity(s, a, gid, it.r.Twin, it.headerOK, rep)
			default:
				err = repairTornData(s, a, gid, it.p, it.headerOK, rep)
			}
			if err != nil {
				return repaired, err
			}
			repaired++
		}
	}
	return repaired, nil
}

// repairTornQ rebuilds a corrupt Q page as the mirror of its P partner:
// the Q equation over the data state the partner describes, under the
// partner's header (the lockstep invariant).  When no authority can be
// established the Q page is zeroed invalid: honest erasure, never a
// silently wrong equation.
func repairTornQ(s *core.Store, g page.GroupID, twin int) error {
	vals, pm, err := describedByP(s, g, twin)
	if err != nil {
		zero := make(page.Buf, s.Arr.PageSize())
		if werr := s.Arr.Write(g, qpage(twin), zero, invalid); werr != nil {
			return fmt.Errorf("recovery: invalidate torn Q of group %d (%v): %w", g, err, werr)
		}
		return nil
	}
	if err := s.RewriteSlot(g, qpage(twin), vals, pm); err != nil {
		return fmt.Errorf("recovery: repair torn Q of group %d: %w", g, err)
	}
	return nil
}

// describedByP returns the data state S that the P page of redundancy
// index twin describes, with that page's header, for rebuilding the
// index's torn Q page.  The P page — alive (dead slots are excluded by the
// scan) and already repaired by the earlier items of the same group — is
// the authority.  S differs from the platter in at most one member: the
// page named by the P page's own header (a working steal or a flip
// pairing) or, when it names none and does not verify against the platter,
// by the other twin's unresolved working header (this index is then the
// committed partner of an in-flight steal); that member's value in S is
// whatever the P equation solves for it.  Fails when the P page is
// unreadable, the group has lost more than P alone can solve, or no header
// names the differing member.
func describedByP(s *core.Store, g page.GroupID, twin int) ([]page.Buf, disk.Meta, error) {
	if !s.TwinReadable(g, parity(twin)) {
		return nil, disk.Meta{}, errors.New("P partner unreadable")
	}
	pm, err := s.Arr.ReadMeta(g, parity(twin))
	if err != nil {
		return nil, pm, err
	}
	// The torn Q page itself is never an equation to solve with.
	qDisk := s.Arr.Loc(g, qpage(twin)).Disk
	solveNaming := func(named page.PageID) ([]page.Buf, disk.Meta, error) {
		if int(named) >= s.Arr.NumPages() || s.Arr.GroupOf(named) != g {
			return nil, pm, fmt.Errorf("header names page %d of another group", named)
		}
		vals, _, err := s.SolveGroup(g, twin, qDisk, s.Arr.DataLoc(named).Disk)
		return vals, pm, err
	}
	if pm.State == disk.StateWorking || pm.PairedSet {
		return solveNaming(pm.DirtyPage)
	}
	vals, _, err := s.SolveGroup(g, twin, qDisk)
	if err != nil {
		return nil, pm, err
	}
	if ok, err := s.Arr.Verify(g, parity(twin)); ok || err != nil {
		return vals, pm, err
	}
	if s.Twins != nil {
		if om, err := s.Arr.ReadMeta(g, parity(1-twin)); err == nil && om.State == disk.StateWorking {
			return solveNaming(om.DirtyPage)
		}
	}
	return nil, pm, errors.New("the P partner disagrees with the platter and no header names the member")
}

// repairTornData rebuilds a corrupt data page.
//
// If a loser's working twin covers the page, the fault interrupted a
// no-UNDO steal: the committed twin still describes the pre-transaction
// group, so the page is restored to its before-image with a cleared
// header (the parity-undo pass then merely invalidates the twin).
// Otherwise the fault hit a committed or logged write-back whose parity
// update preceded it, so the Figure 7 current twin describes the intended
// contents; the page is rebuilt from it under the header the torn write
// itself persisted — or, when the fault destroyed the header too
// (misdirected or lost write), under a resynthesized one: the flip
// pairing echo is restored when the describing parity names this page,
// and cleared otherwise.
func repairTornData(s *core.Store, a *Analysis, g page.GroupID, p page.PageID, headerOK bool, rep *Report) error {
	if s.GroupDegraded(g) {
		return repairTornDataDegraded(s, a, g, p, headerOK, rep)
	}
	if s.RDA() {
		for twin := 0; twin < 2; twin++ {
			m, err := s.Arr.ReadMeta(g, parity(twin))
			if err != nil {
				return err
			}
			if m.State != disk.StateWorking || m.DirtyPage != p || a.Committed(m.Txn) {
				continue
			}
			if err := restoreFromIndex(s, g, p, 1-twin); err != nil {
				return fmt.Errorf("recovery: repair torn page %d: %w", p, err)
			}
			return nil
		}
	}
	// Reconstruct from the twin that describes the on-disk data, which is
	// NOT always the Figure 7 winner: parity precedes data in both the
	// flip and steal protocols, so at crash time the newest twin may
	// describe a data write that never landed, and reconstructing an
	// innocent bystander from it would XOR the phantom delta into the
	// repaired page — silent corruption under a perfectly valid header.
	// DescribingTwin arbitrates via the pairing echo.
	twin, err := s.DescribingTwin(g, p, a.Committed)
	if err != nil {
		return fmt.Errorf("recovery: repair torn page %d: %w", p, err)
	}
	data, pm, err := s.SolvePage(g, p, twin)
	if err != nil {
		return fmt.Errorf("recovery: repair torn page %d: %w", p, err)
	}
	hdr, err := tornDataHeader(s, p, headerOK, pm)
	if err != nil {
		return err
	}
	if pm.State == disk.StateWorking && pm.DirtyPage == p && !headerOK {
		// Parity-as-redo from a steal twin whose acked data write was
		// lost: restore the steal's echo header.  Only a committed
		// writer's twin can be the reconstruction source here.
		hdr = disk.Meta{Txn: pm.Txn, Timestamp: pm.Timestamp, ChainSet: true}
	}
	if err := s.Arr.WriteData(p, data, hdr); err != nil {
		return fmt.Errorf("recovery: repair torn page %d: %w", p, err)
	}
	return nil
}

// tornDataHeader picks the header a repaired data page p goes back under:
// the one the torn write itself persisted, or — when the fault destroyed
// the header too (misdirected or lost write) — a resynthesized one: the
// flip pairing echo when the describing redundancy header pm names this
// page, and a cleared header otherwise.
func tornDataHeader(s *core.Store, p page.PageID, headerOK bool, pm disk.Meta) (disk.Meta, error) {
	if headerOK {
		loc := s.Arr.DataLoc(p)
		return s.Arr.Disk(loc.Disk).PeekMeta(loc.Block)
	}
	if pm.PairedSet && pm.DirtyPage == p {
		return disk.Meta{Timestamp: pm.Timestamp}, nil
	}
	return disk.Meta{}, nil
}

// repairTornDataDegraded repairs a corrupt data page in a group that also
// lost a block to the dead disk.  Only the cases where the surviving
// redundancy still pins the page down are repairable; anything else is
// explicit, reported loss via loseGroup.
func repairTornDataDegraded(s *core.Store, a *Analysis, g page.GroupID, p page.PageID, headerOK bool, rep *Report) error {
	dead := s.DeadTwin(g, diskarray.P)
	if dead < 0 || s.Twins == nil || !s.TwinReadable(g, parity(1-dead)) {
		// No alive parity twin to arbitrate from: the group lost a data
		// page or a Q slot (dead < 0), or — double-degraded — both P
		// slots.  On a single-parity array a tear plus a dead member is
		// two unknowns against at most one surviving equation; with Q
		// redundancy the group may still be fully determined.
		if s.Arr.HasQ() && s.Twins != nil {
			done, err := repairTornDataViaSolve(s, a, g, p, headerOK)
			if done || err != nil {
				return err
			}
		}
		return loseGroup(s, g, rep, p)
	}
	alive := 1 - dead
	m, err := s.Arr.ReadMeta(g, parity(alive))
	if err != nil {
		return fmt.Errorf("recovery: repair torn page %d: %w", p, err)
	}
	if m.State == disk.StateWorking && !a.Committed(m.Txn) && m.DirtyPage == p {
		// The tear interrupted a no-log steal whose committed twin died
		// with the disk: D_old survives on the log (if the eager demotion
		// got there before the crash) or in the dead index's Q partner.
		if hasLoggedImage(a, m.Txn, p) {
			// Zero placeholder; the logged-undo pass restores D_old and
			// its degraded write re-establishes the surviving parity.
			if err := s.Arr.WriteData(p, make(page.Buf, s.Arr.PageSize()), disk.Meta{}); err != nil {
				return fmt.Errorf("recovery: repair torn page %d: %w", p, err)
			}
			return nil
		}
		if s.TwinReadable(g, qpage(dead)) {
			// The dead committed twin's Q partner still describes the
			// pre-steal group: undo the steal directly from it.
			if dOld, _, rerr := s.SolvePage(g, p, dead); rerr == nil {
				if err := s.Arr.WriteData(p, dOld, disk.Meta{}); err != nil {
					return fmt.Errorf("recovery: repair torn page %d: %w", p, err)
				}
				return s.WriteIndexMeta(g, alive, invalid)
			}
		}
		return loseGroup(s, g, rep, p)
	}
	if m.State == disk.StateCommitted || (m.State == disk.StateWorking && a.Committed(m.Txn)) {
		// The surviving twin describes the on-disk group — unless some
		// *other* page carries an unresolved no-log steal whose D_new
		// the twin does not yet include; that combination leaves the
		// torn page undetermined.
		for _, q := range s.Arr.GroupPages(g) {
			if q == p {
				continue
			}
			_, qm, err := s.Arr.ReadData(q, nil)
			if err != nil {
				if disk.IsCorrupt(err) {
					continue // a second corrupt block; reconstruction below fails loudly
				}
				return fmt.Errorf("recovery: repair torn page %d: %w", p, err)
			}
			if qm.ChainSet && a.Outcomes[qm.Txn] == OutcomeLoser && !hasLoggedImage(a, qm.Txn, q) && m.State == disk.StateCommitted {
				return loseGroup(s, g, rep, p)
			}
		}
		data, _, err := s.SolvePage(g, p, alive)
		if err != nil {
			return fmt.Errorf("recovery: repair torn page %d: %w", p, err)
		}
		hdr, err := tornDataHeader(s, p, headerOK, m)
		if err != nil {
			return err
		}
		if err := s.Arr.WriteData(p, data, hdr); err != nil {
			return fmt.Errorf("recovery: repair torn page %d: %w", p, err)
		}
		return nil
	}
	// Obsolete or invalid survivor: the only twin describing the group
	// died with the disk.
	return loseGroup(s, g, rep, p)
}

// repairTornDataViaSolve repairs a torn data page in a degraded group by
// solving the group through a describing index's surviving P/Q
// equations.  The describing index is picked from the readable headers —
// alive P slots first, Q mirrors as proxies for dead ones — by the
// Figure 7 rule: newest committed index, a working index whose writer
// committed counting as laundered-committed.  Unresolved no-log steals
// are declined (their before-images belong to the undo machinery, not a
// blanket solve) and fall back to the caller's explicit loss path, as
// does a group with fewer surviving equations than erasures.  Returns
// done=false when the caller must fall back.
func repairTornDataViaSolve(s *core.Store, a *Analysis, g page.GroupID, p page.PageID, headerOK bool) (bool, error) {
	var metas [2]disk.Meta
	var have [2]bool
	for t := 0; t < 2; t++ {
		for _, eq := range s.Arr.Equations() {
			r := eq.Twin(t)
			if !s.TwinReadable(g, r) {
				continue
			}
			if m, err := s.Arr.ReadMeta(g, r); err == nil {
				metas[t], have[t] = m, true
				break
			}
		}
	}
	idx := -1
	var best disk.Meta
	for t := 0; t < 2; t++ {
		if !have[t] {
			continue
		}
		m := metas[t]
		if m.State == disk.StateWorking {
			if !a.Committed(m.Txn) {
				return false, nil
			}
			m.State = disk.StateCommitted
		}
		if m.State != disk.StateCommitted {
			continue
		}
		if idx < 0 || m.Timestamp > best.Timestamp {
			idx, best = t, m
		}
	}
	if idx < 0 {
		return false, nil
	}
	// A member tag of an unresolved no-log steal means the committed
	// index predates the steal's data write: the solved value for the
	// stolen page would be stale.  Decline, like the plain degraded path.
	for _, q := range s.Arr.GroupPages(g) {
		if q == p || s.PageUnavailable(q) {
			continue
		}
		_, qm, err := s.Arr.ReadData(q, nil)
		if err != nil {
			if disk.IsCorrupt(err) {
				continue // another erasure; SolveGroup accounts for it
			}
			return false, fmt.Errorf("recovery: repair torn page %d: %w", p, err)
		}
		if qm.ChainSet && a.Outcomes[qm.Txn] == OutcomeLoser && !hasLoggedImage(a, qm.Txn, q) {
			return false, nil
		}
	}
	data, _, err := s.SolvePage(g, p, idx)
	if err != nil {
		if errors.Is(err, core.ErrUnrecoverableCorruption) {
			return false, nil
		}
		return false, err
	}
	hdr, err := tornDataHeader(s, p, headerOK, best)
	if err != nil {
		return false, err
	}
	if err := s.Arr.WriteData(p, data, hdr); err != nil {
		return false, fmt.Errorf("recovery: repair torn page %d: %w", p, err)
	}
	return true, nil
}

// repairTornParity rebuilds a corrupt parity twin.
//
// A torn twin in the working state whose writer lost means the tear
// interrupted the steal's parity write itself.  If the covered data page
// already carries the writer's tag the tear hit a re-steal, so the page
// is first restored from the committed twin; either way the torn twin is
// rewritten as invalid with a zero payload.  Any other header — committed,
// obsolete, or a stale working header whose writer committed — belongs to
// an in-place read-modify-write that ran ahead of its data write: the
// payload is recomputed from the on-disk data under the persisted header.
//
// A twin whose header did NOT survive the fault (misdirected or lost
// write) cannot make those decisions from its own header; see
// repairHeaderlessParity.
func repairTornParity(s *core.Store, a *Analysis, g page.GroupID, twin int, headerOK bool, rep *Report) error {
	if s.GroupDegraded(g) {
		return repairTornParityDegraded(s, a, g, twin, headerOK, rep)
	}
	if !headerOK {
		return repairHeaderlessParity(s, a, g, twin, rep)
	}
	hdr, err := s.Arr.PeekMeta(g, parity(twin))
	if err != nil {
		return err
	}
	if hdr.State == disk.StateWorking && !a.Committed(hdr.Txn) {
		p := hdr.DirtyPage
		_, dMeta, err := s.Arr.ReadData(p, nil)
		if err != nil {
			return fmt.Errorf("recovery: repair torn twin of group %d: %w", g, err)
		}
		if dMeta.Txn == hdr.Txn {
			if err := restoreFromIndex(s, g, p, 1-twin); err != nil {
				return fmt.Errorf("recovery: repair torn twin of group %d: %w", g, err)
			}
		}
		return zeroInvalid(s, g, twin)
	}
	if err := s.RecomputeIndex(g, twin, hdr); err != nil {
		return fmt.Errorf("recovery: repair torn twin of group %d: %w", g, err)
	}
	return nil
}

// zeroInvalid retires a torn parity twin whose payload nothing describes:
// the P page is rewritten zeroed and invalid, and the index invalidated
// on its reachable slots.
func zeroInvalid(s *core.Store, g page.GroupID, twin int) error {
	zero := make(page.Buf, s.Arr.PageSize())
	if err := s.Arr.Write(g, parity(twin), zero, invalid); err != nil {
		return fmt.Errorf("recovery: zero torn twin %d of group %d: %w", twin, g, err)
	}
	return s.WriteIndexMeta(g, twin, invalid)
}

// repairHeaderlessParity rebuilds a parity twin whose header cannot be
// trusted — a misdirected write deposited a foreign one, or a lost write
// left a stale one.  The decision the header would have made is
// reconstructed from the rest of the group:
//
//   - the OTHER twin holds a loser's working header: this twin was the
//     committed pre-steal parity, the only carrier of D_old.  If the
//     steal was also logged the log determines D_old — demote the steal
//     (invalidate the working twin) and recompute this twin over the
//     on-disk data; otherwise the before-image is genuinely gone and the
//     group is abandoned to explicit, reported loss;
//   - a member page carries an unresolved loser tag: the steal's parity
//     write is ordered before its data write, so a landed tag under a
//     corrupt twin means THIS twin was the loser's working parity.  The
//     page restores from the other (committed) twin and this twin is
//     invalidated;
//   - otherwise the on-disk data is authoritative: the twin recomputes
//     as fresh committed parity (the Figure 7 rebuild then orders it).
func repairHeaderlessParity(s *core.Store, a *Analysis, g page.GroupID, twin int, rep *Report) error {
	if s.Twins != nil {
		om, err := s.Arr.ReadMeta(g, parity(1-twin))
		if err != nil {
			return fmt.Errorf("recovery: repair corrupt twin of group %d: %w", g, err)
		}
		if om.State == disk.StateWorking && !a.Committed(om.Txn) {
			if hasLoggedImage(a, om.Txn, om.DirtyPage) {
				meta := disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
				if err := s.RecomputeIndex(g, twin, meta); err != nil {
					return fmt.Errorf("recovery: repair corrupt twin of group %d: %w", g, err)
				}
				return s.WriteIndexMeta(g, 1-twin, invalid)
			}
			return loseGroup(s, g, rep, om.DirtyPage)
		}
		for _, q := range s.Arr.GroupPages(g) {
			_, qm, err := s.Arr.ReadData(q, nil)
			if err != nil {
				if disk.IsCorrupt(err) {
					continue // a second corrupt block; reconstruction fails loudly
				}
				return fmt.Errorf("recovery: repair corrupt twin of group %d: %w", g, err)
			}
			if !qm.ChainSet || a.Outcomes[qm.Txn] != OutcomeLoser || hasLoggedImage(a, qm.Txn, q) {
				continue
			}
			if err := restoreFromIndex(s, g, q, 1-twin); err != nil {
				return fmt.Errorf("recovery: repair corrupt twin of group %d: %w", g, err)
			}
			return zeroInvalid(s, g, twin)
		}
	}
	meta := disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
	if err := s.RecomputeIndex(g, twin, meta); err != nil {
		return fmt.Errorf("recovery: repair corrupt twin of group %d: %w", g, err)
	}
	return nil
}

// repairTornParityDegraded repairs a torn parity twin in a group that
// also lost a block to the dead disk.
//
// If the dead block is the OTHER twin, every data page survives and the
// torn twin recomputes wholesale — after first unwinding (or declaring
// lost) any no-log steal whose working header the torn twin carries,
// since its D_old lives beyond the surviving redundancy unless demotion
// logged it.  If the dead block is a data page, recomputing the torn
// payload would need the dead page: the torn twin is invalidated when
// the other twin describes the on-disk group, and the group is declared
// lost when the torn twin was the only describing one.
func repairTornParityDegraded(s *core.Store, a *Analysis, g page.GroupID, twin int, headerOK bool, rep *Report) error {
	hdr, err := s.Arr.PeekMeta(g, parity(twin))
	if err != nil {
		return err
	}
	if !headerOK {
		// The persisted header is foreign or stale (misdirected/lost
		// write): treat it as carrying no information.  Loser steals are
		// instead detected by their data tags below; the zero-value header
		// never matches the working-loser or otherDescribes tests.
		hdr = disk.Meta{State: disk.StateInvalid}
	}
	dead := s.DeadTwin(g, diskarray.P)
	if dead >= 0 && s.Twins != nil {
		if !headerOK {
			// Whichever twin was the loser's working parity, the committed
			// one is corrupt or dead: an unresolved loser tag means D_old
			// is beyond the surviving redundancy.
			for _, q := range s.Arr.GroupPages(g) {
				_, qm, err := s.Arr.ReadData(q, nil)
				if err != nil {
					if disk.IsCorrupt(err) {
						continue // a second corrupt block; recompute below fails loudly
					}
					return fmt.Errorf("recovery: repair corrupt twin of group %d: %w", g, err)
				}
				if !qm.ChainSet || a.Outcomes[qm.Txn] != OutcomeLoser || hasLoggedImage(a, qm.Txn, q) {
					continue
				}
				return loseGroup(s, g, rep, q)
			}
		}
		if hdr.State == disk.StateWorking && !a.Committed(hdr.Txn) {
			p := hdr.DirtyPage
			_, dMeta, err := s.Arr.ReadData(p, nil)
			if err != nil {
				return fmt.Errorf("recovery: repair torn twin of group %d: %w", g, err)
			}
			if dMeta.Txn == hdr.Txn && !hasLoggedImage(a, hdr.Txn, p) {
				// The steal's data write landed, its committed twin died
				// with the disk, and no demotion logged D_old.  The dead
				// index's Q partner, if it survives, still describes the
				// pre-steal group: restore D_old from it and recompute
				// the torn twin over the restored data below.  Otherwise
				// the before-image is gone; loseGroup also heals the
				// tear (it rewrites every readable twin).
				undone := false
				if s.TwinReadable(g, qpage(dead)) {
					if dOld, _, rerr := s.SolvePage(g, p, dead); rerr == nil {
						if werr := s.Arr.WriteData(p, dOld, disk.Meta{}); werr != nil {
							return fmt.Errorf("recovery: repair torn twin of group %d: %w", g, werr)
						}
						undone = true
					}
				}
				if !undone {
					return loseGroup(s, g, rep, p)
				}
			}
			// Untagged (the data write never landed) or rewound later
			// from the log: the on-disk data is (or will be made)
			// consistent, so recompute over it below.
		}
		meta := disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
		if err := s.RecomputeIndex(g, twin, meta); err != nil {
			return fmt.Errorf("recovery: repair torn twin of group %d: %w", g, err)
		}
		s.Twins.Promote(g, twin)
		return nil
	}
	if s.Twins == nil {
		// Single-parity group with a dead data page and a torn parity
		// block: one equation, two unknowns.
		return loseGroup(s, g, rep)
	}
	// A data page is dead and this twin is torn.  If the other twin
	// describes the on-disk group (Figure 7 says it is current), the torn
	// one was redundant: invalidate it.  Otherwise the dead page's value
	// survived only in the torn payload.
	other := 1 - twin
	om, err := s.Arr.ReadMeta(g, parity(other))
	if err != nil {
		return fmt.Errorf("recovery: repair torn twin of group %d: %w", g, err)
	}
	otherDescribes := om.State == disk.StateCommitted &&
		(hdr.State != disk.StateCommitted || om.Timestamp > hdr.Timestamp ||
			(om.Timestamp == hdr.Timestamp && other < twin))
	if otherDescribes {
		if err := zeroInvalid(s, g, twin); err != nil {
			return err
		}
		s.Twins.Promote(g, other)
		return nil
	}
	if s.TwinReadable(g, qpage(twin)) {
		// The torn twin describes the group and its Q partner survives:
		// the dead data page solves from the Q equation, and the torn P
		// payload recomputes from the solved values.  The header comes
		// from the torn block itself when it survived the fault, else
		// from the Q mirror; anything but a committed one (an in-flight
		// steal caught by the tear) is left to explicit loss.
		meta := hdr
		if !headerOK {
			if qm, qerr := s.Arr.ReadMeta(g, qpage(twin)); qerr == nil {
				meta = qm
			}
		}
		if meta.State == disk.StateCommitted {
			if vals, _, serr := s.SolveGroup(g, twin); serr == nil {
				if err := s.RewriteSlot(g, parity(twin), vals, meta); err != nil {
					return fmt.Errorf("recovery: repair torn twin of group %d: %w", g, err)
				}
				s.Twins.Promote(g, twin)
				return nil
			}
		}
	}
	return loseGroup(s, g, rep)
}

// applyImage writes a logged page or record image back to the database.
// committedWrite selects the committed write path (REDO) versus the
// logged-undo path.
func applyImage(s *core.Store, r wal.Record, committedWrite bool) error {
	var data page.Buf
	if r.Slot == wal.NoSlot {
		data = page.Buf(r.Image).Clone()
		if len(data) != s.Arr.PageSize() {
			return fmt.Errorf("recovery: page image of %d bytes for %d-byte pages", len(data), s.Arr.PageSize())
		}
	} else {
		img, err := record.DecodeImage(r.Image)
		if err != nil {
			return err
		}
		cur, err := s.ReadPage(r.Page, nil)
		if err != nil {
			return err
		}
		view, err := record.View(cur)
		if err != nil {
			return fmt.Errorf("recovery: page %d: %w", r.Page, err)
		}
		if err := view.Apply(int(r.Slot), img); err != nil {
			return err
		}
		data = cur
	}
	if committedWrite {
		return s.WriteCommitted(r.Page, data, nil)
	}
	return s.WriteLogged(r.Page, data, nil)
}

// BeforeImageFunc supplies the in-memory before-image of the page that
// dirtied a group, for the media-recovery case where the group's
// committed parity twin is lost while the owning transaction is still
// active.  Returning nil means the image is unavailable.
type BeforeImageFunc func(g page.GroupID, e dirtyset.Entry) page.Buf

// RecoverMedia replaces failed disk d and reconstructs every lost block.
// The store's volatile state (Dirty_Set, bitmap) must be intact — media
// recovery is an online operation, unlike crash recovery.
func RecoverMedia(s *core.Store, d int, before BeforeImageFunc) error {
	lost, err := RecoverMediaMulti(s, []int{d}, before)
	if err != nil {
		return err
	}
	if len(lost) > 0 {
		// A single-disk failure never exceeds single-failure redundancy.
		return fmt.Errorf("recovery: single-disk rebuild reported lost groups %v", lost)
	}
	return nil
}

// RecoverMediaMulti replaces several simultaneously failed disks and
// reconstructs every lost block, exploiting the extra redundancy of twin
// parity where it helps.  A group that lost one block recovers as usual.
// A group that lost two blocks recovers when the survivors determine its
// state:
//
//   - both parity twins lost — recomputed from the data pages (the
//     committed twin of a dirty group additionally needs the dirty
//     page's retained before-image);
//   - a data page plus the twin that does NOT describe the on-disk data
//     (the obsolete twin of a clean group; the committed twin of a dirty
//     group, via the before-image) — the data page rebuilds from the
//     surviving twin, then the lost twin is recomputed.
//
// Combinations that genuinely exceed the redundancy (two data pages; a
// data page plus the only twin describing the on-disk state) cannot be
// rebuilt: those groups' lost data pages stay zeroed, their parity is
// recomputed so the array is internally consistent again, and the group
// is reported in the returned slice — the data-loss event a DBA would
// answer with an archive restore.  With a single failed disk the slice
// is always empty.
func RecoverMediaMulti(s *core.Store, ds []int, before BeforeImageFunc) ([]page.GroupID, error) {
	for _, d := range ds {
		if err := s.Arr.RepairDisk(d); err != nil {
			return nil, err
		}
	}
	var lost []page.GroupID
	for g := 0; g < s.Arr.NumGroups(); g++ {
		gid := page.GroupID(g)
		ok, err := RebuildGroup(s, gid, ds, before)
		if err != nil {
			return lost, err
		}
		if !ok {
			lost = append(lost, gid)
			if err := resetLostGroupParity(s, gid); err != nil {
				return lost, err
			}
		}
	}
	return lost, nil
}

// resetLostGroupParity recomputes a data-loss group's parity over its
// (partially zeroed) data so that subsequent operation and verification
// see a consistent, if lossy, group.
func resetLostGroupParity(s *core.Store, g page.GroupID) error {
	eqs := s.Arr.Equations()
	for twin := 0; twin < s.Arr.ParityPages(); twin++ {
		meta := disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
		if twin != 0 {
			meta = disk.Meta{State: disk.StateObsolete}
		}
		// Unconditional writes: media recovery has already swapped the
		// dead drives in, even though the store may still flag them down.
		for i := len(eqs) - 1; i >= 0; i-- {
			if err := s.Arr.Recompute(g, eqs[i].Twin(twin), meta); err != nil {
				return fmt.Errorf("recovery: reset lost group %d: %w", g, err)
			}
		}
	}
	if s.Twins != nil {
		s.Twins.Promote(g, 0)
	}
	if s.Dirty != nil {
		s.Dirty.Clean(g)
	}
	return nil
}

// RebuildGroup reconstructs the blocks of group g that lived on the given
// drives, already replaced by fresh ones — the unit of work of media
// recovery and of the online rebuild alike.  It returns false when the
// loss exceeds the group's redundancy.
//
// Lost data pages come first, solved through the index that tracks the
// on-disk data (core.SolveGroup: one page from P or, when P is lost too,
// from its Q partner; two pages from both).  Then every lost redundancy
// page is recomputed over the whole data (rebuildSlot).  A group with no
// block on the drives costs no I/O.
func RebuildGroup(s *core.Store, g page.GroupID, drives []int, before BeforeImageFunc) (bool, error) {
	onDrives := func(d int) bool {
		for _, x := range drives {
			if x == d {
				return true
			}
		}
		return false
	}
	pages := s.Arr.GroupPages(g)
	var lostData []int // indexes into pages
	for i, p := range pages {
		if onDrives(s.Arr.DataLoc(p).Disk) {
			lostData = append(lostData, i)
		}
	}
	var e dirtyset.Entry
	dirty := false
	if s.Dirty != nil {
		e, dirty = s.Dirty.Lookup(g)
	}
	// The index that tracks the *on-disk* data is the working twin of a
	// dirty group, the current twin otherwise.
	onDiskTwin := 0
	if s.Twins != nil {
		onDiskTwin = s.Twins.Current(g)
		if dirty {
			onDiskTwin = e.WorkingTwin
		}
	}
	if len(lostData) > 0 {
		vals, _, err := s.SolveGroup(g, onDiskTwin, drives...)
		if errors.Is(err, core.ErrUnrecoverableCorruption) && dirty && len(lostData) == 1 && pages[lostData[0]] != e.Page {
			// The on-disk-view index is gone, but the committed twin plus
			// the dirty page's before-image still determine the page.
			vals, err = solveFromCommitted(s, g, e, lostData[0], drives, before)
		}
		if errors.Is(err, core.ErrUnrecoverableCorruption) {
			// The lost pages' covering redundancy is gone too.
			return false, nil
		}
		if err != nil {
			return false, fmt.Errorf("recovery: media rebuild group %d: %w", g, err)
		}
		for _, i := range lostData {
			meta := disk.Meta{}
			if dirty && pages[i] == e.Page {
				// Restore the crash-undo tag on the dirty page.
				meta.Txn = e.Txn
			}
			if err := s.Arr.WriteData(pages[i], vals[i], meta); err != nil {
				return false, fmt.Errorf("recovery: media rebuild page %d: %w", pages[i], err)
			}
		}
	}
	// With the data whole again, recompute every lost redundancy page: P
	// twins first, then the Q pages, which mirror their (now whole) P
	// partners.  For a dirty group the working twin goes first: the
	// committed twin's rebuild reads the working twin's timestamp to order
	// below it (Figure 7).
	for _, eq := range s.Arr.Equations() {
		for i := 0; i < s.Arr.ParityPages(); i++ {
			r := eq.Twin(i)
			if dirty && s.Twins != nil {
				r.Twin = e.WorkingTwin ^ i
			}
			if !onDrives(s.Arr.Loc(g, r).Disk) {
				continue
			}
			if err := rebuildSlot(s, g, r, dirty, e, before); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

// solveFromCommitted solves a dirty group's one lost bystander page
// (pages[lost]) through the committed twin's P equation, which describes
// the group with the dirty page at its retained before-image: the value P
// solves against the platter is off by exactly the dirty page's delta,
// D_new ⊕ D_old, which is folded back out.
func solveFromCommitted(s *core.Store, g page.GroupID, e dirtyset.Entry, lost int, drives []int, before BeforeImageFunc) ([]page.Buf, error) {
	var img page.Buf
	if before != nil {
		img = before(g, e)
	}
	if img == nil {
		return nil, fmt.Errorf("the dirty page's before-image is unavailable: %w", core.ErrUnrecoverableCorruption)
	}
	committed := 1 - e.WorkingTwin
	// The delta algebra is P's; keep the solve off the Q equation.
	erased := drives
	if s.Arr.HasQ() {
		erased = append(append([]int(nil), drives...), s.Arr.Loc(g, qpage(committed)).Disk)
	}
	vals, _, err := s.SolveGroup(g, committed, erased...)
	if err != nil {
		return nil, err
	}
	for i, p := range s.Arr.GroupPages(g) {
		if p == e.Page {
			diskarray.P.SmallWrite(vals[lost], vals[i], img, 0)
		}
	}
	return vals, nil
}

// rebuildSlot recomputes one lost redundancy page of group g after the
// group's data is whole again.  A page of the committed index of a dirty
// group describes the before-image state, so it is computed with the
// dirty page's retained before-image in place of its on-disk contents.
//
// The header: a Q page mirrors its (now whole) P partner — the lockstep
// invariant.  A P twin is committed under a fresh timestamp when it is
// current (or the array's only one), obsolete when it held history, and
// working with the dirty entry's tag when it is a dirty group's working
// twin; a dirty group's committed twin keeps the Figure 7 ordering by
// taking the timestamp just BELOW the surviving working twin's.
func rebuildSlot(s *core.Store, g page.GroupID, r diskarray.Red, dirty bool, e dirtyset.Entry, before BeforeImageFunc) error {
	vals, err := s.Arr.ReadGroup(g)
	if err != nil {
		return fmt.Errorf("recovery: media rebuild %s twin %d of group %d: %w", r.Eq, r.Twin, g, err)
	}
	committedOfDirty := dirty && s.Twins != nil && r.Twin != e.WorkingTwin
	if committedOfDirty {
		var img page.Buf
		if before != nil {
			img = before(g, e)
		}
		if img == nil {
			return fmt.Errorf("recovery: group %d: committed %s twin lost while dirty and no before-image available", g, r.Eq)
		}
		for i, p := range s.Arr.GroupPages(g) {
			if p == e.Page {
				vals[i] = img
			}
		}
	}
	var meta disk.Meta
	switch {
	case r.Eq == diskarray.Q:
		if meta, err = s.Arr.ReadMeta(g, parity(r.Twin)); err != nil {
			return fmt.Errorf("recovery: media rebuild Q of group %d: %w", g, err)
		}
	case committedOfDirty:
		wMeta, err := s.Arr.ReadMeta(g, parity(e.WorkingTwin))
		if err != nil {
			return err
		}
		meta = disk.Meta{State: disk.StateCommitted, Timestamp: wMeta.Timestamp}
		if meta.Timestamp > 0 {
			meta.Timestamp--
		}
	case dirty && s.Twins != nil:
		// The working twin is by definition the parity of the on-disk
		// data of a dirty group.
		meta = disk.Meta{State: disk.StateWorking, Timestamp: s.TM.NextTimestamp(), Txn: e.Txn, DirtyPage: e.Page}
	case s.Twins != nil && r.Twin != s.Twins.Current(g):
		meta = disk.Meta{State: disk.StateObsolete}
	default:
		meta = disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
	}
	return s.RewriteSlot(g, r, vals, meta)
}
