// Package recovery implements the restart (system crash) and media
// (disk failure) recovery drivers over the core store.
//
// # Crash recovery (Section 4.3)
//
// After a crash all main-memory state is gone: the buffer, the lock
// table, the Dirty_Set and the current-parity bitmap.  Restart
// (CrashRecover) runs these passes in this order, each idempotent so that
// a crash during recovery simply restarts it; the lettered and halved ones run
// only when there is something for them to find:
//
//   - 1. Analysis — one charged scan of the log determines every
//     transaction's outcome.  Losers are transactions with a BOT but
//     neither EOT nor abort record.
//   - 2. Group walk — every parity group is visited once (core.WalkGroups),
//     core.Store.Lanes groups at a time, and its twin parity headers read —
//     the scan the paper rebuilds the current-parity bitmap with — into a
//     table every pass up to 3.5 answers from.  After a mid-I/O crash the
//     visit reads every live block verified instead: the same headers, the
//     blocks that fail, and whether the group's parity holds.
//   - 2b. Torn repair (mid-I/O crash only) — a block that failed is one
//     more erasure beside the group's dead ones, rebuilt by the decision
//     function of its kind (repairTornData, repairTornParity, repairTornQ),
//     so that every later pass can read every block.
//   - 2c. Parity undo — for every group whose working twin belongs to a
//     loser the covered data page is restored as D_old = (P ⊕ P′) ⊕ D_new
//     and the twin invalidated.  With an input of that identity gone the
//     undo takes one ladder (undoSteal): D_old solved through the committed
//     index, else the logged before-image left to pass 4, else explicit loss.
//   - 2d. Tag undo (disk down only) — a loser's working twin on the dead
//     disk is invisible to the walk; its steal is found by the writer's tag
//     on the data page (unresolvedSteal) and takes the same ladder.
//   - 3. Bitmap rebuild — Current_Parity (Figure 7) with log outcomes over
//     the table: a loser's working header is invalid to it before the undo
//     as its invalid rewrite is after.  Only a group that 2b–2d rewrote, or
//     that lost a block, is read from the platter again.  Twins left working
//     by transactions that committed are then laundered to the committed
//     state on disk, Lanes at a time.
//   - 3.5 Parity resync (mid-I/O crash only) — the current parity of every
//     group the walk did not find in order, or rewritten since, is made to
//     satisfy its equations again, closing the window where an in-place
//     parity write ran ahead of its data write.
//   - 4. Logged undo — losers' logged before-images (pages or records) are
//     applied newest first, each through the applier pass 6 uses: a page
//     the platter already shows as it was is not rewritten.
//   - 5. Abort records are appended for every loser.
//   - 6. REDO (¬FORCE algorithms) — each page touched by a winner's
//     post-checkpoint image is read once, its images applied in LSN order,
//     and written through the committed path only if it changed.
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
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

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
	// last checkpoint, in log order; pass 6 reorders them by (page, LSN).
	RedoImages []wal.Record
	// Records is the total number of log records scanned.
	Records int
	// mustWrite holds the pages whose logged undo is written even if already
	// in place: undoSteal's rung 2 left a working twin for that write to retire.
	mustWrite map[page.PageID]bool
}

// Committed returns an outcome predicate suitable for
// core.Store.WalkGroups.
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

// Analyze performs the (charged) analysis scan.  It keeps the outcomes and
// the only records a later pass reads — before-images and the after-images
// past the latest checkpoint seen — to classify once the outcomes are known.
func Analyze(log *wal.Log) (*Analysis, error) {
	a := &Analysis{
		Outcomes:    make(map[page.TxID]Outcome),
		LoserImages: make(map[page.TxID][]wal.Record),
		mustWrite:   make(map[page.PageID]bool),
	}
	var before []wal.Record
	var last wal.LSN
	if err := log.Scan(1, func(r wal.Record) bool {
		a.Records++
		last = r.LSN
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
			a.RedoImages = a.RedoImages[:0]
		case wal.TypeBeforeImage:
			before = append(before, r)
		case wal.TypeAfterImage:
			a.RedoImages = append(a.RedoImages, r)
		}
		return true
	}); err != nil {
		return nil, fmt.Errorf("recovery: analysis scan: %w", err)
	}
	log.ChargeScan(1, last) // charges nothing for an empty log
	for tx, o := range a.Outcomes {
		if o == OutcomeLoser {
			a.Losers = append(a.Losers, tx)
		}
	}
	slices.Sort(a.Losers)
	for _, r := range before {
		if a.Outcomes[r.Txn] == OutcomeLoser {
			a.LoserImages[r.Txn] = append(a.LoserImages[r.Txn], r)
		}
	}
	a.RedoImages = slices.DeleteFunc(a.RedoImages, func(r wal.Record) bool {
		return a.Outcomes[r.Txn] != OutcomeCommitted
	})
	return a, nil
}

// Report summarizes a completed restart.
type Report struct {
	Losers          []page.TxID
	UndoneViaParity int // data pages restored from twin parity
	UndoneViaLog    int // before-images written back
	Redone          int // after-images replayed
	RedonePages     int // distinct pages REDO read
	RedoneWrites    int // of those, pages it had to write
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
	// Passes lists the passes that ran, in order.
	Passes []Pass
}

// Pass is one restart pass as it ran: its array transfers (the log's are
// the log's own) and its wall-clock time.
type Pass struct {
	Name      string
	Transfers int64
	Duration  time.Duration
}

// CrashRecover runs the full restart sequence described in the package
// comment.  redo selects whether the REDO pass runs (¬FORCE algorithms);
// FORCE algorithms have nothing to redo.
//
// hard marks a restart after a mid-I/O crash (the fault plane's crash
// points, as opposed to db.Crash()'s quiescent loss of volatile state): the
// walk then reads whole blocks, and torn repair and parity resync run.
// Quiescent restarts need none of it, and their transfer counts match the
// paper's cost model.
func CrashRecover(s *core.Store, redo, hard bool) (*Report, error) {
	rep := &Report{}
	at, n := time.Now(), s.Arr.Stats().Transfers()
	done := func(pass string) { // everything since the previous call
		now, m := time.Now(), s.Arr.Stats().Transfers()
		rep.Passes = append(rep.Passes, Pass{Name: pass, Transfers: m - n, Duration: now.Sub(at)})
		at, n = now, m
	}
	a, err := Analyze(s.Log)
	if err != nil {
		return nil, err
	}
	rep.Losers = a.Losers
	done("analyze")

	// Pass 2: the group walk; 2b: the repair of the torn blocks it found.
	walk, err := s.WalkGroups(a.Committed, hard)
	if err != nil {
		return nil, err
	}
	done("walk")
	if hard {
		if rep.RepairedTorn, err = repairTorn(s, a, walk, rep); err != nil {
			return nil, err
		}
		done("torn repair")
	}

	// Pass 2c: parity undo of the losers among the working twins the walk
	// found (with a member down, among the surviving ones).
	working, err := walk.Working()
	if err != nil {
		return nil, err
	}
	handled := make(map[page.GroupID]bool)
	for _, w := range working {
		if a.Outcomes[w.Txn] != OutcomeLoser {
			continue
		}
		handled[w.Group] = true
		walk.Touch(w.Group)
		if err := crashUndoWorking(s, a, w, rep); err != nil {
			return nil, fmt.Errorf("recovery: parity undo of group %d: %w", w.Group, err)
		}
	}
	// Pass 2d: steals whose working twin sat on a dead disk, found by tag.
	if s.Degraded() && s.RDA() {
		if err := undoDeadTwinLosers(s, a, handled, rep); err != nil {
			return nil, err
		}
	}
	done("undo")

	// Pass 3: rebuild the bitmap and launder winners' working twins.  A
	// single-parity array has no twins to undo from or launder, but its
	// groups whose parity block is lost are still counted deferred.
	if rep.DeferredParityGroups, err = walk.Settle(); err != nil {
		return nil, err
	}
	done("bitmap")
	// One header rewrite per winner, each on a twin of its own.  A dead-slot
	// group's surviving redundancy was re-established wholesale by the bitmap
	// pass (committed, fresh timestamp); re-stamping the old working header
	// would resurrect stale state.  The dead slots are the rebuild's job.
	winners := slices.DeleteFunc(working, func(w core.WorkingTwinInfo) bool {
		return !a.Committed(w.Txn) || s.Degraded() && (s.DeadTwin(w.Group, diskarray.P) >= 0 || s.DeadTwin(w.Group, diskarray.Q) >= 0)
	})
	if err := workpool.Run(s.Lanes(), len(winners), func(i int) error {
		w := winners[i]
		return s.WriteIndexMeta(w.Group, w.Twin, disk.Meta{State: disk.StateCommitted, Timestamp: w.Timestamp, Txn: w.Txn})
	}); err != nil {
		return nil, fmt.Errorf("recovery: launder a winner's twin: %w", err)
	}
	rep.LaunderedTwins = len(winners)
	done("launder")

	// Pass 3.5: resynchronize parity with the on-disk data.  No working twin
	// remains (losers' invalidated, winners' laundered) and all remaining
	// undo/redo is log-based, so forcing a group's current parity to its
	// equations over the data is safe.
	if hard {
		if rep.ResyncedGroups, err = walk.Resync(); err != nil {
			return nil, err
		}
		done("resync")
	}

	// Passes 4 and 6 share one applier and its two page buffers.  It holds
	// the pages declared lost above and strikes the ones a full-page log
	// image re-determines after all.
	ap := applier{s: s, a: a, lost: make(map[page.PageID]bool, len(rep.LostPages)), old: s.Pages.Get(), new: s.Pages.Get()}
	defer s.Pages.Put(ap.old, ap.new)
	for _, p := range rep.LostPages {
		ap.lost[p] = true
	}

	// Pass 4: logged undo, newest first per loser.
	for _, tx := range a.Losers {
		images := a.LoserImages[tx]
		for i := len(images) - 1; i >= 0; i-- {
			n, _, err := ap.apply(images[i:i+1], false)
			if err != nil {
				return nil, fmt.Errorf("recovery: undo txn %d page %d: %w", tx, images[i].Page, err)
			}
			rep.UndoneViaLog += n
		}
	}

	// Pass 5: close out the losers on the log.
	for _, tx := range a.Losers {
		s.Log.Append(wal.Record{Type: wal.TypeAbort, Txn: tx, Slot: wal.NoSlot})
	}
	done("logged undo")

	// Pass 6: REDO.
	if redo {
		if err := ap.redo(a.RedoImages, rep); err != nil {
			return nil, err
		}
		done("redo")
	}
	rep.LostPages = slices.DeleteFunc(rep.LostPages, func(p page.PageID) bool { return !ap.lost[p] })
	return rep, nil
}

// loser reports whether header m is the working header of a no-log steal
// whose writer did not commit: Figure 8's working state with nothing but
// an undo ahead of it.
func (a *Analysis) loser(m disk.Meta) bool {
	return m.State == disk.StateWorking && !a.Committed(m.Txn)
}

// undoRung names the rung of the loser-undo ladder that served.
type undoRung int

const (
	undoRestored undoRung = iota // D_old is back on the platter
	undoLogged                   // the logged before-image is pass 4's
	undoLost                     // beyond the redundancy: loseGroup ran
)

// undoSteal is the one ladder every undo of a loser's no-log steal of
// page p climbs down once the plain Figure 6 identity is out of reach:
//
//  1. the committed index `from` still describes the pre-transaction
//     group, so D_old is whatever it gives p — whatever p's platter holds,
//     through P or, when P is gone, its Q partner, with every erased
//     sibling solved alongside (SolvePage counts the erasures) — restored
//     under a cleared header.  A page that went with its disk needs no
//     write: the index now defines its value, served by reconstruction and
//     materialized by the rebuild;
//  2. else the before-image the eager demotion logged ahead of its first
//     disk write, whenever the death was observed before the crash, is
//     pass 4's to write back;
//  3. else D_old existed only on blocks that are gone: explicit, reported
//     loss (loseGroup).
func undoSteal(s *core.Store, a *Analysis, rep *Report, g page.GroupID, p page.PageID, tx page.TxID, from int) (undoRung, error) {
	var err error
	if !s.PageUnavailable(p) {
		var dOld page.Buf
		if dOld, _, err = s.SolvePage(g, p, from); err == nil {
			err = s.Arr.WriteData(p, dOld, disk.Meta{})
		}
	}
	switch {
	case err == nil:
		return undoRestored, nil
	case !errors.Is(err, core.ErrUnrecoverableCorruption):
		return undoLost, fmt.Errorf("recovery: undo page %d from index %d: %w", p, from, err)
	case hasLoggedImage(a, tx, p):
		// Pass 4 writes the image back through the store, which maintains
		// redundancy from what the group holds: sound only while p is the
		// one member the indexes disagree with the platter about.
		if _, lost := lostData(s, g); !lost {
			a.mustWrite[p] = true
			return undoLogged, nil
		}
	}
	return undoLost, loseGroup(s, g, rep, p)
}

// crashUndoWorking unwinds one loser's working twin: the Figure 6 identity
// when its three inputs answer (core.CrashUndoWorkingTwin), the ladder from
// the committed index when one does not.  A rung-2 twin stays working: pass
// 4's write of the logged image re-establishes the group's redundancy and
// Figure 7 never counts a loser's working header.
func crashUndoWorking(s *core.Store, a *Analysis, w core.WorkingTwinInfo, rep *Report) error {
	figure6, err := s.CrashUndoWorkingTwin(w)
	if err != nil {
		return err
	}
	if !figure6 {
		rung, err := undoSteal(s, a, rep, w.Group, w.DirtyPage, w.Txn, 1-w.Twin)
		if err != nil || rung != undoRestored {
			return err
		}
		if err := s.WriteIndexMeta(w.Group, w.Twin, invalid); err != nil {
			return err
		}
	}
	// The report's split is by what the group had lost, not by the rung.
	if figure6 || !s.GroupDegraded(w.Group) {
		rep.UndoneViaParity++
	} else {
		rep.UndoneViaReconstruction++
	}
	return nil
}

// unresolvedSteal scans group g's readable data pages for the tag of a
// loser's no-log steal that nothing has unwound and no logged before-image
// covers.  The steal's data write carries its writer's tag
// (disk.Meta.ChainSet/Txn) and every undo clears it, so the tag finds the
// steals whose working header cannot be read.  A group holds at most one:
// the Dirty_Set admits one uncovered page per group.
func unresolvedSteal(s *core.Store, a *Analysis, g page.GroupID) (p page.PageID, tag disk.Meta, found bool, err error) {
	for _, q := range s.Arr.GroupPages(g) {
		if s.PageUnavailable(q) {
			continue
		}
		_, m, err := s.Arr.ReadData(q, nil)
		if err != nil {
			if disk.IsCorrupt(err) {
				continue // one more erasure; the solve that follows accounts for it
			}
			return 0, m, false, fmt.Errorf("recovery: tag scan of group %d: %w", g, err)
		}
		if m.ChainSet && a.Outcomes[m.Txn] == OutcomeLoser && !hasLoggedImage(a, m.Txn, q) {
			return q, m, true, nil
		}
	}
	return 0, disk.Meta{}, false, nil
}

// undoDeadTwinLosers finds loser steals whose working twin sat on the
// dead disk, invisible to the group walk: an unresolved loser tag
// under a dead twin means the dead twin was the working one, hence the
// surviving index — the one not carrying the loser's working header — is
// the committed one and the steal unwinds down the ladder from it.  The
// platter is restored directly: the committed index's equations already
// describe exactly the restored state.
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
		p, tag, found, err := unresolvedSteal(s, a, gid)
		if err != nil {
			return err
		}
		if !found {
			continue
		}
		from := 1 - dead
		if m, err := s.IndexMeta(gid, from); err != nil {
			return err
		} else if m.State == disk.StateNone || (m.State == disk.StateWorking && m.Txn == tag.Txn) {
			// Both P slots are down and the Q proxies arbitrate.
			from = dead
		}
		rung, err := undoSteal(s, a, rep, gid, p, tag.Txn, from)
		if err != nil {
			return fmt.Errorf("recovery: tag undo of page %d: %w", p, err)
		}
		if rung == undoRestored {
			rep.UndoneViaReconstruction++
		}
	}
	return nil
}

// lostData returns a data page of group g that sits on a down disk, if any.
func lostData(s *core.Store, g page.GroupID) (page.PageID, bool) {
	for i := 0; i < s.Arr.GroupWidth(); i++ {
		if q := s.Arr.GroupPage(g, i); s.PageUnavailable(q) {
			return q, true
		}
	}
	return 0, false
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
	slices.Sort(lost)
	rep.LostPages = append(rep.LostPages, lost...)
	return nil
}

// repairTorn rebuilds the payload of every block the hard walk found
// silently corrupt — a torn write's checksum mismatch, a misdirected
// write's stamp mismatch, or a lost write's ledger mismatch — from the
// group's redundancy, so every later pass can read every block.  A torn
// write IS the crash, so at most one block per restart is torn, but any
// number is handled (latent faults accumulate).  The scan is the walk's:
// its charged, verified read of every live block is the one full pass a
// hard restart makes over the array.  The repairs run one after another in
// group order — they mutate the shared Report and the twin bitmap — and
// leave their group touched.
func repairTorn(s *core.Store, a *Analysis, walk *core.GroupWalk, rep *Report) (int, error) {
	for n, it := range walk.Torn {
		var err error
		switch {
		case it.IsRed && it.Red.Eq == diskarray.Q:
			err = repairTornQ(s, a, it.Group, it.Red.Twin, rep)
		case it.IsRed:
			err = repairTornParity(s, a, it.Group, it.Red.Twin, it.HeaderOK, rep)
		default:
			err = repairTornData(s, a, it.Group, it.Page, it.HeaderOK, rep)
		}
		if err != nil {
			return n, fmt.Errorf("recovery: repair torn block %+v: %w", it, err)
		}
		walk.Touch(it.Group)
	}
	return len(walk.Torn), nil
}

// repairTornQ rebuilds a corrupt Q page as the mirror of its P partner:
// the Q equation over the data state the partner describes, under the
// partner's header (the lockstep invariant).  When no authority can be
// established the Q page is zeroed invalid: honest erasure, never a
// silently wrong equation — unless the index's P page is gone as well and
// the group has lost a data page whose describing index
// (core.DescribingTwin) is this one: the tear then took the last
// description of that page, and the loss is made explicit.
func repairTornQ(s *core.Store, a *Analysis, g page.GroupID, twin int, rep *Report) error {
	vals, pm, err := describedByP(s, g, twin)
	if err == nil {
		return s.RewriteSlot(g, qpage(twin), vals, pm)
	}
	if d, lost := lostData(s, g); lost && !s.TwinReadable(g, parity(twin)) {
		src, derr := s.DescribingTwin(g, d, a.Committed)
		if errors.Is(derr, core.ErrUnrecoverableCorruption) || (derr == nil && src == twin) {
			return loseGroup(s, g, rep)
		}
		if derr != nil {
			return derr
		}
	}
	return zeroInvalid(s, g, qpage(twin))
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
	if ok, err := s.Verify(g, parity(twin)); ok || err != nil {
		return vals, pm, err
	}
	if s.Twins != nil {
		if om, err := s.Arr.ReadMeta(g, parity(1-twin)); err == nil && om.State == disk.StateWorking {
			return solveNaming(om.DirtyPage)
		}
	}
	return nil, pm, errors.New("the P partner disagrees with the platter and no header names the member")
}

// repairTornData rebuilds a corrupt data page p: the torn block is one
// more erasure beside the group's dead ones, and the question is only
// which index to solve it through.
//
//   - A loser's working index names p: the fault interrupted a no-UNDO
//     steal (or its undo), and p goes back to its before-image down the
//     undo ladder; the parity-undo pass then merely invalidates the twin.
//     A rung-2 page gets a zero placeholder, so that pass 4 can read what
//     it overwrites.
//   - Otherwise the fault hit a committed or logged write-back whose
//     parity update preceded it, and p is what its describing index says
//     (core.DescribingTwin: NOT always the Figure 7 winner — parity
//     precedes data in both the flip and steal protocols, so the newest
//     twin may describe a data write that never landed, and solving an
//     innocent bystander through it would XOR the phantom delta into the
//     repaired page).  A steal hidden on an unreadable index is found by
//     its tag, and its page — which the surviving, committed index
//     describes at its before-image, not as the platter holds it — is
//     erased alongside p.
//
// The page goes back under the header the torn write itself persisted —
// or, when the fault destroyed the header too (misdirected or lost
// write), under one resynthesized from the describing index's: the steal's
// echo when that is a (committed writer's) working header naming p —
// parity-as-redo of a steal whose acked data write was lost — the flip
// pairing echo when it pairs p, and a cleared header otherwise.  Erasures
// beyond the surviving equations are explicit loss.
func repairTornData(s *core.Store, a *Analysis, g page.GroupID, p page.PageID, headerOK bool, rep *Report) error {
	erased, gaveUp := []int{s.Arr.DataLoc(p).Disk}, []page.PageID{p}
	if s.RDA() {
		hidden := false
		for twin := 0; twin < 2; twin++ {
			m, err := s.IndexMeta(g, twin)
			if err != nil {
				return err
			}
			hidden = hidden || m.State == disk.StateNone
			if !a.loser(m) || m.DirtyPage != p {
				continue
			}
			rung, err := undoSteal(s, a, rep, g, p, m.Txn, 1-twin)
			if err == nil && rung == undoLogged {
				err = s.Arr.WriteData(p, make(page.Buf, s.Arr.PageSize()), disk.Meta{})
			}
			return err
		}
		if hidden {
			q, _, found, err := unresolvedSteal(s, a, g)
			if err != nil {
				return err
			}
			if found {
				erased, gaveUp = append(erased, s.Arr.DataLoc(q).Disk), append(gaveUp, q)
			}
		}
	}
	twin, err := s.DescribingTwin(g, p, a.Committed)
	var vals []page.Buf
	var pm disk.Meta
	if err == nil {
		vals, pm, err = s.SolveGroup(g, twin, erased...)
	}
	if errors.Is(err, core.ErrUnrecoverableCorruption) {
		return loseGroup(s, g, rep, gaveUp...)
	}
	if err != nil {
		return err
	}
	var hdr disk.Meta
	switch {
	case headerOK:
		loc := s.Arr.DataLoc(p)
		if hdr, err = s.Arr.Disk(loc.Disk).PeekMeta(loc.Block); err != nil {
			return err
		}
	case pm.State == disk.StateWorking && pm.DirtyPage == p:
		hdr = disk.Meta{Txn: pm.Txn, Timestamp: pm.Timestamp, ChainSet: true}
	case pm.PairedSet && pm.DirtyPage == p:
		hdr = disk.Meta{Timestamp: pm.Timestamp}
	}
	for i, q := range s.Arr.GroupPages(g) {
		if q == p {
			err = s.Arr.WriteData(p, vals[i], hdr)
		}
	}
	return err
}

// repairTornParity rebuilds a corrupt parity twin, deciding by the header
// the torn write itself persisted — or, when the fault destroyed that too
// (misdirected or lost write), by what the rest of the group says the
// header would have been.
//
//   - A loser's working header: the tear interrupted the steal's own
//     parity write.  If the covered data page already carries the writer's
//     tag the tear hit a re-steal, so the page first goes back to its
//     before-image down the undo ladder; either way the twin is retired,
//     zeroed and invalid.
//   - No trustworthy header, and the OTHER index holds a loser's working
//     header: this twin was the committed pre-steal parity, the only
//     carrier of D_old.  If the steal was also logged the log determines
//     D_old — demote the steal (invalidate the working twin) and rebuild
//     this twin over the on-disk data; otherwise the before-image is
//     genuinely gone: explicit loss.
//   - No trustworthy header, and a member page carries an unresolved loser
//     tag: the steal's parity write is ordered before its data write, so a
//     landed tag under a corrupt twin means THIS twin was the loser's
//     working parity; the page unwinds from the other index and this twin
//     is retired.
//   - Any other header — committed, obsolete, a stale working header whose
//     writer committed, or none at all (then: fresh committed) — belongs to
//     parity that ran ahead of its data write, or to a latent fault: the
//     twin is rebuilt under that header (rebuildTornP).
func repairTornParity(s *core.Store, a *Analysis, g page.GroupID, twin int, headerOK bool, rep *Report) error {
	var hdr disk.Meta // zero: a header the fault destroyed carries no information
	if headerOK {
		var err error
		if hdr, err = s.Arr.PeekMeta(g, parity(twin)); err != nil {
			return err
		}
	}
	// steal is the working header of the loser's steal this twin was the
	// working parity of, if any; tagged, whether the steal's data write
	// landed as well and must be unwound.
	steal, tagged, demote := hdr, false, false
	switch {
	case a.loser(hdr) && !s.PageUnavailable(hdr.DirtyPage):
		_, dMeta, err := s.Arr.ReadData(hdr.DirtyPage, nil)
		if err != nil {
			return err
		}
		tagged = dMeta.Txn == hdr.Txn
	case !headerOK && s.Twins != nil:
		om, err := s.IndexMeta(g, 1-twin)
		if err != nil {
			return err
		}
		if demote = a.loser(om); demote {
			if !hasLoggedImage(a, om.Txn, om.DirtyPage) {
				return loseGroup(s, g, rep, om.DirtyPage)
			}
		} else if q, tag, found, err := unresolvedSteal(s, a, g); err != nil {
			return err
		} else if found {
			steal, tagged = disk.Meta{State: disk.StateWorking, Txn: tag.Txn, DirtyPage: q}, true
		}
	}
	if a.loser(steal) {
		if tagged {
			rung, err := undoSteal(s, a, rep, g, steal.DirtyPage, steal.Txn, 1-twin)
			if err != nil || rung == undoLost {
				return err // lost: loseGroup rewrote every readable twin, this one included
			}
		}
		return zeroInvalid(s, g, parity(twin))
	}
	if !headerOK {
		hdr = disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
	}
	if err := rebuildTornP(s, a, g, twin, hdr, rep); err != nil || !demote {
		return err
	}
	return s.WriteIndexMeta(g, 1-twin, invalid)
}

// rebuildTornP rewrites torn index twin of group g under header hdr.  With
// every data page readable the platter is the state the index must
// describe, and its reachable slots recompute over it (a cut small write
// can leave Q ahead of P, so both go).  With a data page d erased as well,
// the torn P is needed only if it is d's describing index
// (core.DescribingTwin): if not it is retired; if so d lives on in the
// index's Q partner alone, the P page is rewritten over the values solved
// through it — and without a Q partner the tear took the last description
// of d: explicit loss.
func rebuildTornP(s *core.Store, a *Analysis, g page.GroupID, twin int, hdr disk.Meta, rep *Report) error {
	d, lost := lostData(s, g)
	if !lost {
		return s.RecomputeIndex(g, twin, hdr)
	}
	src, err := s.DescribingTwin(g, d, a.Committed)
	if err == nil && src != twin {
		return zeroInvalid(s, g, parity(twin))
	}
	var vals []page.Buf
	if err == nil {
		vals, _, err = s.SolveGroup(g, twin, s.Arr.Loc(g, parity(twin)).Disk)
	}
	if errors.Is(err, core.ErrUnrecoverableCorruption) {
		return loseGroup(s, g, rep)
	}
	if err != nil {
		return err
	}
	return s.RewriteSlot(g, parity(twin), vals, hdr)
}

// zeroInvalid retires a torn redundancy page whose payload nothing
// describes: it is rewritten zeroed and invalid, and — for a P page, the
// header Figure 7 reads — its index invalidated on the reachable slots.
func zeroInvalid(s *core.Store, g page.GroupID, r diskarray.Red) error {
	zero := s.Pages.Get()
	defer s.Pages.Put(zero)
	zero.Zero()
	if err := s.Arr.Write(g, r, zero, invalid); err != nil || r.Eq == diskarray.Q {
		return err
	}
	return s.WriteIndexMeta(g, r.Twin, invalid)
}

// applier brings data pages up to date with logged images: pass 4's
// before-images one at a time, pass 6's after-images a page at a time.
type applier struct {
	s        *core.Store
	a        *Analysis
	lost     map[page.PageID]bool // declared lost and not re-determined since
	old, new page.Buf             // a page as read, and as replayed
}

// redo is pass 6: winners' post-checkpoint images ordered by (page, LSN),
// one apply per page in ascending order (group order under data striping).
// Pages of one group are not folded into one parity write: a partial-group
// batch has bystanders a tear would corrupt (see core.WriteStripeLogged).
func (ap *applier) redo(imgs []wal.Record, rep *Report) error {
	slices.SortFunc(imgs, func(x, y wal.Record) int {
		return cmp.Or(cmp.Compare(x.Page, y.Page), cmp.Compare(x.LSN, y.LSN))
	})
	for len(imgs) > 0 {
		k := 1
		for k < len(imgs) && imgs[k].Page == imgs[0].Page {
			k++
		}
		n, wrote, err := ap.apply(imgs[:k], true)
		if err != nil {
			return fmt.Errorf("recovery: redo page %d: %w", imgs[0].Page, err)
		}
		rep.Redone += n
		if n > 0 {
			rep.RedonePages++
		}
		if wrote {
			rep.RedoneWrites++
		}
		imgs = imgs[k:]
	}
	return nil
}

// apply replays imgs — logged images of ONE page, in the order they take
// effect — and reports how many it accounted for and whether the page had
// to be written.  A full-page image supersedes everything before it, so
// replay starts at the last one; it alone re-determines a lost page — a
// record image has no base left to patch, so without one the page stays
// zeroed and reported.  The page is read once (verified and read-repaired
// like every read) and written only if the replay changed it: equal bytes
// mean the platter already shows every image, whichever write put it
// there, so no timestamp is drawn and no twin flips.  A write is the
// store's ordinary crash-atomic page write, WriteCommitted for REDO and
// WriteLogged for logged undo, with the page just read as its old contents.
func (ap *applier) apply(imgs []wal.Record, committed bool) (applied int, wrote bool, err error) {
	s, p := ap.s, imgs[0].Page
	full := len(imgs) - 1
	for full >= 0 && imgs[full].Slot != wal.NoSlot {
		full--
	}
	if ap.lost[p] && full < 0 {
		return 0, false, nil
	}
	delete(ap.lost, p)
	old, err := s.ReadPage(p, ap.old)
	if err != nil {
		return 0, false, err
	}
	cur, base := ap.new, old
	if full >= 0 {
		base = imgs[full].Image
	}
	if len(base) != len(cur) {
		return 0, false, fmt.Errorf("recovery: page image of %d bytes for %d-byte pages", len(base), len(cur))
	}
	copy(cur, base)
	if rest := imgs[full+1:]; len(rest) > 0 {
		view, err := record.View(cur)
		if err != nil {
			return 0, false, fmt.Errorf("recovery: page %d: %w", p, err)
		}
		for _, r := range rest {
			img, err := record.DecodeImage(r.Image)
			if err != nil {
				return 0, false, err
			}
			if err := view.Apply(int(r.Slot), img); err != nil {
				return 0, false, err
			}
		}
	}
	if bytes.Equal(cur, old) && !ap.a.mustWrite[p] {
		return len(imgs), false, nil
	}
	if committed {
		err = s.WriteCommitted(p, cur, old)
	} else {
		err = s.WriteLogged(p, cur, old, nil)
	}
	return len(imgs), err == nil, err
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
	// Groups rebuild independently of one another, so they go Lanes() at a
	// time: every drive busy when the drives queue, the plain loop in group
	// order on a synchronous store with one worker.
	var mu sync.Mutex
	var lost []page.GroupID
	err := workpool.Run(s.Lanes(), s.Arr.NumGroups(), func(g int) error {
		gid := page.GroupID(g)
		ok, err := RebuildGroup(s, gid, ds, before)
		if err != nil || ok {
			return err
		}
		mu.Lock()
		lost = append(lost, gid)
		mu.Unlock()
		return resetLostGroupParity(s, gid)
	})
	slices.Sort(lost)
	return lost, err
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
			if err := s.Recompute(g, eqs[i].Twin(twin), meta); err != nil {
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
	vals, err := s.ReadGroup(g, r)
	defer s.Pages.Put(vals...)
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
				copy(vals[i], img)
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
