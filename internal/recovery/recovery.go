// Package recovery implements the restart (system crash) and media
// (disk failure) recovery drivers over the core store.
//
// # Crash recovery (Section 4.3)
//
// After a crash all main-memory state is gone: the buffer, the lock
// table, the Dirty_Set and the current-parity bitmap.  Restart
// (CrashRecover) runs the passes of one table, passes, in its order, each
// idempotent so that a crash during recovery simply restarts it; the
// lettered and halved ones run only when there is something for them to
// find, and which run at all is a column of the table:
//
//   - 1. Analysis — one charged scan of the log determines every
//     transaction's outcome.  Losers are transactions with a BOT but
//     neither EOT nor abort record.
//   - 2. Group walk — every parity group is visited once (core.WalkGroups),
//     core.Store.Lanes groups at a time, and the header of each of its two
//     redundancy indexes read — the P twin's, or its Q partner's where the
//     P twin is down: the scan the paper rebuilds the current-parity bitmap
//     with — into a table every pass up to 3.5 answers from.  After a
//     mid-I/O crash the visit reads every live block verified instead: the
//     same headers, the blocks that fail, and whether the group's parity
//     holds.
//   - 2b. Torn repair (mid-I/O crash only, torn.go) — a block that failed is
//     one more erasure beside the group's dead ones, rebuilt by the decision
//     function of its kind (repairTornData, repairTornParity, repairTornQ),
//     so that every later pass can read every block.
//   - 2c. Parity undo (undo.go) — for every group whose working twin belongs
//     to a loser the covered data page is restored as D_old = (P ⊕ P′) ⊕
//     D_new and the twin invalidated.  With an input of that identity gone
//     the undo takes one ladder (undoSteal): D_old solved through the
//     committed index, else the logged before-image left to pass 4, else
//     explicit loss (loseGroup).
//   - 2d. Tag undo (disk down only) — a loser's working index with no
//     readable slot left (twin parity with its P twin down, both pages of a
//     P+Q index) is invisible to the walk; its steal is found by the
//     writer's tag on the data page (unresolvedSteal) and takes the same
//     ladder.  A working header a Q partner carries is in the table: 2c's.
//   - 3. Bitmap rebuild — Current_Parity (Figure 7) with log outcomes over
//     the table, degraded groups included: a loser's working header is
//     invalid to it before the undo as its invalid rewrite is after.  Only a
//     group that 2b–2d rewrote is read from the platter again.  A group
//     that lost a block has its winner's flip echo checked; one whose
//     headers cannot arbitrate (no valid index, or an index with no
//     reachable slot) is established from its data.  Twins left working by
//     transactions that committed are then laundered to the committed state
//     on their reachable slots, Lanes at a time.
//   - 3.5 Parity resync (mid-I/O crash only) — the current parity of every
//     group the walk did not find in order, or rewritten since, is made to
//     satisfy its equations again, closing the window where an in-place
//     parity write ran ahead of its data write.
//   - 4. Logged undo (apply.go) — losers' logged before-images (pages or
//     records) are applied newest first, each through the applier pass 6
//     uses: a page the platter already shows as it was is not rewritten.
//   - 5. Abort records are appended for every loser.
//   - 6. REDO (¬FORCE algorithms) — each page touched by a winner's
//     post-checkpoint image is read once, its images applied in LSN order,
//     and written through the committed path only if it changed.
//
// # Media recovery (media.go)
//
// Failed disks are replaced and every affected parity group rebuilt from
// its surviving members.  For clean groups this is the classic RAID
// reconstruction against the current parity.  For groups that are dirty
// at the time of the failure the driver distinguishes which block was
// lost: the data page and the working twin rebuild from each other, and a
// lost committed twin is recomputed from the on-disk data plus the
// before-image of the dirty page that the engine retains in memory while
// the owning transaction is active.  A group whose loss exceeds its
// redundancy is given up the way restart gives one up (loseGroup).
package recovery

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
	"repro/internal/wal"
)

// parity and qpage address the two pages of a redundancy index.
func parity(twin int) diskarray.Red { return diskarray.P.Twin(twin) }
func qpage(twin int) diskarray.Red  { return diskarray.Q.Twin(twin) }

// invalid is the header of Figure 8's abort transition.
var invalid = disk.Meta{State: disk.StateInvalid}

// outcome classifies a transaction from the log.
type outcome int

const (
	outcomeUnknown   outcome = iota // never appeared in the log
	outcomeLoser                    // active at the crash: BOT without EOT/abort
	outcomeCommitted                // an EOT record exists
	outcomeAborted                  // a completed rollback's abort record exists
)

// analysis is the result of the log analysis pass.
type analysis struct {
	outcomes map[page.TxID]outcome
	losers   []page.TxID // sorted
	// loserImages holds each loser's before-image records in log order.
	loserImages map[page.TxID][]wal.Record
	// redoImages holds winners' after-image records with LSN after the last
	// checkpoint, in log order; pass 6 reorders them by (page, LSN).
	redoImages []wal.Record
	// mustWrite holds the pages whose logged undo is written even if already
	// in place: undoSteal's rung 2 left a working twin for that write to retire.
	mustWrite map[page.PageID]bool
}

// committed is the outcome predicate core.Store.WalkGroups takes.
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
func (a *analysis) committed(tx page.TxID) bool {
	o := a.outcomes[tx]
	return o == outcomeCommitted || o == outcomeUnknown
}

// loser reports whether header m is the working header of a no-log steal
// whose writer did not commit: Figure 8's working state with nothing but
// an undo ahead of it.
func (a *analysis) loser(m disk.Meta) bool {
	return m.State == disk.StateWorking && !a.committed(m.Txn)
}

// hasLoggedImage reports whether analysis found a logged before-image of
// page p for loser tx.  The eager demotion's log-first ordering
// guarantees one whenever a degraded group's no-log steal was demoted —
// even a demotion the crash itself interrupted.
func (a *analysis) hasLoggedImage(tx page.TxID, p page.PageID) bool {
	for _, r := range a.loserImages[tx] {
		if r.Page == p {
			return true
		}
	}
	return false
}

// analyze performs the (charged) analysis scan.  It keeps the outcomes and
// the only records a later pass reads — before-images and the after-images
// past the latest checkpoint seen — to classify once the outcomes are known.
func analyze(log *wal.Log) (*analysis, error) {
	a := &analysis{
		outcomes:    make(map[page.TxID]outcome),
		loserImages: make(map[page.TxID][]wal.Record),
		mustWrite:   make(map[page.PageID]bool),
	}
	var before []wal.Record
	var last wal.LSN
	if err := log.Scan(1, func(r wal.Record) bool {
		last = r.LSN
		switch r.Type {
		case wal.TypeBOT:
			if a.outcomes[r.Txn] == outcomeUnknown {
				a.outcomes[r.Txn] = outcomeLoser
			}
		case wal.TypeEOT:
			a.outcomes[r.Txn] = outcomeCommitted
		case wal.TypeAbort:
			a.outcomes[r.Txn] = outcomeAborted
		case wal.TypeCheckpoint:
			a.redoImages = a.redoImages[:0]
		case wal.TypeBeforeImage:
			before = append(before, r)
		case wal.TypeAfterImage:
			a.redoImages = append(a.redoImages, r)
		}
		return true
	}); err != nil {
		return nil, fmt.Errorf("recovery: analysis scan: %w", err)
	}
	log.ChargeScan(1, last) // charges nothing for an empty log
	for tx, o := range a.outcomes {
		if o == outcomeLoser {
			a.losers = append(a.losers, tx)
		}
	}
	slices.Sort(a.losers)
	for _, r := range before {
		if a.outcomes[r.Txn] == outcomeLoser {
			a.loserImages[r.Txn] = append(a.loserImages[r.Txn], r)
		}
	}
	a.redoImages = slices.DeleteFunc(a.redoImages, func(r wal.Record) bool {
		return a.outcomes[r.Txn] != outcomeCommitted
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

// state is one restart in progress: what analysis and the walk found, the
// report the passes fill in, and what passes 4 and 6 share.
type state struct {
	s    *core.Store
	hard bool
	a    *analysis
	walk *core.GroupWalk
	rep  *Report
	// working holds the working twins the undo pass found; the launder
	// pass commits the winners'.
	working []core.WorkingTwinInfo
	// lost holds the pages given up and not re-determined since by a
	// full-page log image.
	lost     map[page.PageID]bool
	old, new page.Buf // the applier's page as read, and as replayed
}

// Which restarts run a pass.
const (
	always   = iota
	hardOnly // after a mid-I/O crash: the walk read every block
	redoOnly // under ¬FORCE: winners' images may be missing from the platter
)

// passes is restart, in order; the package comment says what each does.
var passes = []struct {
	name string
	only int
	run  func(*state) error
}{
	{"analyze", always, func(st *state) (err error) {
		if st.a, err = analyze(st.s.Log); err == nil {
			st.rep.Losers = st.a.losers
		}
		return err
	}},
	{"walk", always, func(st *state) (err error) {
		st.walk, err = st.s.WalkGroups(st.a.committed, st.hard)
		return err
	}},
	{"torn repair", hardOnly, (*state).repairTorn},
	{"undo", always, (*state).undo},
	{"bitmap", always, func(st *state) (err error) {
		st.rep.DeferredParityGroups, err = st.walk.Settle()
		return err
	}},
	{"launder", always, (*state).launder},
	{"resync", hardOnly, func(st *state) (err error) {
		st.rep.ResyncedGroups, err = st.walk.Resync()
		return err
	}},
	{"logged undo", always, (*state).loggedUndo},
	{"redo", redoOnly, (*state).redo},
}

// CrashRecover runs the restart passes in order, charging each with the
// array transfers and the time since the one before.  redo selects whether
// the REDO pass runs (¬FORCE algorithms); FORCE algorithms have nothing to
// redo.
//
// hard marks a restart after a mid-I/O crash (the fault plane's crash
// points, as opposed to db.Crash()'s quiescent loss of volatile state): the
// walk then reads whole blocks, and torn repair and parity resync run.
// Quiescent restarts need none of it, and their transfer counts match the
// paper's cost model.
func CrashRecover(s *core.Store, redo, hard bool) (*Report, error) {
	st := &state{s: s, hard: hard, rep: &Report{}, lost: make(map[page.PageID]bool)}
	defer func() { s.Pages.Put(st.old, st.new) }()
	runs := [...]bool{always: true, hardOnly: hard, redoOnly: redo}
	at, n := time.Now(), s.Arr.Stats().Transfers()
	for _, p := range passes {
		if !runs[p.only] {
			continue
		}
		if err := p.run(st); err != nil {
			return nil, err
		}
		now, m := time.Now(), s.Arr.Stats().Transfers()
		st.rep.Passes = append(st.rep.Passes, Pass{Name: p.name, Transfers: m - n, Duration: now.Sub(at)})
		at, n = now, m
	}
	st.rep.LostPages = slices.DeleteFunc(st.rep.LostPages, func(p page.PageID) bool { return !st.lost[p] })
	return st.rep, nil
}
