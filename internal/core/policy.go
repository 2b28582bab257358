package core

import (
	"repro/internal/dirtyset"
	"repro/internal/page"
)

// The write-back policy (Section 4.1, Figure 3) is one pure function:
// Decide answers which write path a View takes.  The engine builds the view
// at each site and carries the answer out, and StealNoLog and
// WriteStripeLogged check their preconditions through it.  DESIGN.md §5
// "Write-back policy" holds the same rules as a table, which
// TestDecideMatchesDesignTable compares with Decide over every View.

// Trigger is what asks for a decision.
type Trigger uint8

const (
	PageWriteBack Trigger = iota // a dirty frame leaves the pool: eviction, checkpoint, EOT flush
	GroupFlush                   // a FORCE commit flushes its pages of one group
	RecordWrite                  // a transaction writes a record of the page
	DiskLoss                     // the array has just lost a disk
)

// DirtyState is the group's Dirty_Set entry (Figure 3) seen from the page
// and the transaction asking.
type DirtyState uint8

const (
	Clean     DirtyState = iota
	SameSteal            // dirty from a steal of this page by this transaction
	OtherTxn             // dirty from another transaction's steal of this page
	OtherPage            // dirty from a steal of another page of the group
)

// View is everything the policy looks at.  Counts stop at 2: several.
type View struct {
	Trigger            Trigger
	RDA, RecordLogging bool
	GroupDegraded      bool
	Dirty              DirtyState
	// The frame's active modifiers, and whether it holds committed changes
	// not yet on disk (PageWriteBack).
	Modifiers int
	Residue   bool
	// The flush's resident dirty pages of the group, and whether they are
	// its whole stripe (GroupFlush).
	DirtyPages  int
	WholeStripe bool
}

// Action is the policy's answer, named as in DESIGN.md's table.
type Action string

const (
	NoAction         Action = "nothing" // a GroupFlush: each page through its own PageWriteBack
	FullStripe       Action = "full-stripe"
	Chained          Action = "chain" // k − 1 logged flips, then the last page through its PageWriteBack
	Steal            Action = "no-log steal"
	DemoteThenLog    Action = "demote, then logged"
	DemoteThenCommit Action = "demote, then committed"
	Logged           Action = "logged"
	Committed        Action = "committed"
	DemoteOnly       Action = "demote only"
)

// Decide is the write-back policy.
func Decide(v View) Action {
	dirty := v.RDA && v.Dirty != Clean
	switch v.Trigger {
	case GroupFlush:
		switch {
		case !v.RDA || dirty || v.GroupDegraded:
			return NoAction
		case !v.RecordLogging && v.WholeStripe:
			return FullStripe
		case v.DirtyPages >= 2:
			return Chained
		}
		return NoAction
	case RecordWrite, DiskLoss:
		if dirty && (v.Trigger == DiskLoss || v.Dirty == OtherTxn) {
			return DemoteOnly
		}
		return NoAction
	}
	switch {
	case v.RDA && (v.Dirty == Clean || v.Dirty == SameSteal) && !v.GroupDegraded && v.Modifiers == 1 && !v.Residue:
		return Steal
	case dirty && v.Modifiers == 0:
		return DemoteThenCommit
	case dirty:
		return DemoteThenLog
	case v.Modifiers == 0:
		return Committed
	}
	return Logged
}

// ViewOf returns what the store knows of the policy's view of group g for
// page p and transaction tx — RDA, degradation, the Figure 3 state —
// together with g's Dirty_Set entry; the caller fills in the rest.
func (s *Store) ViewOf(t Trigger, g page.GroupID, p page.PageID, tx page.TxID) (View, dirtyset.Entry) {
	v := View{Trigger: t, RDA: s.Dirty != nil, GroupDegraded: s.GroupDegraded(g)}
	e, dirty := s.dirtyEntry(g)
	switch {
	case !dirty:
	case e.Page != p:
		v.Dirty = OtherPage
	case e.Txn != tx:
		v.Dirty = OtherTxn
	default:
		v.Dirty = SameSteal
	}
	return v, e
}
