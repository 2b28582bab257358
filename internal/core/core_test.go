package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
	"repro/internal/txn"
	"repro/internal/wal"
)

func newStore(t *testing.T, kind diskarray.Kind) *Store {
	t.Helper()
	arr, err := diskarray.New(diskarray.Config{
		Kind: kind, DataDisks: 4, NumPages: 48, PageSize: page.MinSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(arr, wal.New(wal.DefaultConfig()), txn.NewManager())
}

func pattern(size int, seed byte) page.Buf {
	b := page.NewBuf(size)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestWriteCommittedMaintainsParity(t *testing.T) {
	for _, kind := range []diskarray.Kind{diskarray.RAID5, diskarray.RAID5Twin, diskarray.ParityStripe, diskarray.ParityStripeTwin} {
		s := newStore(t, kind)
		for i := 0; i < 10; i++ {
			p := page.PageID(i * 3 % s.Arr.NumPages())
			if err := s.WriteCommitted(p, pattern(page.MinSize, byte(i)), nil); err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
		}
		if err := s.VerifyParityInvariant(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

func TestStealNoLogAndAbortUndo(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	p := page.PageID(7)
	committed := pattern(page.MinSize, 0x10)
	if err := s.WriteCommitted(p, committed, nil); err != nil {
		t.Fatal(err)
	}

	tx := s.TM.Begin()
	uncommitted := pattern(page.MinSize, 0x80)
	if !canSteal(s, p, tx.ID) {
		t.Fatalf("clean group must allow the no-log steal")
	}
	if err := s.StealNoLog(p, uncommitted, committed, tx, nil); err != nil {
		t.Fatal(err)
	}
	g := s.Arr.GroupOf(p)
	if !s.Dirty.IsDirty(g) {
		t.Fatalf("group must be dirty after StealNoLog")
	}
	// On-disk contents are the uncommitted version.
	got, err := s.ReadPage(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(uncommitted) {
		t.Fatalf("steal did not write the new version")
	}
	// The working twin tracks the on-disk state (the invariant checker
	// consults the Dirty_Set for that).
	if err := s.VerifyParityInvariant(); err != nil {
		t.Fatal(err)
	}

	// Abort: parity undo must restore the committed version.
	pid, restored, err := abortSteal(s, g)
	if err != nil {
		t.Fatal(err)
	}
	if pid != p || !restored.Equal(committed) {
		t.Fatalf("undo restored page %d with wrong contents", pid)
	}
	if s.Dirty.IsDirty(g) {
		t.Fatalf("group must be clean after undo")
	}
	got, err = s.ReadPage(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(committed) {
		t.Fatalf("on-disk contents not restored")
	}
	if err := s.VerifyParityInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestResteaUndoRestoresOriginal(t *testing.T) {
	// Steal, re-reference, steal again (Figure 3's self loop): undo must
	// restore the version before the FIRST steal.
	s := newStore(t, diskarray.RAID5Twin)
	p := page.PageID(12)
	committed := pattern(page.MinSize, 0x01)
	if err := s.WriteCommitted(p, committed, nil); err != nil {
		t.Fatal(err)
	}
	tx := s.TM.Begin()
	v1 := pattern(page.MinSize, 0x40)
	v2 := pattern(page.MinSize, 0xC0)
	if err := s.StealNoLog(p, v1, committed, tx, nil); err != nil {
		t.Fatal(err)
	}
	if !canSteal(s, p, tx.ID) {
		t.Fatalf("re-steal of same page/txn must be allowed")
	}
	if err := s.StealNoLog(p, v2, v1, tx, nil); err != nil {
		t.Fatal(err)
	}
	g := s.Arr.GroupOf(p)
	_, restored, err := abortSteal(s, g)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Equal(committed) {
		t.Fatalf("undo after re-steal must restore the original committed version")
	}
	if err := s.VerifyParityInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitGroupsPromotesWorkingTwin(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	p := page.PageID(3)
	g := s.Arr.GroupOf(p)
	tx := s.TM.Begin()
	v := pattern(page.MinSize, 0x22)
	if err := s.StealNoLog(p, v, nil, tx, nil); err != nil {
		t.Fatal(err)
	}
	e, _ := s.Dirty.Lookup(g)
	before := s.Twins.Current(g)
	s.CommitGroups(tx)
	if s.Dirty.IsDirty(g) {
		t.Fatalf("commit must clean the group")
	}
	if s.Twins.Current(g) != e.WorkingTwin || s.Twins.Current(g) == before {
		t.Fatalf("commit must promote the working twin")
	}
	if err := s.VerifyParityInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteLoggedToDirtyGroupUpdatesBothTwins(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	g := page.GroupID(2)
	pages := s.Arr.GroupPages(g)
	p1, p2 := pages[0], pages[1]
	base1 := pattern(page.MinSize, 0x05)
	base2 := pattern(page.MinSize, 0x06)
	if err := s.WriteCommitted(p1, base1, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCommitted(p2, base2, nil); err != nil {
		t.Fatal(err)
	}

	// Txn A dirties the group via p1 (no logging).
	txA := s.TM.Begin()
	v1 := pattern(page.MinSize, 0x55)
	if err := s.StealNoLog(p1, v1, base1, txA, nil); err != nil {
		t.Fatal(err)
	}
	// Txn B writes p2; the Dirty_Set forbids the fast path.
	txB := s.TM.Begin()
	if canSteal(s, p2, txB.ID) {
		t.Fatalf("second page of a dirty group must not take the fast path")
	}
	if err := s.StealNoLog(p2, base2, base2, txB, nil); !errors.Is(err, errMustLog) {
		t.Fatalf("err = %v, want errMustLog", err)
	}
	v2 := pattern(page.MinSize, 0x66)
	if err := s.WriteLogged(p2, v2, base2, nil); err != nil {
		t.Fatal(err)
	}

	// The undo identity for p1 must still hold after p2's logged write.
	gOut, restored, err := abortSteal(s, g)
	if err != nil {
		t.Fatal(err)
	}
	if gOut != p1 || !restored.Equal(base1) {
		t.Fatalf("p1 undo corrupted by the logged write of p2")
	}
	// p2 keeps its logged new version.
	got, err := s.ReadPage(p2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v2) {
		t.Fatalf("p2 lost its logged write")
	}
	if err := s.VerifyParityInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestScanWorkingTwinsAndCrashUndo(t *testing.T) {
	s := newStore(t, diskarray.ParityStripeTwin)
	committedData := make(map[page.PageID]page.Buf)
	// Three transactions dirty three different groups, then the system
	// crashes (volatile state lost).
	var txns []*txn.Txn
	groupsUsed := make(map[page.GroupID]bool)
	for i := 0; i < 3; i++ {
		tx := s.TM.Begin()
		txns = append(txns, tx)
		// Pick a page in a group not yet used.
		var p page.PageID
		for q := 0; q < s.Arr.NumPages(); q++ {
			if !groupsUsed[s.Arr.GroupOf(page.PageID(q))] {
				p = page.PageID(q)
				break
			}
		}
		groupsUsed[s.Arr.GroupOf(p)] = true
		base := pattern(page.MinSize, byte(i))
		if err := s.WriteCommitted(p, base, nil); err != nil {
			t.Fatal(err)
		}
		committedData[p] = base
		if err := s.StealNoLog(p, pattern(page.MinSize, byte(0xA0+i)), base, tx, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Txn 0 commits before the crash.
	s.CommitGroups(txns[0])

	s.ResetVolatile() // crash

	committed := func(id page.TxID) bool { return id == txns[0].ID }
	walk, err := s.WalkGroups(committed, false)
	if err != nil {
		t.Fatal(err)
	}
	found, err := walk.Working()
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 3 {
		t.Fatalf("walk found %d working twins, want 3 (one lazily committed)", len(found))
	}
	for _, w := range found {
		if committed(w.Txn) {
			continue // winner: leave it, Settle resolves it
		}
		walk.Touch(w.Group)
		if rung, _, err := s.UndoSteal(w, RungFigure6, false); err != nil || rung != RungFigure6 {
			t.Fatalf("undo: rung=%v err=%v", rung, err)
		}
		// Idempotency: a second application (crash during recovery) must
		// not damage the restored page.
		if _, _, err := s.UndoSteal(w, RungFigure6, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := walk.Settle(); err != nil {
		t.Fatal(err)
	}
	// Losers' pages are back to committed contents; winner's page keeps
	// its new contents.
	for p, want := range committedData {
		got, err := s.ReadPage(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		isWinner := false
		for _, f := range found {
			if f.DirtyPage == p && committed(f.Txn) {
				isWinner = true
			}
		}
		if isWinner {
			if got.Equal(want) {
				t.Fatalf("winner page %d lost its committed update", p)
			}
		} else if !got.Equal(want) {
			t.Fatalf("loser page %d not restored", p)
		}
	}
	if err := s.VerifyParityInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildAfterCrashNoValidTwin: Current_Parity over two invalid headers
// has nothing to pick, and the bitmap pass of the walk must say so rather
// than promote a default.
func TestRebuildAfterCrashNoValidTwin(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	buf := page.NewBuf(s.Arr.PageSize())
	for tw := 0; tw < 2; tw++ {
		if err := s.Arr.Write(3, diskarray.P.Twin(tw), buf, disk.Meta{State: disk.StateInvalid}); err != nil {
			t.Fatal(err)
		}
	}
	s.ResetVolatile()
	walk, err := s.WalkGroups(nil, false)
	if err == nil {
		_, err = walk.Settle()
	}
	if err == nil || !strings.Contains(err.Error(), "no valid parity twin") || !strings.Contains(err.Error(), "group 3") {
		t.Fatalf("err = %v, want the no-valid-parity-twin error of group 3", err)
	}
}

// TestRebuildAfterCrashErrorsOnFailedDisk: a drive that failed without the
// store having observed it (no degraded mode entered) still holds a P twin
// the walk must read; the read error surfaces instead of a guess.
func TestRebuildAfterCrashErrorsOnFailedDisk(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	s.Arr.Disk(s.Arr.Loc(0, diskarray.P.Twin(1)).Disk).Fail()
	s.ResetVolatile()
	if _, err := s.WalkGroups(nil, false); !errors.Is(err, disk.ErrFailed) || !strings.Contains(err.Error(), "group 0") {
		t.Fatalf("err = %v, want the failed drive's read error, naming group 0", err)
	}
}

func TestRandomizedParityInvariant(t *testing.T) {
	// Randomized soak: interleave no-log steals, logged writes, commits
	// and aborts across many groups; the parity invariant and the undo
	// guarantee must hold throughout.
	s := newStore(t, diskarray.RAID5Twin)
	r := rand.New(rand.NewSource(42))
	n := s.Arr.NumPages()

	// Oracle of committed contents.
	oracle := make([]page.Buf, n)
	for i := range oracle {
		oracle[i] = page.NewBuf(page.MinSize)
	}

	type pending struct {
		tx    *txn.Txn
		pages map[page.PageID]page.Buf // new values written via StealNoLog
	}
	var open []*pending

	for step := 0; step < 300; step++ {
		switch {
		case len(open) > 0 && r.Intn(4) == 0: // resolve a transaction
			i := r.Intn(len(open))
			pd := open[i]
			open = append(open[:i], open[i+1:]...)
			if r.Intn(2) == 0 { // commit
				s.CommitGroups(pd.tx)
				for p, v := range pd.pages {
					oracle[p] = v
				}
			} else { // abort
				for _, g := range s.Dirty.GroupsOf(pd.tx.ID, nil) {
					if _, _, err := abortSteal(s, g); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
		default:
			p := page.PageID(r.Intn(n))
			v := page.NewBuf(page.MinSize)
			r.Read(v)
			tx := s.TM.Begin()
			if canSteal(s, p, tx.ID) {
				if err := s.StealNoLog(p, v, nil, tx, nil); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				open = append(open, &pending{tx: tx, pages: map[page.PageID]page.Buf{p: v}})
			} else {
				// Commit it immediately through the committed path if the
				// group is dirty by someone else's page... only when the
				// page itself is not the dirty one.
				g := s.Arr.GroupOf(p)
				if e, dirty := s.Dirty.Lookup(g); dirty && e.Page == p {
					continue // page locked by the dirtying txn, skip
				}
				if err := s.WriteCommitted(p, v, nil); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				oracle[p] = v
			}
		}
		if err := s.VerifyParityInvariant(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	// Resolve everything by aborting; the array must equal the oracle.
	for _, pd := range open {
		for _, g := range s.Dirty.GroupsOf(pd.tx.ID, nil) {
			if _, _, err := abortSteal(s, g); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range oracle {
		got, err := s.Arr.PeekData(page.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(oracle[i]) {
			t.Fatalf("page %d diverged from oracle", i)
		}
	}
	if err := s.VerifyParityInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestStealWritesTagAndWorkingHeader checks what a no-log steal leaves on
// the platter (Section 4.3, Figure 8): the data page carries the writer's
// steal tag, and the obsolete twin becomes the working one under a header
// naming the writer and the covered page, with the data page echoing its
// timestamp.  A re-steal of the same page refreshes that twin in place.
func TestStealWritesTagAndWorkingHeader(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	tx := s.TM.Begin()
	headers := func(g page.GroupID, p page.PageID) (data, twin0, twin1 disk.Meta) {
		t.Helper()
		loc := s.Arr.DataLoc(p)
		data, err := s.Arr.Disk(loc.Disk).PeekMeta(loc.Block)
		if err != nil {
			t.Fatal(err)
		}
		var twins [2]disk.Meta
		for i := range twins {
			if twins[i], err = s.Arr.PeekMeta(g, diskarray.P.Twin(i)); err != nil {
				t.Fatal(err)
			}
		}
		return data, twins[0], twins[1]
	}
	for g := page.GroupID(0); g < 3; g++ {
		p := s.Arr.GroupPages(g)[0]
		if err := s.StealNoLog(p, pattern(page.MinSize, byte(g)), nil, tx, nil); err != nil {
			t.Fatal(err)
		}
		data, committed, working := headers(g, p)
		if !data.ChainSet || data.Txn != tx.ID {
			t.Fatalf("page %d header lost its steal tag: %+v", p, data)
		}
		if working.State != disk.StateWorking || working.Txn != tx.ID || working.DirtyPage != p || working.Timestamp != data.Timestamp {
			t.Fatalf("group %d working twin header = %+v (data page %+v)", g, working, data)
		}
		if committed.State != disk.StateCommitted || s.Twins.Current(g) != 0 {
			t.Fatalf("group %d: the steal disturbed the committed twin: %+v", g, committed)
		}
		if err := s.StealNoLog(p, pattern(page.MinSize, byte(g+9)), nil, tx, nil); err != nil {
			t.Fatal(err)
		}
		data2, _, working2 := headers(g, p)
		if working2.State != disk.StateWorking || working2.Timestamp <= working.Timestamp || data2.Timestamp != working2.Timestamp {
			t.Fatalf("group %d: re-steal did not refresh the working twin in place: %+v -> %+v", g, working, working2)
		}
	}
	if err := s.VerifyParityInvariant(); err != nil {
		t.Fatal(err)
	}
}

// abortSteal undoes the no-log steal that dirtied group g down the undo
// ladder, as a live abort does, and returns the page and what its platter
// holds afterwards.
func abortSteal(s *Store, g page.GroupID) (page.PageID, page.Buf, error) {
	e, ok := s.Dirty.Lookup(g)
	if !ok {
		return 0, nil, fmt.Errorf("group %d is not dirty", g)
	}
	w := WorkingTwinInfo{Group: g, Twin: e.WorkingTwin, Meta: disk.Meta{DirtyPage: e.Page, Txn: e.Txn}}
	if _, lost, err := s.UndoSteal(w, RungFigure6, false); err != nil || len(lost) > 0 {
		return e.Page, nil, fmt.Errorf("undo of group %d: lost %v: %v", g, lost, err)
	}
	got, err := s.Arr.PeekData(e.Page)
	return e.Page, got, err
}
