package recovery

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
	"repro/internal/twinpage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// opCounter is a disk.Injector that counts the charged operations by class.
type opCounter struct {
	n [4]atomic.Int64
	// lose, when set, makes the next payload write to that block a lost one.
	lose *diskarray.Loc
}

func (c *opCounter) Observe(a disk.Access) disk.Decision {
	c.n[a.Op].Add(1)
	if l := c.lose; l != nil && a.Op == disk.OpWrite && a.Disk == l.Disk && a.Block == l.Block {
		c.lose = nil
		return disk.Decision{LostWrite: true}
	}
	return disk.Decision{}
}

// restart crashes s and recovers it under a fresh counter.
func restart(t *testing.T, s *core.Store, hard bool) (*Report, *opCounter) {
	t.Helper()
	s.ResetVolatile()
	c := &opCounter{}
	s.SetInjector(c)
	defer s.SetInjector(nil)
	rep, err := CrashRecover(s, false, hard)
	if err != nil {
		t.Fatal(err)
	}
	return rep, c
}

// passTransfers returns the transfers of the named pass of rep.
func passTransfers(t *testing.T, rep *Report, name string) int64 {
	t.Helper()
	for _, p := range rep.Passes {
		if p.Name == name {
			return p.Transfers
		}
	}
	t.Fatalf("no pass %q in %+v", name, rep.Passes)
	return 0
}

// stealLoser leaves a loser's no-log steal of page p on the platter, over a
// committed version written first, and returns the loser and the image it
// stole.
func stealLoser(t *testing.T, s *core.Store, p page.PageID) (tx page.TxID, stolen page.Buf) {
	t.Helper()
	base := pattern(page.MinSize, byte(p))
	if err := s.WriteCommitted(p, base, nil); err != nil {
		t.Fatal(err)
	}
	x := s.TM.Begin()
	s.Log.Append(wal.Record{Type: wal.TypeBOT, Txn: x.ID, Slot: wal.NoSlot})
	stolen = pattern(page.MinSize, byte(p)+0x80)
	if err := s.StealNoLog(p, stolen, base, x, nil); err != nil {
		t.Fatal(err)
	}
	return x.ID, stolen
}

// platterCurrent is Figure 7 over group g's P headers as the platter holds
// them now, every working writer counted a loser.
func platterCurrent(t *testing.T, s *core.Store, g page.GroupID) int {
	t.Helper()
	var m [2]disk.Meta
	for twin := range m {
		var err error
		if m[twin], err = s.Arr.PeekMeta(g, parity(twin)); err != nil {
			t.Fatal(err)
		}
	}
	cur, ok := twinpage.CurrentParity(m[0], m[1], nil)
	if !ok {
		t.Fatalf("group %d has no valid twin on the platter: %+v", g, m)
	}
	return cur
}

// TestRestartHeaderReads: a soft restart of a healthy twinned array reads
// each group's two headers once — 2·G transfers, where the scan and the
// bitmap pass used to make 4·G — and a group a loser's undo rewrote adds the
// undo's own transfers and its two headers read again.  A hard restart
// reads every block once and no header by itself.
func TestRestartHeaderReads(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	groups := int64(s.Arr.NumGroups())
	blocks := groups * int64(s.Arr.GroupWidth()+2)

	rep, c := restart(t, s, false)
	if r, w := c.n[disk.OpReadMeta].Load(), c.n[disk.OpWrite].Load()+c.n[disk.OpWriteMeta].Load(); r != 2*groups || w != 0 || c.n[disk.OpRead].Load() != 0 {
		t.Fatalf("clean soft restart: %d header read(s), %d block read(s), %d write(s); want %d, 0, 0", r, c.n[disk.OpRead].Load(), w, 2*groups)
	}
	if got := passTransfers(t, rep, "walk"); got != 2*groups {
		t.Fatalf("walk pass: %d transfers, want %d", got, 2*groups)
	}

	// One loser: Figure 6 reads the tagged page, both twins and the page
	// again, writes the page and the twin's header; the bitmap pass reads
	// the rewritten group from the platter.
	stealLoser(t, s, 5)
	rep, c = restart(t, s, false)
	if rep.UndoneViaParity != 1 {
		t.Fatalf("undone via parity = %d, want 1", rep.UndoneViaParity)
	}
	if walk, undo, bitmap := passTransfers(t, rep, "walk"), passTransfers(t, rep, "undo"), passTransfers(t, rep, "bitmap"); walk != 2*groups || undo != 6 || bitmap != 2 {
		t.Fatalf("one-loser soft restart: walk %d, undo %d, bitmap %d transfers; want %d, 6, 2", walk, undo, bitmap, 2*groups)
	}

	_, c = restart(t, s, true)
	if r, m := c.n[disk.OpRead].Load(), c.n[disk.OpReadMeta].Load(); r != blocks || m != 0 {
		t.Fatalf("clean hard restart: %d block read(s) and %d header read(s), want %d and 0", r, m, blocks)
	}
	if err := s.VerifyParityInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedRestartHeaderReads: with a drive down a soft restart still
// reads each group's two index headers once — P's, or the Q partner's where
// the P twin is down — and then reads the one data page a paired winner
// names, its echo, in every group that has lost a block: 2·G + the paired
// winners, and no write when there is no loser.  Every group of the array
// holds a block on the dead drive, a data page or a redundancy slot.
func TestDegradedRestartHeaderReads(t *testing.T) {
	for _, dead := range []int{0, 3} {
		t.Run(fmt.Sprintf("p+q, disk %d down", dead), func(t *testing.T) {
			arr, err := diskarray.New(diskarray.Config{Kind: diskarray.RAID5Twin, DataDisks: 4, NumPages: 48, PageSize: page.MinSize, QParity: true})
			if err != nil {
				t.Fatal(err)
			}
			s := core.NewStore(arr, wal.New(wal.Config{LogPageSize: 256, WriteCost: 4}), txn.NewManager())
			for p := 0; p < arr.NumPages(); p += 3 {
				if err := s.WriteCommitted(page.PageID(p), pattern(page.MinSize, byte(p)), nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := arr.FailDisk(dead); err != nil {
				t.Fatal(err)
			}
			s.EnterDegraded(dead)
			// The paired winners, from the headers as the platter holds them.
			groups, paired := int64(arr.NumGroups()), int64(0)
			for g := page.GroupID(0); int64(g) < groups; g++ {
				var m [2]disk.Meta
				for twin := range m {
					for _, r := range []diskarray.Red{parity(twin), qpage(twin)} {
						if s.SlotAlive(g, r) {
							if m[twin], err = arr.PeekMeta(g, r); err != nil {
								t.Fatal(err)
							}
							break
						}
					}
				}
				cur, _ := twinpage.CurrentParity(m[0], m[1], nil)
				if w := m[cur]; w.State == disk.StateCommitted && w.PairedSet && !s.PageUnavailable(w.DirtyPage) {
					paired++
				}
			}
			if paired == 0 {
				t.Fatal("no group's winner is paired: the row checks nothing")
			}
			rep, c := restart(t, s, false)
			reads, meta, writes := c.n[disk.OpRead].Load(), c.n[disk.OpReadMeta].Load(), c.n[disk.OpWrite].Load()+c.n[disk.OpWriteMeta].Load()
			if meta != 2*groups || reads != paired || writes != 0 {
				t.Fatalf("%d header read(s), %d block read(s), %d write(s); want %d, %d, 0", meta, reads, writes, 2*groups, paired)
			}
			if walk, undo, bitmap := passTransfers(t, rep, "walk"), passTransfers(t, rep, "undo"), passTransfers(t, rep, "bitmap"); walk != 2*groups || undo != 0 || bitmap != paired {
				t.Fatalf("walk %d, undo %d, bitmap %d transfers; want %d, 0, %d", walk, undo, bitmap, 2*groups, paired)
			}
			if err := s.VerifyParityInvariant(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQProxiedLoserIsUndoneByTheLadder: a loser's steal whose working P
// twin sits on a drive that died with the crash leaves its working header on
// the Q partner alone.  The walk reads it there, the undo takes it down the
// ladder — D_old solved through the committed index, the page written back
// — and the index is invalidated on its reachable slot; the tag scan never
// runs for it.
func TestQProxiedLoserIsUndoneByTheLadder(t *testing.T) {
	arr, err := diskarray.New(diskarray.Config{Kind: diskarray.RAID5Twin, DataDisks: 4, NumPages: 48, PageSize: page.MinSize, QParity: true})
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewStore(arr, wal.New(wal.Config{LogPageSize: 256, WriteCost: 4}), txn.NewManager())
	const p = page.PageID(5)
	g := arr.GroupOf(p)
	stealLoser(t, s, p)
	e, ok := s.Dirty.Lookup(g)
	if !ok {
		t.Fatal("the steal left the group clean")
	}
	working := e.WorkingTwin
	dead := arr.Loc(g, parity(working)).Disk
	if err := arr.FailDisk(dead); err != nil {
		t.Fatal(err)
	}
	s.EnterDegraded(dead)
	rep, _ := restart(t, s, false)
	if rep.UndoneViaReconstruction != 1 || len(rep.LostPages) != 0 {
		t.Fatalf("report %+v, want one undo through the committed index and no loss", rep)
	}
	got, err := s.ReadPage(p, nil)
	if err != nil || !got.Equal(pattern(page.MinSize, byte(p))) {
		t.Fatalf("page %d after the undo: err %v, want its committed image", p, err)
	}
	if m, err := arr.PeekMeta(g, qpage(working)); err != nil || m.State != disk.StateInvalid {
		t.Fatalf("Q of the working index: %+v (err %v), want invalid", m, err)
	}
	if cur := s.Twins.Current(g); cur != 1-working {
		t.Fatalf("bitmap says index %d, want the committed index %d", cur, 1-working)
	}
}

// TestRestartPassesSumToDelta: a restart runs the passes of the table in
// its order — torn repair and resync after a mid-I/O crash only, REDO under
// ¬FORCE only — and they account for every array transfer of the restart:
// soft and hard, FORCE and ¬FORCE, healthy and with a disk down.
func TestRestartPassesSumToDelta(t *testing.T) {
	for _, hard := range []bool{false, true} {
		for _, redo := range []bool{false, true} {
			for _, down := range []bool{false, true} {
				t.Run(fmt.Sprintf("hard=%v/redo=%v/down=%v", hard, redo, down), func(t *testing.T) {
					s := newStore(t, diskarray.RAID5Twin)
					stealLoser(t, s, 5)
					s.ResetVolatile()
					if down {
						// The disk of a sibling of the stolen page.
						d := s.Arr.DataLoc(6).Disk
						if err := s.Arr.FailDisk(d); err != nil {
							t.Fatal(err)
						}
						s.EnterDegraded(d)
					}
					before := s.Arr.Stats().Transfers()
					rep, err := CrashRecover(s, redo, hard)
					if err != nil {
						t.Fatal(err)
					}
					want := []string{"analyze", "walk"}
					if hard {
						want = append(want, "torn repair")
					}
					want = append(want, "undo", "bitmap", "launder")
					if hard {
						want = append(want, "resync")
					}
					want = append(want, "logged undo")
					if redo {
						want = append(want, "redo")
					}
					var names []string
					var sum int64
					for _, p := range rep.Passes {
						names = append(names, p.Name)
						sum += p.Transfers
					}
					if !slices.Equal(names, want) {
						t.Fatalf("passes %q, want %q", names, want)
					}
					if delta := s.Arr.Stats().Transfers() - before; sum != delta || delta == 0 {
						t.Fatalf("passes %+v sum to %d transfers, the restart made %d", rep.Passes, sum, delta)
					}
				})
			}
		}
	}
}

// TestBitmapFollowsThePlatterWhereAPassRewrote: the walk's table answers
// Figure 7 only for groups nothing rewrote since.  Each case leaves a group
// whose headers as the walk read them pick one twin and whose headers after
// the pass in between pick the other; the bitmap must hold the platter's.
func TestBitmapFollowsThePlatterWhereAPassRewrote(t *testing.T) {
	const p = page.PageID(5)

	// A loser's steal whose undo cannot run Figure 6 (the tagged page
	// carries an older timestamp than the working twin: a cut re-steal) and
	// whose committed twin is corrupt: the ladder ends in loseGroup, which
	// re-establishes index 0 committed under a fresh timestamp.  The walk
	// read index 1 committed and index 0 a loser's.
	t.Run("undo ladder to loseGroup", func(t *testing.T) {
		s := newStore(t, diskarray.RAID5Twin)
		g := s.Arr.GroupOf(p)
		tx, stolen := stealLoser(t, s, p)
		wm, err := s.Arr.PeekMeta(g, parity(0))
		if err != nil || wm.State != disk.StateWorking {
			t.Fatalf("twin 0 header %+v (err %v), want the steal's working header", wm, err)
		}
		if err := s.Arr.WriteData(p, stolen, disk.Meta{Txn: tx, Timestamp: wm.Timestamp - 1, ChainSet: true}); err != nil {
			t.Fatal(err)
		}
		loc := s.Arr.Loc(g, parity(1))
		if err := s.Arr.Disk(loc.Disk).Corrupt(loc.Block); err != nil {
			t.Fatal(err)
		}
		rep, _ := restart(t, s, false)
		if len(rep.LostPages) == 0 {
			t.Fatalf("the undo did not reach loseGroup: %+v", rep)
		}
		if cur := s.Twins.Current(g); cur != 0 || cur != platterCurrent(t, s, g) {
			t.Fatalf("bitmap says twin %d, the platter twin %d, want both 0", cur, platterCurrent(t, s, g))
		}
	})

	// A lost write to the obsolete twin: the hard walk's read of it fails
	// and yields no header, so the table picks the other twin; the repair
	// rebuilds it committed under a fresh timestamp, the newest on disk.
	t.Run("torn twin repaired", func(t *testing.T) {
		s := newStore(t, diskarray.RAID5Twin)
		g := s.Arr.GroupOf(p)
		if err := s.WriteCommitted(p, pattern(page.MinSize, 1), nil); err != nil {
			t.Fatal(err)
		}
		obsolete := s.Twins.Obsolete(g)
		loc := s.Arr.Loc(g, parity(obsolete))
		c := &opCounter{lose: &loc}
		s.SetInjector(c)
		if err := s.Arr.Write(g, parity(obsolete), pattern(page.MinSize, 9), disk.Meta{State: disk.StateObsolete}); err != nil {
			t.Fatal(err)
		}
		rep, _ := restart(t, s, true)
		if rep.RepairedTorn != 1 {
			t.Fatalf("repaired %d torn block(s), want 1", rep.RepairedTorn)
		}
		if cur := s.Twins.Current(g); cur != obsolete || cur != platterCurrent(t, s, g) {
			t.Fatalf("bitmap says twin %d, the platter twin %d, want both %d", cur, platterCurrent(t, s, g), obsolete)
		}
		if err := s.VerifyParityInvariant(); err != nil {
			t.Fatal(err)
		}
	})
}
