package core

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
	"repro/internal/txn"
	"repro/internal/wal"
)

// pqStore builds a twinned P+Q store of width 4 — eight drives, every one
// holding a block of every group — with group 0 holding known data, on
// queued drives when asked.
func pqStore(t *testing.T, queued bool) (*Store, []page.Buf) {
	t.Helper()
	arr, err := diskarray.New(diskarray.Config{
		Kind: diskarray.RAID5Twin, DataDisks: 4, NumPages: 48, PageSize: page.MinSize, QParity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if queued {
		arr.StartQueues(8, 8)
	}
	s := NewStore(arr, wal.New(wal.DefaultConfig()), txn.NewManager())
	var want []page.Buf
	for i, p := range arr.GroupPages(0) {
		want = append(want, pattern(page.MinSize, byte(0x20*i+3)))
		if err := s.WriteCommitted(p, want[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	return s, want
}

// outstanding runs op against frozen drives and returns once the drives of
// want — and no other — each hold exactly one queued request at the same
// instant: nothing leaves a frozen queue, so the counts of one pass over
// the drives coexist.  Then it thaws the drives and waits for op.  An op
// that issues its transfers one after another never gets there, and fails
// the test after a bounded number of looks rather than by a clock.
func outstanding(t *testing.T, s *Store, want []int, op func()) {
	t.Helper()
	n := s.Arr.NumDisks()
	for d := 0; d < n; d++ {
		s.Arr.Disk(d).Freeze()
	}
	thaw := func() {
		for d := 0; d < n; d++ {
			s.Arr.Disk(d).Thaw()
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		op()
	}()
	queued := make([]int, n)
	for look := 0; ; look++ {
		all := true
		for d := range queued {
			queued[d] = s.Arr.Disk(d).QueueLen()
			if on := slices.Contains(want, d); (queued[d] == 1) != on {
				all = false
			}
		}
		if all {
			break
		}
		if look == 50_000_000 {
			thaw()
			<-done
			t.Fatalf("requests queued per drive %v; want one on each of drives %v together and none elsewhere", queued, want)
		}
		runtime.Gosched()
	}
	thaw()
	<-done
}

func dataDisks(s *Store, g page.GroupID, except ...int) (ds []int) {
	for i, p := range s.Arr.GroupPages(g) {
		if !slices.Contains(except, i) {
			ds = append(ds, s.Arr.DataLoc(p).Disk)
		}
	}
	return ds
}

// TestSolveIssuesReadsTogether: on queued drives a solve's member reads
// and the equation page its known erasure calls for are outstanding at
// once, Q's drive idle; so are a whole-group read's, and the hard walk's
// reads of every block of a group.
func TestSolveIssuesReadsTogether(t *testing.T) {
	s, want := pqStore(t, true)
	cur := s.currentTwin(0)
	pDisk := s.Arr.Loc(0, diskarray.P.Twin(cur)).Disk

	erased := s.Arr.DataLoc(s.Arr.GroupPages(0)[1]).Disk
	outstanding(t, s, append(dataDisks(s, 0, 1), pDisk), func() {
		vals, _, err := s.SolveGroup(0, cur, erased)
		if err != nil {
			t.Error(err)
			return
		}
		for i := range want {
			if !vals[i].Equal(want[i]) {
				t.Errorf("solved member %d differs", i)
			}
		}
	})

	// A member found corrupt by that batch asks for Q only afterwards.
	rot := s.Arr.DataLoc(s.Arr.GroupPages(0)[2])
	if err := s.Arr.Disk(rot.Disk).Corrupt(rot.Block); err != nil {
		t.Fatal(err)
	}
	outstanding(t, s, append(dataDisks(s, 0, 1), pDisk), func() {
		vals, _, err := s.SolveGroup(0, cur, erased)
		if err != nil || !vals[2].Equal(want[2]) {
			t.Errorf("solve past a corrupt member: %v", err)
		}
	})
	if err := s.WriteCommitted(s.Arr.GroupPages(0)[2], want[2], nil); err != nil {
		t.Fatal(err)
	}
	cur = s.currentTwin(0)

	outstanding(t, s, dataDisks(s, 0), func() {
		vals, err := s.ReadGroup(0, diskarray.P.Twin(cur))
		if err != nil {
			t.Error(err)
			return
		}
		for i := range want {
			if !vals[i].Equal(want[i]) {
				t.Errorf("read member %d differs", i)
			}
		}
	})

	every := make([]int, s.Arr.NumDisks())
	for d := range every {
		every[d] = d
	}
	w := &GroupWalk{s: s, committed: anyWriter, groups: make([]groupScan, s.Arr.NumGroups())}
	var sc walkScratch
	sc.init(w)
	outstanding(t, s, every, func() {
		torn, err := sc.readBlocks(0)
		if err != nil || len(torn) != 0 || !w.groups[0].verified {
			t.Errorf("hard visit of a sound group: torn %v, verified %v, err %v", torn, w.groups[0].verified, err)
		}
	})
}

// readCounter counts the charged payload and header reads.
type readCounter struct{ n atomic.Int64 }

func (c *readCounter) Observe(a disk.Access) disk.Decision {
	if !a.Op.IsWrite() {
		c.n.Add(1)
	}
	return disk.Decision{}
}

// TestSolveTransferCounts: a solve reads what the lazy rule always read —
// the members alone at zero erasures, P with one known, Q instead when P is
// gone too, both at two, and Q only afterwards when a read discovers the
// second — on synchronous drives and, issued together, on queued ones.
func TestSolveTransferCounts(t *testing.T) {
	const n = 4
	for _, queued := range []bool{false, true} {
		for _, c := range []struct {
			name    string
			members []int // erased by the caller, with P's drive too when pGone
			pGone   bool
			corrupt int // member whose block rots first, -1: none
			reads   int64
		}{
			{"no erasure", nil, false, -1, n},
			{"one known", []int{1}, false, -1, n - 1 + 1},
			{"one known, P gone", []int{1}, true, -1, n - 1 + 1},
			{"two known", []int{0, 3}, false, -1, n - 2 + 2},
			{"one known, one discovered", []int{1}, false, 2, n - 1 + 2},
		} {
			s, want := pqStore(t, queued)
			cur := s.currentTwin(0)
			pages := s.Arr.GroupPages(0)
			if c.corrupt >= 0 {
				loc := s.Arr.DataLoc(pages[c.corrupt])
				if err := s.Arr.Disk(loc.Disk).Corrupt(loc.Block); err != nil {
					t.Fatal(err)
				}
			}
			var erased []int
			for _, i := range c.members {
				erased = append(erased, s.Arr.DataLoc(pages[i]).Disk)
			}
			if c.pGone {
				erased = append(erased, s.Arr.Loc(0, diskarray.P.Twin(cur)).Disk)
			}
			var count readCounter
			s.Arr.SetInjector(&count)
			vals, _, err := s.SolveGroup(0, cur, erased...)
			s.Arr.SetInjector(nil)
			if err != nil {
				t.Fatalf("%s (queued %v): %v", c.name, queued, err)
			}
			for i := range want {
				if !vals[i].Equal(want[i]) {
					t.Errorf("%s (queued %v): member %d differs", c.name, queued, i)
				}
			}
			if got := count.n.Load(); got != c.reads {
				t.Errorf("%s (queued %v): %d reads, want %d", c.name, queued, got, c.reads)
			}
		}
	}
}

// heldWrite is a disk.Injector that holds the write of one block until a
// read of another has reached its drive.
type heldWrite struct {
	hold, until diskarray.Loc
	seen        chan struct{}
	once        sync.Once
}

func (h *heldWrite) Observe(a disk.Access) disk.Decision {
	loc := diskarray.Loc{Disk: a.Disk, Block: a.Block}
	switch {
	case a.Op == disk.OpRead && loc == h.until:
		h.once.Do(func() { close(h.seen) })
	case a.Op == disk.OpWrite && loc == h.hold:
		select {
		case <-h.seen:
		case <-time.After(10 * time.Second): // only ever reached by a flip that reads back afterwards
			return disk.Decision{Err: errors.New("the read-back did not go out beside the data write")}
		}
	}
	return disk.Decision{}
}

// TestChainedFlipReadsBackBesideItsDataWrite: on queued drives a link of a
// chain has its data write and the read-back of the index it has just
// written outstanding together — the data write here cannot finish before
// the read-back has started — and the steal that follows is handed the
// image and reads no redundancy of its own.
func TestChainedFlipReadsBackBesideItsDataWrite(t *testing.T) {
	s, want := pqStore(t, true)
	pages := s.Arr.GroupPages(0)
	h := &heldWrite{
		hold:  s.Arr.DataLoc(pages[0]),
		until: s.Arr.Loc(0, diskarray.P.Twin(s.Twins.Obsolete(0))),
		seen:  make(chan struct{}),
	}
	s.Arr.SetInjector(h)
	c := s.Chain(0)
	defer c.Release()
	if err := s.WriteLogged(pages[0], pattern(page.MinSize, 0x51), want[0], c); err != nil {
		t.Fatal(err)
	}
	var reads readCounter
	s.Arr.SetInjector(&reads)
	if err := s.StealNoLog(pages[1], pattern(page.MinSize, 0x52), want[1], s.TM.Begin(), c); err != nil {
		t.Fatal(err)
	}
	if n := reads.n.Load(); n != 0 {
		t.Fatalf("the steal after a chained flip made %d read(s), want none: its old contents and its old redundancy came along", n)
	}
	s.Arr.SetInjector(nil)
	if err := s.VerifyParityInvariant(); err != nil {
		t.Fatal(err)
	}
}
