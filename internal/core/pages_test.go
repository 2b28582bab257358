package core

import (
	"runtime"
	"testing"

	"repro/internal/diskarray"
	"repro/internal/page"
	"repro/internal/txn"
	"repro/internal/wal"
)

// allocatedPer returns the bytes allocated per call of fn over n calls
// (after one warming call).
func allocatedPer(n int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestWritesReuseTheirRedundancyPages guards the ownership rule for the
// redundancy images of a write: they are drawn from Store.Pages and go
// back when the write returns, so a warmed store writes — healthy small
// writes on every organization, updates of both twins of a dirty group,
// a chain of writes through one group, a redundancy page recomputed from
// its group, a hard walk's visit to a
// group, degraded P+Q writes and reads (through P, through Q alone and
// through both) and a redundancy page's verification — without allocating a
// page, and the parity invariant holds throughout.
func TestWritesReuseTheirRedundancyPages(t *testing.T) {
	const size = 2048
	build := func(kind diskarray.Kind, q bool) *Store {
		arr, err := diskarray.New(diskarray.Config{Kind: kind, DataDisks: 4, NumPages: 48, PageSize: size, QParity: q})
		if err != nil {
			t.Fatal(err)
		}
		return NewStore(arr, wal.New(wal.DefaultConfig()), txn.NewManager())
	}
	data := pattern(size, 7)
	check := func(name string, s *Store, perOp float64) {
		t.Helper()
		if perOp >= size/2 {
			t.Errorf("%s: %.0f bytes allocated per operation, want well under one %d-byte page", name, perOp, size)
		}
		if err := s.VerifyParityInvariant(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	for _, c := range []struct {
		name string
		kind diskarray.Kind
		q    bool
	}{
		{"raid5", diskarray.RAID5, false},
		{"raid5twin", diskarray.RAID5Twin, false},
		{"raid5twin+q", diskarray.RAID5Twin, true},
		{"paritystripetwin", diskarray.ParityStripeTwin, false},
	} {
		s := build(c.kind, c.q)
		i := 0
		check(c.name, s, allocatedPer(200, func() {
			i++
			data[0] = byte(i)
			if err := s.WriteCommitted(page.PageID(i*5%48), data, nil); err != nil {
				t.Fatal(err)
			}
		}))
	}

	// A dirty group: logged writes of a sibling page update both twins.
	s := build(diskarray.RAID5Twin, true)
	tx := s.TM.Begin()
	if err := s.StealNoLog(0, pattern(size, 9), nil, tx, nil); err != nil {
		t.Fatal(err)
	}
	i := 0
	check("both twins", s, allocatedPer(200, func() {
		i++
		data[0] = byte(i)
		if err := s.WriteLogged(1, data, nil, nil); err != nil {
			t.Fatal(err)
		}
	}))

	// A chain through a clean group: two logged flips and a steal hand the
	// images they wrote and read back from one to the next.  In the second
	// row the steal goes its own way while the chain still carries, and the
	// write the chain cannot serve (the group is dirty by then) ends it.
	// Either way the pages are back on the list afterwards.  A chain is four
	// writes and several closures, so it is held to one page a chain where
	// the other rows are held to half a page a write.
	for _, row := range []struct {
		name    string
		chained bool // the steal is a link of the chain
	}{{"chain", true}, {"chain, ended early", false}} {
		s = build(diskarray.RAID5Twin, true)
		idle, tx, pages := -1, s.TM.Begin(), s.Arr.GroupPages(4)
		check(row.name, s, allocatedPer(200, func() {
			i++
			data[0] = byte(i)
			c := s.Chain(4)
			last := c
			if !row.chained {
				last = nil
			}
			err := s.WriteLogged(pages[0], data, nil, c)
			if err == nil {
				err = s.WriteLogged(pages[1], data, nil, c)
			}
			if err == nil {
				err = s.StealNoLog(pages[2], data, nil, tx, last)
			}
			if err == nil {
				err = s.WriteLogged(pages[3], data, nil, c)
			}
			if err != nil {
				t.Fatal(err)
			}
			c.Release()
			s.CommitGroups(tx)
			if idle < 0 {
				idle = s.Pages.Len()
			} else if n := s.Pages.Len(); n != idle {
				t.Fatalf("the free list holds %d pages after a chain, %d after the one before", n, idle)
			}
		})/2)
	}

	// A redundancy page recomputed from the platter: the group is read into
	// pages from the list and the page computed in one more.
	s = build(diskarray.RAID5Twin, true)
	check("recompute", s, allocatedPer(200, func() {
		i++
		r := diskarray.Eq(i % 2).Twin(s.currentTwin(3))
		meta, err := s.Arr.PeekMeta(3, r)
		if err == nil {
			err = s.recompute(3, r, meta)
		}
		if err != nil {
			t.Fatal(err)
		}
	}))

	// The hard walk: a lane reads every group it visits into the same pages
	// and sums the equations in one more, so a visit allocates no page.
	s = build(diskarray.RAID5Twin, true)
	check("hard walk, per group", s, allocatedPer(50, func() {
		w, err := s.WalkGroups(anyWriter, true)
		if err != nil || len(w.Torn) != 0 {
			t.Fatalf("hard walk of a sound array: torn %v, err %v", w.Torn, err)
		}
	})/float64(s.Arr.NumGroups()))

	// One drive down on a P+Q array: wholesale degraded writes, and
	// degraded reads into the caller's page.
	s = build(diskarray.RAID5Twin, true)
	dead := s.Arr.DataLoc(2).Disk
	if err := s.Arr.FailDisk(dead); err != nil {
		t.Fatal(err)
	}
	s.EnterDegraded(dead)
	check("degraded write", s, allocatedPer(200, func() {
		i++
		data[0] = byte(i)
		if err := s.WriteCommitted(2, data, nil); err != nil {
			t.Fatal(err)
		}
	}))
	dst := page.NewBuf(size)
	readsBack := func(s *Store) func() {
		return func() {
			got, err := s.ReadPage(2, dst)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(data) {
				t.Fatal("degraded read returned the wrong image")
			}
		}
	}
	check("degraded read", s, allocatedPer(200, readsBack(s)))

	// Two drives down: the page's own and, in turn, the one under the P
	// page that describes it — the read solves through Q alone, in the Q
	// page it read — and a sibling's — the two-erasure solve, in the P and
	// Q pages.
	for _, row := range []struct {
		name   string
		second func(s *Store) int
	}{
		{"degraded read through Q", func(s *Store) int { return s.Arr.Loc(0, diskarray.P.Twin(s.currentTwin(0))).Disk }},
		{"two-erasure solve", func(s *Store) int { return s.Arr.DataLoc(1).Disk }},
	} {
		s = build(diskarray.RAID5Twin, true)
		if err := s.WriteCommitted(2, data, nil); err != nil {
			t.Fatal(err)
		}
		down := []int{s.Arr.DataLoc(2).Disk, row.second(s)}
		for _, d := range down {
			if err := s.Arr.FailDisk(d); err != nil {
				t.Fatal(err)
			}
		}
		s.EnterDegraded(down...)
		check(row.name, s, allocatedPer(200, readsBack(s)))
	}

	// A redundancy page checked against the platter: summed in one page
	// from the list while the blocks pass through another.
	s = build(diskarray.RAID5Twin, true)
	if err := s.WriteCommitted(2, data, nil); err != nil {
		t.Fatal(err)
	}
	check("verify a Q slot", s, allocatedPer(200, func() {
		if ok, err := s.Verify(0, diskarray.Q.Twin(s.currentTwin(0))); !ok || err != nil {
			t.Fatalf("the current Q page of a sound group: holds %v, err %v", ok, err)
		}
	}))
}

// TestDegradedQuestionsDoNotAllocate guards the yes/no questions every
// degraded operation asks of the layout — is this group degraded, is this
// page unreachable, has the group lost a redundancy slot or a data page —
// on both organizations: table lookups, no member list built to answer.
func TestDegradedQuestionsDoNotAllocate(t *testing.T) {
	for _, kind := range []diskarray.Kind{diskarray.RAID5Twin, diskarray.ParityStripeTwin} {
		arr, err := diskarray.New(diskarray.Config{Kind: kind, DataDisks: 4, NumPages: 96, PageSize: page.MinSize, QParity: true})
		if err != nil {
			t.Fatal(err)
		}
		s := NewStore(arr, wal.New(wal.DefaultConfig()), txn.NewManager())
		if err := arr.FailDisk(3); err != nil {
			t.Fatal(err)
		}
		s.EnterDegraded(3)
		s.MarkRestored(1)
		var degraded, unavailable, deadSlot, lost int
		allocs := testing.AllocsPerRun(20, func() {
			degraded, unavailable, deadSlot, lost = 0, 0, 0, 0
			for g := page.GroupID(0); int(g) < arr.NumGroups(); g++ {
				if s.GroupDegraded(g) {
					degraded++
				}
				if s.hasDeadSlot(g) {
					deadSlot++
				}
				if s.lostData(g) {
					lost++
				}
			}
			for p := page.PageID(0); int(p) < arr.NumPages(); p++ {
				if s.PageUnavailable(p) {
					unavailable++
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %.0f allocations per sweep of the degraded questions, want 0", kind, allocs)
		}
		// One block of every group is on the dead disk, a data page or a
		// redundancy slot, and group 1 is restored.
		if g := arr.NumGroups() - 1; degraded != g || unavailable != lost || deadSlot+lost != g || lost == 0 || deadSlot == 0 {
			t.Errorf("%v: of %d groups %d degraded, %d with a dead slot, %d with lost data, %d pages unavailable",
				kind, arr.NumGroups(), degraded, deadSlot, lost, unavailable)
		}
	}
}

// TestGroupVisitsBuildNoMemberList guards the two group visits that walk a
// group's members by index (Arr.GroupPage) instead of building its page
// list: the hard walk, whose allocations are per walk and not per group, and
// the solve, whose one-erasure case allocates a fixed handful of objects.
// Each row also pins its transfers: every block once for the walk, N − 1
// members and P for the solve.
func TestGroupVisitsBuildNoMemberList(t *testing.T) {
	arr, err := diskarray.New(diskarray.Config{Kind: diskarray.RAID5Twin, DataDisks: 4, NumPages: 192, PageSize: page.MinSize, QParity: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(arr, wal.New(wal.DefaultConfig()), txn.NewManager())
	groups, width := arr.NumGroups(), arr.GroupWidth()
	transfers := func(fn func()) (int64, float64) {
		before := arr.Stats().Transfers()
		allocs := testing.AllocsPerRun(10, fn)
		return (arr.Stats().Transfers() - before) / 11, allocs
	}

	n, allocs := transfers(func() {
		if _, err := s.WalkGroups(anyWriter, true); err != nil {
			t.Fatal(err)
		}
	})
	if want := int64(groups * (width + 4)); n != want || allocs >= float64(groups) {
		t.Errorf("hard walk of %d groups: %d transfers, %.0f allocations; want %d and fewer than one a group", groups, n, allocs, want)
	}

	dead := arr.DataLoc(2).Disk
	if err := arr.FailDisk(dead); err != nil {
		t.Fatal(err)
	}
	s.EnterDegraded(dead)
	n, allocs = transfers(func() {
		vals, _, err := s.SolveGroup(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Pages.Put(vals...)
	})
	if n != int64(width) || allocs > 7 {
		t.Errorf("one-erasure solve: %d transfers, %.0f allocations; want %d and at most 7", n, allocs, width)
	}
}
