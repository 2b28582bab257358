package core

import (
	"strings"
	"testing"

	"repro/internal/diskarray"
	"repro/internal/page"
)

// scrub scrubs every group in order, as a scrub cycle from group 0 does
// (rda.DB.StartScrub), and sums the outcomes of the groups it did not
// skip, which it counts.
func scrub(s *Store) (rep GroupScrub, scanned int, err error) {
	for g := 0; g < s.Arr.NumGroups() && err == nil; g++ {
		var res GroupScrub
		if res, err = s.ScrubGroup(page.GroupID(g)); !res.Skipped {
			scanned++
			rep.LatentErrors += res.LatentErrors
			rep.Repaired += res.Repaired
			rep.ParityRewritten += res.ParityRewritten
		}
	}
	return rep, scanned, err
}

func TestScrubCleanStore(t *testing.T) {
	for _, kind := range []diskarray.Kind{diskarray.RAID5, diskarray.RAID5Twin} {
		s := newStore(t, kind)
		for i := 0; i < 8; i++ {
			if err := s.WriteCommitted(page.PageID(i*5), pattern(page.MinSize, byte(i)), nil); err != nil {
				t.Fatal(err)
			}
		}
		rep, scanned, err := scrub(s)
		if err != nil {
			t.Fatal(err)
		}
		if scanned != s.Arr.NumGroups() {
			t.Fatalf("%v: scanned %d of %d groups", kind, scanned, s.Arr.NumGroups())
		}
		if rep.LatentErrors+rep.Repaired+rep.ParityRewritten != 0 {
			t.Fatalf("%v: clean store reported damage: %+v", kind, rep)
		}
	}
}

func TestScrubRepairsDataAndParity(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	want := pattern(page.MinSize, 0x3C)
	if err := s.WriteCommitted(9, want, nil); err != nil {
		t.Fatal(err)
	}
	// Corrupt the data block.
	loc := s.Arr.DataLoc(9)
	if err := s.Arr.Disk(loc.Disk).Corrupt(loc.Block); err != nil {
		t.Fatal(err)
	}
	// Corrupt a parity block of another group.
	g2 := s.Arr.GroupOf(20)
	ploc := s.Arr.Loc(g2, diskarray.P.Twin(s.Twins.Current(g2)))
	if err := s.Arr.Disk(ploc.Disk).Corrupt(ploc.Block); err != nil {
		t.Fatal(err)
	}
	rep, _, err := scrub(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatentErrors != 2 || rep.Repaired != 2 {
		t.Fatalf("report %+v, want 2 latent / 2 repaired", rep)
	}
	got, err := s.ReadPage(9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("data block not repaired")
	}
	if err := s.VerifyParityInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestScrubRepairsObsoleteTwin(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	if err := s.WriteCommitted(0, pattern(page.MinSize, 1), nil); err != nil {
		t.Fatal(err)
	}
	g := s.Arr.GroupOf(0)
	obsolete := s.Twins.Obsolete(g)
	loc := s.Arr.Loc(g, diskarray.P.Twin(obsolete))
	if err := s.Arr.Disk(loc.Disk).Corrupt(loc.Block); err != nil {
		t.Fatal(err)
	}
	rep, _, err := scrub(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 {
		t.Fatalf("report %+v, want the obsolete twin repaired", rep)
	}
	// After repair both twins must be readable.
	if _, _, err := s.Arr.Read(g, diskarray.P.Twin(obsolete), nil); err != nil {
		t.Fatalf("obsolete twin unreadable after scrub: %v", err)
	}
}

// TestScrubRefusesDirtyStore: a group with a no-log steal in flight is not
// scrubbed — its twin views are in motion — and the rest of the store is.
func TestScrubRefusesDirtyStore(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	tx := s.TM.Begin()
	if err := s.StealNoLog(0, pattern(page.MinSize, 7), nil, tx, nil); err != nil {
		t.Fatal(err)
	}
	if res, err := s.ScrubGroup(s.Arr.GroupOf(0)); err != nil || !res.Skipped {
		t.Fatalf("scrub of the dirty group: %+v, %v; want it skipped", res, err)
	}
	if _, scanned, err := scrub(s); err != nil || scanned != s.Arr.NumGroups()-1 {
		t.Fatalf("scrub scanned %d of %d groups (%v), want all but the dirty one", scanned, s.Arr.NumGroups(), err)
	}
}

func TestScrubDoubleFaultUnrecoverable(t *testing.T) {
	s := newStore(t, diskarray.RAID5)
	g := s.Arr.GroupOf(0)
	pages := s.Arr.GroupPages(g)
	for _, p := range pages[:2] {
		loc := s.Arr.DataLoc(p)
		if err := s.Arr.Disk(loc.Disk).Corrupt(loc.Block); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := scrub(s); err == nil || !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("err = %v, want unrecoverable", err)
	}
}

func TestBulkLoadCore(t *testing.T) {
	for _, kind := range []diskarray.Kind{diskarray.RAID5, diskarray.RAID5Twin} {
		s := newStore(t, kind)
		n := s.Arr.GroupWidth()
		pages := make([]page.Buf, 2*n+1) // two full groups and a loner
		for i := range pages {
			pages[i] = pattern(page.MinSize, byte(i+1))
		}
		stripes, err := s.BulkLoad(0, pages)
		if err != nil {
			t.Fatal(err)
		}
		if stripes != 2 {
			t.Fatalf("%v: %d full stripes, want 2", kind, stripes)
		}
		for i := range pages {
			got, err := s.ReadPage(page.PageID(i), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(pages[i]) {
				t.Fatalf("%v: page %d wrong", kind, i)
			}
		}
		if err := s.VerifyParityInvariant(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

func TestBulkLoadRejectsDirtyGroupAndBadSize(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	tx := s.TM.Begin()
	if err := s.StealNoLog(0, pattern(page.MinSize, 1), nil, tx, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BulkLoad(0, []page.Buf{pattern(page.MinSize, 2)}); err == nil ||
		!strings.Contains(err.Error(), "dirty") {
		t.Fatalf("err = %v, want dirty-group rejection", err)
	}
	if _, err := s.BulkLoad(10, []page.Buf{page.NewBuf(8)}); err == nil ||
		!strings.Contains(err.Error(), "size") {
		t.Fatalf("err = %v, want size rejection", err)
	}
}

func TestReadPageRepairsCorruptBlock(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	want := pattern(page.MinSize, 0x44)
	if err := s.WriteCommitted(3, want, nil); err != nil {
		t.Fatal(err)
	}
	loc := s.Arr.DataLoc(3)
	if err := s.Arr.Disk(loc.Disk).Corrupt(loc.Block); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadPage(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("read repair returned wrong contents")
	}
	// Repair failure path: corrupt a SURVIVOR too — the rebuild must
	// surface an error, not fabricate data.
	if err := s.Arr.Disk(loc.Disk).Corrupt(loc.Block); err != nil {
		t.Fatal(err)
	}
	g := s.Arr.GroupOf(3)
	other := s.Arr.GroupPages(g)[0]
	if other == 3 {
		other = s.Arr.GroupPages(g)[1]
	}
	oloc := s.Arr.DataLoc(other)
	if err := s.Arr.Disk(oloc.Disk).Corrupt(oloc.Block); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadPage(3, nil); err == nil {
		t.Fatalf("double damage must surface an error")
	}
}
