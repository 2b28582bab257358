package core

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/page"
	"repro/internal/txn"
	"repro/internal/wal"
)

// settleAfterCrash drops the store's volatile state and runs the soft walk
// and the bitmap rebuild over it, every writer counted committed.
func settleAfterCrash(t *testing.T, s *Store) {
	t.Helper()
	s.ResetVolatile()
	w, err := s.WalkGroups(anyWriter, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Settle(); err != nil {
		t.Fatal(err)
	}
}

// failDisk takes drive d down and serves around it.
func failDisk(t *testing.T, s *Store, d int) {
	t.Helper()
	if err := s.Arr.FailDisk(d); err != nil {
		t.Fatal(err)
	}
	s.EnterDegraded(d)
}

// TestSettleEstablishesWhenNoIndexIsValid: a degraded group whose indexes
// both answer with a header Figure 7 refuses is established from its data —
// index 0, recomputed committed under a fresh timestamp on its reachable
// slots — instead of failing the restart.
func TestSettleEstablishesWhenNoIndexIsValid(t *testing.T) {
	arr, err := diskarray.New(diskarray.Config{Kind: diskarray.RAID5Twin, DataDisks: 4, NumPages: 48, PageSize: page.MinSize, QParity: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(arr, wal.New(wal.DefaultConfig()), txn.NewManager())
	const g = page.GroupID(2)
	if err := s.WriteCommitted(s.Arr.GroupPage(g, 1), pattern(page.MinSize, 5), nil); err != nil {
		t.Fatal(err)
	}
	failDisk(t, s, s.Arr.Loc(g, diskarray.P.Twin(1)).Disk) // a slot, no data page
	for twin := 0; twin < 2; twin++ {
		if err := s.WriteIndexMeta(g, twin, invalid); err != nil {
			t.Fatal(err)
		}
	}
	settleAfterCrash(t, s)
	if cur := s.Twins.Current(g); cur != 0 {
		t.Fatalf("bitmap says index %d, want the established index 0", cur)
	}
	for _, eq := range s.Arr.Equations() {
		r := eq.Twin(0)
		m, err := s.Arr.PeekMeta(g, r)
		if err != nil || m.State != disk.StateCommitted || m.Timestamp == 0 {
			t.Fatalf("%s of index 0: header %+v (err %v), want committed under a fresh timestamp", eq, m, err)
		}
		if ok, err := s.Verify(g, r); !ok || err != nil {
			t.Fatalf("%s of index 0 does not describe the data (err %v)", eq, err)
		}
	}
}

// TestSettleEstablishesOverAnUnreachableRival: on twin parity with a P twin
// down, the surviving index's header was never compared with anything.  Here
// it is a committed flip whose data write the crash cut (a broken echo, the
// in-place overwrite a degraded write makes when the other index has no
// slot): settle establishes the index from the platter rather than keep it.
func TestSettleEstablishesOverAnUnreachableRival(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	const g = page.GroupID(3)
	p := s.Arr.GroupPage(g, 2)
	if err := s.WriteCommitted(p, pattern(page.MinSize, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCommitted(p, pattern(page.MinSize, 2), nil); err != nil {
		t.Fatal(err)
	}
	cur := s.Twins.Current(g)
	m, err := s.Arr.PeekMeta(g, diskarray.P.Twin(cur))
	if err != nil || !m.PairedSet || m.DirtyPage != p {
		t.Fatalf("winner header %+v (err %v), want a flip pairing page %d", m, err, p)
	}
	// The data write never landed: the page still holds the first version,
	// under the first flip's echo.
	if err := s.Arr.WriteData(p, pattern(page.MinSize, 1), disk.Meta{Timestamp: m.Timestamp - 1}); err != nil {
		t.Fatal(err)
	}
	failDisk(t, s, s.Arr.Loc(g, diskarray.P.Twin(1-cur)).Disk)
	settleAfterCrash(t, s)
	if got := s.Twins.Current(g); got != cur {
		t.Fatalf("bitmap says index %d, want the only reachable index %d", got, cur)
	}
	after, err := s.Arr.PeekMeta(g, diskarray.P.Twin(cur))
	if err != nil || after.State != disk.StateCommitted || after.Timestamp <= m.Timestamp {
		t.Fatalf("index %d header %+v (err %v), want committed above the cut flip's %d", cur, after, err, m.Timestamp)
	}
	if ok, err := s.Verify(g, diskarray.P.Twin(cur)); !ok || err != nil {
		t.Fatalf("index %d does not describe the platter (err %v)", cur, err)
	}
}
