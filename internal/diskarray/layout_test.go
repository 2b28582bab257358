package diskarray

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/erasure"
	"repro/internal/page"
)

// loopLayout is the address map as it was computed before the layout
// tables — a loop over the disks (areas) per question — kept as the
// reference the tables are compared against.
type loopLayout struct{ *Array }

func (a loopLayout) redundancyDisk(g, j int) int {
	nd := len(a.disks)
	if a.cfg.Kind.Striped() {
		return (g + j) % nd
	}
	return (g/a.areaSize + j) % nd
}

func (a loopLayout) isParityArea(d, area int) bool {
	nd := len(a.disks)
	for j := 0; j < a.redundancies(); j++ {
		if area == (d-j+nd)%nd {
			return true
		}
	}
	return false
}

func (a loopLayout) nthDataArea(d, i int) int {
	count := 0
	for area := 0; area < a.areas; area++ {
		if a.isParityArea(d, area) {
			continue
		}
		if count == i {
			return area
		}
		count++
	}
	panic("diskarray: data area index out of range")
}

func (a loopLayout) dataAreaRank(d, area int) int {
	rank := 0
	for x := 0; x < area; x++ {
		if !a.isParityArea(d, x) {
			rank++
		}
	}
	return rank
}

func (a loopLayout) stripeDataDisk(g, i int) int {
	var skip [4]int
	r := a.redundancies()
	for j := 0; j < r; j++ {
		skip[j] = a.redundancyDisk(g, j)
	}
	count := 0
	for d := 0; d < len(a.disks); d++ {
		if slices.Contains(skip[:r], d) {
			continue
		}
		if count == i {
			return d
		}
		count++
	}
	panic("diskarray: data disk index out of range")
}

func (a loopLayout) DataLoc(p page.PageID) Loc {
	n := a.cfg.DataDisks
	if a.cfg.Kind.Striped() {
		g := int(p) / n
		return Loc{Disk: a.stripeDataDisk(g, int(p)%n), Block: g}
	}
	perDisk := n * a.areaSize
	d := int(p) / perDisk
	r := int(p) % perDisk
	area := a.nthDataArea(d, r/a.areaSize)
	return Loc{Disk: d, Block: area*a.areaSize + r%a.areaSize}
}

func (a loopLayout) GroupOf(p page.PageID) page.GroupID {
	if a.cfg.Kind.Striped() {
		return page.GroupOf(p, a.cfg.DataDisks)
	}
	return page.GroupID(a.DataLoc(p).Block)
}

func (a loopLayout) GroupPages(g page.GroupID) []page.PageID {
	n := a.cfg.DataDisks
	out := make([]page.PageID, 0, n)
	if a.cfg.Kind.Striped() {
		for i := 0; i < n; i++ {
			out = append(out, page.FirstInGroup(g, n)+page.PageID(i))
		}
		return out
	}
	area := int(g) / a.areaSize
	offset := int(g) % a.areaSize
	perDisk := n * a.areaSize
	for d := 0; d < len(a.disks); d++ {
		if a.isParityArea(d, area) {
			continue
		}
		p := d*perDisk + a.dataAreaRank(d, area)*a.areaSize + offset
		out = append(out, page.PageID(p))
	}
	return out
}

func (a loopLayout) Loc(g page.GroupID, r Red) Loc {
	return Loc{Disk: a.redundancyDisk(int(g), int(r.Eq)*a.parities+r.Twin), Block: int(g)}
}

// forEachGeometry builds every kind × {P, P+Q} × N ∈ {1, 2, 3, 5, 10}, sized
// to three full rotations of the layout plus a last group the requested
// capacity only partly fills.
func forEachGeometry(t *testing.T, fn func(t *testing.T, a *Array)) {
	for _, kind := range allKinds {
		for _, q := range []bool{false, true} {
			for _, n := range []int{1, 2, 3, 5, 10} {
				nd := n + 1
				if kind.Twinned() {
					nd++
				}
				if q {
					nd += nd - n
				}
				cfg := Config{Kind: kind, DataDisks: n, QParity: q, NumPages: 3*nd*n + 1, PageSize: page.MinSize}
				a, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if a.NumDisks() != nd || a.NumGroups() <= 3*nd {
					t.Fatalf("%+v: %d disks, %d groups; want %d disks and more than three rotations", cfg, a.NumDisks(), a.NumGroups(), nd)
				}
				t.Run(fmt.Sprintf("%v/q=%v/n=%d", kind, q, n), func(t *testing.T) { fn(t, a) })
			}
		}
	}
}

// TestLayoutTablesMatchLoops compares every address the tables give —
// DataLoc, GroupOf and GroupIndex of every page, GroupPages and GroupPage of
// every group, Loc of every redundancy page — with the loops they replaced.
func TestLayoutTablesMatchLoops(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, a *Array) {
		ref := loopLayout{a}
		for p := page.PageID(0); int(p) < a.NumPages(); p++ {
			if got, want := a.DataLoc(p), ref.DataLoc(p); got != want {
				t.Fatalf("DataLoc(%d) = %+v, the loop says %+v", p, got, want)
			}
			g := ref.GroupOf(p)
			if got := a.GroupOf(p); got != g {
				t.Fatalf("GroupOf(%d) = %d, the loop says %d", p, got, g)
			}
			if i := a.GroupIndex(p); ref.GroupPages(g)[i] != p {
				t.Fatalf("GroupIndex(%d) = %d, but member %d of group %d is page %d", p, i, i, g, ref.GroupPages(g)[i])
			}
		}
		for g := page.GroupID(0); int(g) < a.NumGroups(); g++ {
			want := ref.GroupPages(g)
			if got := a.GroupPages(g); !slices.Equal(got, want) {
				t.Fatalf("GroupPages(%d) = %v, the loop says %v", g, got, want)
			}
			for i, p := range want {
				if got := a.GroupPage(g, i); got != p {
					t.Fatalf("GroupPage(%d, %d) = %d, the loop says %d", g, i, got, p)
				}
			}
			for _, eq := range a.Equations() {
				for twin := 0; twin < a.ParityPages(); twin++ {
					if got, want := a.Loc(g, eq.Twin(twin)), ref.Loc(g, eq.Twin(twin)); got != want {
						t.Fatalf("Loc(%d, %s twin %d) = %+v, the loop says %+v", g, eq, twin, got, want)
					}
				}
			}
		}
	})
}

// TestEveryGroupOnEveryDisk proves what core.GroupOnDisk used to compute
// group by group: NumDisks = N + the redundancy pages, and a group's blocks
// sit on pairwise different disks, so every group keeps exactly one block
// on every disk — a down disk degrades every group of the array.  The
// reference loops are asked, not the tables.
func TestEveryGroupOnEveryDisk(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, a *Array) {
		ref := loopLayout{a}
		for g := page.GroupID(0); int(g) < a.NumGroups(); g++ {
			blocks := make([]int, a.NumDisks())
			for _, p := range ref.GroupPages(g) {
				blocks[ref.DataLoc(p).Disk]++
			}
			for _, eq := range a.Equations() {
				for twin := 0; twin < a.ParityPages(); twin++ {
					blocks[ref.Loc(g, eq.Twin(twin)).Disk]++
				}
			}
			for d, n := range blocks {
				if n != 1 {
					t.Fatalf("group %d keeps %d blocks on disk %d, want exactly 1", g, n, d)
				}
			}
		}
	})
}

// TestQGroupNoWiderThanTheField pins the bound of the Q equation: g has
// order 255, so 255 data disks is the widest group whose members all have
// distinct coefficients, and 256 is refused.  Single parity has no such
// bound.
func TestQGroupNoWiderThanTheField(t *testing.T) {
	cfg := Config{Kind: RAID5Twin, DataDisks: erasure.MaxMembers, QParity: true, NumPages: 2 * erasure.MaxMembers, PageSize: page.MinSize}
	a, err := New(cfg)
	if err != nil {
		t.Fatalf("Q parity over %d data disks: %v", cfg.DataDisks, err)
	}
	if a.NumDisks() != erasure.MaxMembers+4 {
		t.Fatalf("%d disks, want %d", a.NumDisks(), erasure.MaxMembers+4)
	}
	// The widest disk number must survive the tables' element type.
	last := page.PageID(a.NumPages() - 1)
	if got, want := a.DataLoc(last), (loopLayout{a}).DataLoc(last); got != want || got.Disk != a.NumDisks()-1 {
		t.Fatalf("DataLoc(%d) = %+v, the loop says %+v", last, got, want)
	}
	cfg.DataDisks++
	if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Q parity over %d data disks: err = %v, want ErrBadConfig", cfg.DataDisks, err)
	}
	cfg.QParity = false
	if _, err := New(cfg); err != nil {
		t.Fatalf("single parity over %d data disks: %v", cfg.DataDisks, err)
	}
}
