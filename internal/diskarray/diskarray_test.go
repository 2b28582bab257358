package diskarray

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/page"
)

var allKinds = []Kind{RAID5, RAID5Twin, ParityStripe, ParityStripeTwin}

func mustNew(t *testing.T, kind Kind, n, pages, pageSize int) *Array {
	t.Helper()
	a, err := New(Config{Kind: kind, DataDisks: n, NumPages: pages, PageSize: pageSize})
	if err != nil {
		t.Fatalf("New(%v): %v", kind, err)
	}
	return a
}

// TestTilingBijective checks that the address map is a perfect tiling for
// every organization: every physical block is claimed by exactly one
// logical data page or parity page.
func TestTilingBijective(t *testing.T) {
	for _, kind := range allKinds {
		for _, n := range []int{2, 3, 5, 10} {
			a := mustNew(t, kind, n, 7*n, page.MinSize)
			claimed := make(map[Loc]string)
			for p := 0; p < a.NumPages(); p++ {
				loc := a.DataLoc(page.PageID(p))
				if prev, dup := claimed[loc]; dup {
					t.Fatalf("%v n=%d: page %d collides with %s at %+v", kind, n, p, prev, loc)
				}
				claimed[loc] = "data"
			}
			for g := 0; g < a.NumGroups(); g++ {
				for twin := 0; twin < a.ParityPages(); twin++ {
					loc := a.Loc(page.GroupID(g), Red{P, twin})
					if prev, dup := claimed[loc]; dup {
						t.Fatalf("%v n=%d: parity (%d,%d) collides with %s at %+v", kind, n, g, twin, prev, loc)
					}
					claimed[loc] = "parity"
				}
			}
			total := a.NumDisks() * a.Disk(0).NumBlocks()
			if len(claimed) != total {
				t.Fatalf("%v n=%d: claimed %d of %d blocks", kind, n, len(claimed), total)
			}
		}
	}
}

// TestGroupStructure checks the fundamental parity-group invariants: N
// members, each on a distinct disk, none sharing a disk with the group's
// parity page(s), and GroupOf consistent with GroupPages.
func TestGroupStructure(t *testing.T) {
	for _, kind := range allKinds {
		a := mustNew(t, kind, 4, 64, page.MinSize)
		for g := 0; g < a.NumGroups(); g++ {
			gid := page.GroupID(g)
			pages := a.GroupPages(gid)
			if len(pages) != a.GroupWidth() {
				t.Fatalf("%v: group %d has %d members, want %d", kind, g, len(pages), a.GroupWidth())
			}
			disks := make(map[int]bool)
			for twin := 0; twin < a.ParityPages(); twin++ {
				d := a.Loc(gid, Red{P, twin}).Disk
				if disks[d] {
					t.Fatalf("%v: group %d twin parity pages share disk %d", kind, g, d)
				}
				disks[d] = true
			}
			for _, p := range pages {
				if got := a.GroupOf(p); got != gid {
					t.Fatalf("%v: GroupOf(%d) = %d, want %d", kind, p, got, g)
				}
				d := a.DataLoc(p).Disk
				if disks[d] {
					t.Fatalf("%v: group %d has two members on disk %d", kind, g, d)
				}
				disks[d] = true
			}
		}
	}
}

// TestParityStripingSequential checks Gray's defining property: logical
// pages on the same disk occupy monotonically increasing block numbers,
// so a sequential scan of one disk's pages never seeks backwards.
func TestParityStripingSequential(t *testing.T) {
	for _, kind := range []Kind{ParityStripe, ParityStripeTwin} {
		a := mustNew(t, kind, 4, 96, page.MinSize)
		lastBlock := make(map[int]int) // disk -> last block seen
		for p := 0; p < a.NumPages(); p++ {
			loc := a.DataLoc(page.PageID(p))
			if last, ok := lastBlock[loc.Disk]; ok && loc.Block <= last {
				t.Fatalf("%v: page %d breaks per-disk sequentiality (disk %d block %d after %d)",
					kind, p, loc.Disk, loc.Block, last)
			}
			lastBlock[loc.Disk] = loc.Block
		}
		// Data fills disks in order: page 0 on disk 0 and the last page on
		// the last disk.
		if d := a.DataLoc(0).Disk; d != 0 {
			t.Fatalf("%v: first page on disk %d, want 0", kind, d)
		}
		if d := a.DataLoc(page.PageID(a.NumPages() - 1)).Disk; d != a.NumDisks()-1 {
			t.Fatalf("%v: last page on disk %d, want %d", kind, d, a.NumDisks()-1)
		}
	}
}

// TestRotatedParityLayoutFigure1 pins the RAID5 rotated-parity placement
// of Figure 1: with N=3 (four disks) the parity page of stripe g lives on
// disk g mod 4, so no single disk serves all parity traffic.
func TestRotatedParityLayoutFigure1(t *testing.T) {
	a := mustNew(t, RAID5, 3, 24, page.MinSize)
	seen := make(map[int]int)
	for g := 0; g < a.NumGroups(); g++ {
		loc := a.Loc(page.GroupID(g), Red{P, 0})
		if loc.Disk != g%4 {
			t.Fatalf("stripe %d parity on disk %d, want %d", g, loc.Disk, g%4)
		}
		if loc.Block != g {
			t.Fatalf("stripe %d parity at block %d, want %d", g, loc.Block, g)
		}
		seen[loc.Disk]++
	}
	if len(seen) != 4 {
		t.Fatalf("parity rotated over %d disks, want 4", len(seen))
	}
}

// TestParityStripingLayoutFigure2 pins the parity striping placement of
// Figure 2: disk x reserves its area x for parity and data areas are
// contiguous runs.
func TestParityStripingLayoutFigure2(t *testing.T) {
	a := mustNew(t, ParityStripe, 3, 48, page.MinSize)
	if a.NumDisks() != 4 {
		t.Fatalf("disks = %d, want 4", a.NumDisks())
	}
	for g := 0; g < a.NumGroups(); g++ {
		area := g / a.areaSize
		loc := a.Loc(page.GroupID(g), Red{P, 0})
		if loc.Disk != area {
			t.Fatalf("group %d (area %d) parity on disk %d, want %d", g, area, loc.Disk, area)
		}
		// The parity block sits inside disk `area`'s own area `area`.
		if loc.Block/a.areaSize != area {
			t.Fatalf("group %d parity block %d outside area %d", g, loc.Block, area)
		}
	}
}

// TestTwinDataStripingFigure4 and TestTwinParityStripingFigure5 pin the
// twin placements: the two parity pages of a group always occupy adjacent
// distinct disks (P_x on disk x, P_x' on disk (x+1) mod numDisks).
func TestTwinDataStripingFigure4(t *testing.T) {
	a := mustNew(t, RAID5Twin, 3, 30, page.MinSize)
	if a.NumDisks() != 5 {
		t.Fatalf("disks = %d, want 5 (N+2)", a.NumDisks())
	}
	for g := 0; g < a.NumGroups(); g++ {
		p0 := a.Loc(page.GroupID(g), Red{P, 0})
		p1 := a.Loc(page.GroupID(g), Red{P, 1})
		if p0.Disk != g%5 || p1.Disk != (g+1)%5 {
			t.Fatalf("stripe %d twins on disks (%d,%d), want (%d,%d)",
				g, p0.Disk, p1.Disk, g%5, (g+1)%5)
		}
	}
}

func TestTwinParityStripingFigure5(t *testing.T) {
	a := mustNew(t, ParityStripeTwin, 3, 60, page.MinSize)
	if a.NumDisks() != 5 {
		t.Fatalf("disks = %d, want 5 (N+2)", a.NumDisks())
	}
	for g := 0; g < a.NumGroups(); g++ {
		area := g / a.areaSize
		p0 := a.Loc(page.GroupID(g), Red{P, 0})
		p1 := a.Loc(page.GroupID(g), Red{P, 1})
		if p0.Disk != area || p1.Disk != (area+1)%5 {
			t.Fatalf("group %d twins on disks (%d,%d), want (%d,%d)",
				g, p0.Disk, p1.Disk, area, (area+1)%5)
		}
	}
}

func TestStorageOverhead(t *testing.T) {
	// Section 6: "The extra storage used is about (100/N)% of the size of
	// the database" per parity copy.  We verify the exact raw-capacity
	// fractions: 1/(N+1) single, 2/(N+2) twin.
	for _, n := range []int{5, 10, 20} {
		single := mustNew(t, RAID5, n, 10*n, page.MinSize)
		twin := mustNew(t, RAID5Twin, n, 10*n, page.MinSize)
		if got, want := single.StorageOverhead(), 1.0/float64(n+1); got != want {
			t.Errorf("N=%d single overhead %v, want %v", n, got, want)
		}
		if got, want := twin.StorageOverhead(), 2.0/float64(n+2); got != want {
			t.Errorf("N=%d twin overhead %v, want %v", n, got, want)
		}
	}
}

func fillRandom(t *testing.T, a *Array, seed int64) map[page.PageID]page.Buf {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	contents := make(map[page.PageID]page.Buf)
	for p := 0; p < a.NumPages(); p++ {
		buf := page.NewBuf(a.PageSize())
		r.Read(buf)
		pid := page.PageID(p)
		if err := a.WriteData(pid, buf, disk.Meta{}); err != nil {
			t.Fatal(err)
		}
		contents[pid] = buf
	}
	for g := 0; g < a.NumGroups(); g++ {
		for twin := 0; twin < a.ParityPages(); twin++ {
			meta := disk.Meta{State: disk.StateCommitted, Timestamp: 1}
			if twin == 1 {
				meta.State = disk.StateObsolete
			}
			blocks := make([]page.Buf, a.GroupWidth())
			if err := a.ReadGroup(page.GroupID(g), blocks); err != nil {
				t.Fatal(err)
			}
			if err := a.Write(page.GroupID(g), Red{P, twin}, P.Compute(a.PageSize(), page.Raw(blocks)...), meta); err != nil {
				t.Fatal(err)
			}
		}
	}
	return contents
}

// TestRebuildOfSomeDownDrives: swapping one of two dead drives of a P+Q
// array keeps the other down through the rebuild, and FinishRebuild leaves
// the array degraded around it.
func TestRebuildOfSomeDownDrives(t *testing.T) {
	a, err := New(Config{Kind: RAID5Twin, QParity: true, DataDisks: 3, NumPages: 24, PageSize: page.MinSize})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{0, 1} {
		if err := a.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.BeginRebuild(0); err != nil {
		t.Fatal(err)
	}
	if h, down, _ := a.HealthView(); h != Rebuilding || !slices.Equal(down, []int{0, 1}) {
		t.Fatalf("rebuilding disk 0: health %v, down %v; want rebuilding, [0 1]", h, down)
	}
	a.FinishRebuild()
	if h, down, _ := a.HealthView(); h != Degraded || !slices.Equal(down, []int{1}) {
		t.Fatalf("after the rebuild of disk 0: health %v, down %v; want degraded, [1]", h, down)
	}
}

// TestHealthGenerationMovesWithEveryChange: every change of the health
// state or the down set advances the generation HealthView reports, and
// nothing else does — a down drive erring again leaves it where it was.  A
// replacement dying mid-rebuild falls back to Degraded over the same down
// set, under a new generation.
func TestHealthGenerationMovesWithEveryChange(t *testing.T) {
	a, err := New(Config{Kind: RAID5Twin, QParity: true, DataDisks: 3, NumPages: 24, PageSize: page.MinSize})
	if err != nil {
		t.Fatal(err)
	}
	_, _, last := a.HealthView()
	step := func(what string, want Health, down []int, moved bool) {
		t.Helper()
		h, got, gen := a.HealthView()
		if h != want || !slices.Equal(got, down) || (gen != last) != moved {
			t.Fatalf("%s: health %v, down %v, generation %d → %d; want %v, %v, moved %v", what, h, got, last, gen, want, down, moved)
		}
		last = gen
	}
	step("fresh", Healthy, nil, false)
	for _, d := range []int{0, 1} {
		if err := a.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	step("two losses", Degraded, []int{0, 1}, true)
	if err := a.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	step("a down drive again", Degraded, []int{0, 1}, false)
	if err := a.BeginRebuild(0, 1); err != nil {
		t.Fatal(err)
	}
	step("the drive swap", Rebuilding, []int{0, 1}, true)
	if err := a.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	step("a replacement dies", Degraded, []int{0, 1}, true)
	if err := a.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	step("a third loss", Failed, []int{0, 1, 2}, true)
	if err := a.BeginRebuild(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	a.FinishRebuild()
	step("the repair", Healthy, nil, true)
}

// TestFailAndRepairDisk checks the drive swap itself on every kind: a
// failed drive refuses I/O, and its replacement comes back zeroed with the
// other drives' pages untouched.  Reconstructing the replacement's
// contents is media recovery's job (internal/recovery, which loses every
// drive of every kind in turn).
func TestFailAndRepairDisk(t *testing.T) {
	for _, kind := range allKinds {
		a := mustNew(t, kind, 3, 24, page.MinSize)
		contents := fillRandom(t, a, int64(kind)+10)
		d := a.DataLoc(0).Disk
		if err := a.FailDisk(d); err != nil {
			t.Fatal(err)
		}
		if !a.DiskFailed(d) {
			t.Fatalf("%v: disk %d should be failed", kind, d)
		}
		if _, _, err := a.ReadData(0, nil); !errors.Is(err, disk.ErrFailed) {
			t.Fatalf("%v: read from failed disk: err = %v, want ErrFailed", kind, err)
		}
		if err := a.BeginRebuild(d); err != nil {
			t.Fatal(err)
		}
		a.FinishRebuild()
		for p, want := range contents {
			got, err := a.PeekData(p)
			if err != nil {
				t.Fatal(err)
			}
			if a.DataLoc(p).Disk == d {
				want = page.NewBuf(a.PageSize())
			}
			if !got.Equal(want) {
				t.Fatalf("%v: page %d wrong after swapping disk %d", kind, p, d)
			}
		}
	}
}

// nextWrite subverts the next payload write the drives see with dec.
type nextWrite struct {
	dec   disk.Decision
	armed bool
}

func (w *nextWrite) Observe(a disk.Access) disk.Decision {
	if a.Op != disk.OpWrite || !w.armed {
		return disk.Decision{}
	}
	w.armed = false
	return w.dec
}

// TestLedgerRecordsTheAcknowledgedPayload: whatever the platter makes of an
// acknowledged write — it lands, a bit flips, half of it lands, none of it
// does, or it lands on another block — the NVRAM ledger records the sum of
// the payload the array handed the drive, and the next verified read of the
// block fails with the class that names the fault.
func TestLedgerRecordsTheAcknowledgedPayload(t *testing.T) {
	for k, c := range []struct {
		name string
		dec  disk.Decision
		want error // the next read of the written block
	}{
		{"clean", disk.Decision{}, nil},
		{"bit flip", disk.Decision{FlipBit: true, FlipBitOffset: 77}, disk.ErrChecksum},
		{"torn", disk.Decision{Torn: true, TornHead: true}, disk.ErrChecksum},
		{"lost", disk.Decision{LostWrite: true}, disk.ErrLostWrite},
		{"redirected", disk.Decision{Redirect: true}, disk.ErrLostWrite},
	} {
		a := mustNew(t, RAID5, 3, 24, page.MinSize)
		const p = 4
		loc := a.DataLoc(p)
		victim := page.PageID(p)
		for q := range page.PageID(a.NumPages()) {
			if l := a.DataLoc(q); l.Disk == loc.Disk && l.Block != loc.Block {
				victim = q
				break
			}
		}
		if victim == p {
			t.Fatalf("no other data block on disk %d", loc.Disk)
		}
		victimSum := a.ledger[loc.Disk][a.DataLoc(victim).Block]
		inj := &nextWrite{dec: c.dec, armed: true}
		inj.dec.RedirectBlock = a.DataLoc(victim).Block
		a.SetInjector(inj)
		payload := page.NewBuf(page.MinSize)
		for i := range payload {
			payload[i] = byte(k + 3*i + 1)
		}
		if err := a.WriteData(p, payload, disk.Meta{}); err != nil {
			t.Fatalf("%s: write: %v", c.name, err)
		}
		if got, want := a.ledger[loc.Disk][loc.Block], payload.Checksum(); got != want {
			t.Errorf("%s: ledger holds %08x, want the payload's %08x", c.name, got, want)
		}
		if _, _, err := a.ReadData(p, nil); !errors.Is(err, c.want) || (c.want == nil) != (err == nil) {
			t.Errorf("%s: read of the written page: err %v, want %v", c.name, err, c.want)
		}
		_, _, err := a.ReadData(victim, nil)
		if c.dec.Redirect {
			if !errors.Is(err, disk.ErrStamp) {
				t.Errorf("%s: read of the victim: err %v, want %v", c.name, err, disk.ErrStamp)
			}
			if got := a.ledger[loc.Disk][a.DataLoc(victim).Block]; got != victimSum {
				t.Errorf("%s: the victim's ledger entry moved from %08x to %08x", c.name, victimSum, got)
			}
		} else if err != nil {
			t.Errorf("%s: read of an untouched page: %v", c.name, err)
		}
	}
}

func TestTransferAccountingThroughArray(t *testing.T) {
	a := mustNew(t, RAID5Twin, 3, 12, page.MinSize)
	buf := page.NewBuf(page.MinSize)
	if err := a.WriteData(0, buf, disk.Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.ReadData(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Read(0, Red{P, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Transfers(); got != 3 {
		t.Fatalf("transfers = %d, want 3", got)
	}
	a.ResetStats()
	if a.Stats().Transfers() != 0 {
		t.Fatalf("ResetStats failed")
	}
}

func TestFormatMarksTwinZeroCommitted(t *testing.T) {
	a := mustNew(t, ParityStripeTwin, 3, 30, page.MinSize)
	for g := 0; g < a.NumGroups(); g++ {
		m0, err := a.PeekMeta(page.GroupID(g), Red{P, 0})
		if err != nil {
			t.Fatal(err)
		}
		m1, err := a.PeekMeta(page.GroupID(g), Red{P, 1})
		if err != nil {
			t.Fatal(err)
		}
		if m0.State != disk.StateCommitted || m1.State != disk.StateObsolete {
			t.Fatalf("group %d formatted as (%v,%v), want (committed,obsolete)", g, m0.State, m1.State)
		}
	}
	if a.Stats().Transfers() != 0 {
		t.Fatalf("formatting must not charge transfers")
	}
}

func TestBadConfig(t *testing.T) {
	cases := []Config{
		{Kind: RAID5, DataDisks: 0, NumPages: 10, PageSize: page.MinSize},
		{Kind: RAID5, DataDisks: 4, NumPages: 0, PageSize: page.MinSize},
		{Kind: RAID5, DataDisks: 4, NumPages: 10, PageSize: 1},
		{Kind: Kind(99), DataDisks: 4, NumPages: 10, PageSize: page.MinSize},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestCapacityRounding(t *testing.T) {
	// Requesting a capacity that does not fill whole groups/areas rounds
	// up and all of the extra pages must still be addressable.
	for _, kind := range allKinds {
		a := mustNew(t, kind, 3, 10, page.MinSize)
		if a.NumPages() < 10 {
			t.Fatalf("%v: capacity %d below request", kind, a.NumPages())
		}
		last := page.PageID(a.NumPages() - 1)
		if _, _, err := a.ReadData(last, nil); err != nil {
			t.Fatalf("%v: last page unreadable: %v", kind, err)
		}
	}
}

// TestQuickTilingAnyGeometry quick-checks the address-map bijection over
// arbitrary small geometries and all four organizations.
func TestQuickTilingAnyGeometry(t *testing.T) {
	f := func(kindRaw, nRaw, pagesRaw uint8) bool {
		kind := allKinds[int(kindRaw)%len(allKinds)]
		n := int(nRaw)%8 + 1
		pages := int(pagesRaw)%96 + 1
		a, err := New(Config{Kind: kind, DataDisks: n, NumPages: pages, PageSize: page.MinSize})
		if err != nil {
			return false
		}
		claimed := make(map[Loc]bool)
		for p := 0; p < a.NumPages(); p++ {
			pid := page.PageID(p)
			loc := a.DataLoc(pid)
			if claimed[loc] {
				return false
			}
			claimed[loc] = true
			// Group navigation must be self-consistent.
			g := a.GroupOf(pid)
			found := false
			for _, q := range a.GroupPages(g) {
				if q == pid {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		for g := 0; g < a.NumGroups(); g++ {
			for twin := 0; twin < a.ParityPages(); twin++ {
				loc := a.Loc(page.GroupID(g), Red{P, twin})
				if claimed[loc] {
					return false
				}
				claimed[loc] = true
			}
		}
		return len(claimed) == a.NumDisks()*a.Disk(0).NumBlocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestComputeIntoMatchesCompute: the in-place form overwrites whatever its
// page held and agrees with Compute on both equations, holes included.
func TestComputeIntoMatchesCompute(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	blocks := make([][]byte, 5)
	for i := range blocks {
		if i != 2 {
			blocks[i] = make([]byte, page.MinSize)
			r.Read(blocks[i])
		}
	}
	for _, eq := range []Eq{P, Q} {
		dst := make([]byte, page.MinSize)
		r.Read(dst)
		eq.ComputeInto(dst, blocks...)
		if !bytes.Equal(dst, eq.Compute(page.MinSize, blocks...)) {
			t.Errorf("%s: ComputeInto differs from Compute", eq)
		}
	}
}
