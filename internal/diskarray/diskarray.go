// Package diskarray implements the redundant disk array organizations the
// paper builds on (Section 3):
//
//   - RAID5: block-interleaved data striping with rotated parity
//     (Patterson et al. [3], paper Figure 1).
//   - ParityStripe: Gray's parity striping (Gray, Horst & Walker [2],
//     paper Figure 2) — data written sequentially per disk, with parity
//     gathered into a reserved parity area on each disk.
//   - RAID5Twin and ParityStripeTwin: the same organizations with the
//     paper's twin parity pages (Figures 4 and 5): every parity group has
//     two parity pages placed on two different disks, which is what makes
//     RDA transaction recovery possible (Section 4).
//
// The array maps logical page and parity addresses to (disk, block)
// locations and performs raw block I/O.  Parity *maintenance* — the
// read-modify-write small-write protocol, the twin-page state machine and
// the dirty-group bookkeeping — deliberately lives above this package (in
// internal/core and the engine), because that policy is exactly what the
// paper varies between its recovery schemes.
package diskarray

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/erasure"
	"repro/internal/page"
)

// Kind selects the array organization.
type Kind int

// The four organizations of Figures 1, 2, 4 and 5.
const (
	// RAID5 is data striping with a single rotated parity page per group
	// (Figure 1).
	RAID5 Kind = iota
	// RAID5Twin is data striping with twin rotated parity pages
	// (Figure 4).
	RAID5Twin
	// ParityStripe is Gray's parity striping with a single parity page
	// per group (Figure 2).
	ParityStripe
	// ParityStripeTwin is parity striping with twin parity pages
	// (Figure 5).
	ParityStripeTwin
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case RAID5:
		return "raid5"
	case RAID5Twin:
		return "raid5twin"
	case ParityStripe:
		return "paritystripe"
	case ParityStripeTwin:
		return "paritystripetwin"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Twinned reports whether the organization keeps twin parity pages.
func (k Kind) Twinned() bool { return k == RAID5Twin || k == ParityStripeTwin }

// Striped reports whether the organization interleaves data across disks
// (data striping) as opposed to parity striping's sequential placement.
func (k Kind) Striped() bool { return k == RAID5 || k == RAID5Twin }

// Config describes an array to build.
type Config struct {
	Kind Kind
	// DataDisks is N: the number of data pages per parity group.  The
	// array uses N+1 disks (single parity) or N+2 disks (twin parity);
	// QParity adds one more disk per parity page for the Q redundancy.
	DataDisks int
	// QParity adds a second redundancy equation per group: alongside each
	// P parity page the group keeps a Q page computed over GF(2^8)
	// (internal/erasure), RAID-6 style, so any TWO missing members of a
	// group are recoverable.  Twinned kinds twin Q exactly like P (same
	// twin indexes, promoted in lockstep), so the no-log steal/flip
	// protocols keep their crash-cut detection.  Off by default; existing
	// geometries are untouched unless set.
	QParity bool
	// NumPages is S: the number of logical data pages requested.  The
	// array may round capacity up to fill whole groups/areas.
	NumPages int
	// PageSize is the size of each page/block in bytes.
	PageSize int
}

// The self-healing retry layer's two bounds (see do, in health.go).
const (
	// retryAttempts bounds how many times one block I/O is issued before a
	// transient error is surfaced.
	retryAttempts = 4
	// failStopAfter is K: after K consecutive errored attempts on one disk
	// the array fail-stops it automatically.  K < retryAttempts means a
	// persistently erroring disk is declared dead *within* a single
	// retried operation, so callers see a degraded-servable ErrFailed
	// rather than a transient error.
	failStopAfter = 3
)

// Errors returned by the array.
var (
	ErrBadConfig = errors.New("diskarray: invalid configuration")
)

// Loc is a physical block address.
type Loc struct {
	Disk  int
	Block int
}

// Eq names one of a group's redundancy equations.
type Eq uint8

// The two equations.  XOR parity is the m = 1 case of the erasure code
// (addition in GF(2^8) is XOR), so P and Q differ only in the coefficients
// the kernels below apply.
const (
	// P is XOR parity: P = Σ D_i.
	P Eq = iota
	// Q is the GF(2^8) Reed-Solomon equation of a QParity array:
	// Q = Σ g^i·D_i.
	Q
)

// String implements fmt.Stringer.
func (e Eq) String() string {
	if e == P {
		return "P"
	}
	return "Q"
}

// Compute returns the equation's redundancy page over a group's data
// blocks, given in group order (a nil block counts as zero).
func (e Eq) Compute(size int, blocks ...[]byte) []byte {
	if e == P {
		return erasure.ComputeP(size, blocks...)
	}
	return erasure.ComputeQ(size, blocks...)
}

// ComputeInto is Compute into dst, a page the caller owns and need not
// have cleared.
func (e Eq) ComputeInto(dst []byte, blocks ...[]byte) {
	clear(dst)
	for i, b := range blocks {
		if b != nil {
			e.AddMember(dst, b, i)
		}
	}
}

// AddMember adds the term of the group's i-th data block b to the
// equation's sum: sum ^= b for P, sum ^= g^i·b for Q.
func (e Eq) AddMember(sum, b []byte, i int) {
	if e == P {
		erasure.AddInto(sum, b)
	} else {
		erasure.MulAddInto(sum, b, erasure.Exp(i))
	}
}

// Holds reports whether the redundancy page red satisfies the equation
// over the given data blocks.  The equation is summed into sum, a page the
// caller owns and need not have cleared.
func (e Eq) Holds(sum, red []byte, blocks ...[]byte) bool {
	e.ComputeInto(sum, blocks...)
	return bytes.Equal(sum, red)
}

// SmallWrite folds the update of the group's idx-th data block from
// oldData to newData into the redundancy page img, in place.
func (e Eq) SmallWrite(img, oldData, newData []byte, idx int) {
	if e == P {
		erasure.AddInto(img, oldData)
		erasure.AddInto(img, newData)
	} else {
		erasure.QSmallWrite(img, oldData, newData, idx)
	}
}

// Red is the address of a redundancy page within its group: the equation
// it belongs to and the twin index (always 0 on single-parity kinds).  The
// two pages of one twin index — Red{P, t} and Red{Q, t} — describe the
// same data state and are promoted and invalidated together.
type Red struct {
	Eq   Eq
	Twin int
}

// Twin returns the address of the equation's page of twin index t.
func (e Eq) Twin(t int) Red { return Red{Eq: e, Twin: t} }

// Array is a redundant disk array.  It is safe for concurrent use (each
// underlying disk serializes its own I/O; the address maps are immutable
// after construction).
type Array struct {
	cfg       Config
	disks     []*disk.Disk
	numGroups int
	parities  int // P parity pages per group: 1 or 2
	qparities int // Q redundancy pages per group: 0, or == parities with QParity

	// Parity striping geometry (unused for RAID5 kinds).
	areas    int // areas per disk = disks
	areaSize int // blocks per area

	// Layout tables (see "Address mapping" below), built once by New.  A
	// run is R = redundancies() consecutive numbers mod NumDisks starting
	// at s; nth[s·N+i] is the i-th number of [0, NumDisks) outside the run
	// that starts at s, and rank[s·NumDisks+x] is the inverse: x's position
	// among them, or inRun when x is in the run.  Entries are disk and area
	// numbers, so uint16: a Q group may be erasure.MaxMembers + 4 = 259
	// disks wide, more than a byte numbers, and New refuses an array wider
	// than uint16 does.
	nth  []uint16
	rank []uint16

	// Self-healing state (health.go).
	hmu    sync.Mutex
	health Health
	downd  []int  // failed/rebuilding disks, oldest loss first
	gen    uint64 // health generation: advanced by every change of the two above
	// consec counts consecutive errored attempts per disk.  It is written
	// under hmu, except that a successful transfer clears a non-zero count
	// without it, so the success path of every I/O takes no array-wide lock.
	consec  []atomic.Int32
	healing HealingStats

	// NVRAM write ledger: ledger[d][blk] is the CRC-32C of the payload of
	// the last write disk d acknowledged for block blk.  It models the
	// battery-backed controller NVRAM real arrays keep write intent in, so
	// it SURVIVES crashes (the crash harness resets only volatile state)
	// and is cleared per disk only when a fresh zeroed drive is swapped in
	// (BeginRebuild).  A verified read compares the stored payload's sum —
	// the one the drive just verified the payload against — with the
	// ledger entry; a mismatch means the drive acknowledged a write it
	// never applied here — a lost write, or the stale intended block of a
	// misdirected one — and surfaces disk.ErrLostWrite.  The entries are
	// the drive's own sums of the payloads it acknowledged, so the array
	// hashes nothing itself.  Header-only I/O leaves the ledger untouched.
	ledmu  sync.Mutex
	ledger [][]uint32
}

// New builds and formats an array.  Formatting establishes the all-zero
// consistent state (zero data, zero parity) and, for twinned kinds, marks
// twin 0 of every group as the committed parity; formatting I/O is not
// charged to the statistics.
//
// DataDisks may be 1: a single-parity
// group of width 1 is a mirrored pair (the parity of one page is the
// page itself), and a twinned group of width 1 is the twin-page storage
// scheme of Wu & Fuchs [12] that the paper builds on.
func New(cfg Config) (*Array, error) {
	if cfg.DataDisks < 1 {
		return nil, fmt.Errorf("%w: need at least 1 data disk, got %d", ErrBadConfig, cfg.DataDisks)
	}
	if cfg.NumPages < 1 {
		return nil, fmt.Errorf("%w: need at least 1 page", ErrBadConfig)
	}
	if cfg.PageSize < page.MinSize {
		return nil, fmt.Errorf("%w: page size %d below minimum %d", ErrBadConfig, cfg.PageSize, page.MinSize)
	}
	a := &Array{cfg: cfg}
	n := cfg.DataDisks
	switch cfg.Kind {
	case RAID5, ParityStripe:
		a.parities = 1
	case RAID5Twin, ParityStripeTwin:
		a.parities = 2
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadConfig, int(cfg.Kind))
	}
	if cfg.QParity {
		// Member i's Q coefficient is g^i and g^255 = g^0: a 256th member
		// would be indistinguishable from the first.
		if n > erasure.MaxMembers {
			return nil, fmt.Errorf("%w: Q parity protects at most %d data disks, got %d", ErrBadConfig, erasure.MaxMembers, n)
		}
		// Q mirrors P's twinning: one Q page per P page, each on its own
		// disk, so any two member losses stay inside the redundancy.
		a.qparities = a.parities
	}
	numDisks := n + a.parities + a.qparities
	if numDisks > inRun {
		return nil, fmt.Errorf("%w: %d disks, the layout tables number at most %d", ErrBadConfig, numDisks, inRun)
	}
	groups := (cfg.NumPages + n - 1) / n

	var blocksPerDisk int
	switch cfg.Kind {
	case RAID5, RAID5Twin:
		// One block per disk per stripe.
		blocksPerDisk = groups
	case ParityStripe, ParityStripeTwin:
		// Each disk is divided into `numDisks` areas; `parities` of them
		// hold parity, the rest data (Section 3.2).  Round the group
		// count up so that areas tile exactly.
		a.areas = numDisks
		a.areaSize = (groups + a.areas - 1) / a.areas
		if a.areaSize == 0 {
			a.areaSize = 1
		}
		groups = a.areas * a.areaSize
		blocksPerDisk = a.areas * a.areaSize
	}
	a.numGroups = groups
	a.buildLayout(numDisks)
	a.disks = make([]*disk.Disk, numDisks)
	a.consec = make([]atomic.Int32, numDisks)
	a.ledger = make([][]uint32, numDisks)
	for d := range a.disks {
		a.disks[d] = disk.New(d, blocksPerDisk, cfg.PageSize)
		a.ledger[d] = freshLedger(blocksPerDisk, cfg.PageSize)
	}
	a.format()
	return a, nil
}

// freshLedger returns the write-ledger column of a fresh zeroed drive:
// every block's last acknowledged payload is all zeroes.
func freshLedger(blocks, pageSize int) []uint32 {
	zeroSum := page.NewBuf(pageSize).Checksum()
	out := make([]uint32, blocks)
	for i := range out {
		out[i] = zeroSum
	}
	return out
}

// noteWrite records the sum of an acknowledged payload write in the NVRAM
// ledger.  Called only after the drive returned success — a crash panic
// unwinds before it, so a write the platter never acked is never ledgered.
func (a *Array) noteWrite(loc Loc, sum uint32) {
	a.ledmu.Lock()
	a.ledger[loc.Disk][loc.Block] = sum
	a.ledmu.Unlock()
}

// checkLedger verifies the sum of a successfully read payload against the
// NVRAM ledger, converting a silent lost or misdirected write into a typed
// error in the disk.IsCorrupt class.
func (a *Array) checkLedger(loc Loc, sum uint32) error {
	a.ledmu.Lock()
	want := a.ledger[loc.Disk][loc.Block]
	a.ledmu.Unlock()
	if sum != want {
		return fmt.Errorf("disk %d block %d: stored payload differs from last acknowledged write: %w",
			loc.Disk, loc.Block, disk.ErrLostWrite)
	}
	return nil
}

// resetLedger re-initializes disk d's ledger column for a fresh zeroed
// replacement drive.
func (a *Array) resetLedger(d int) {
	a.ledmu.Lock()
	a.ledger[d] = freshLedger(a.disks[d].NumBlocks(), a.cfg.PageSize)
	a.ledmu.Unlock()
}

// format marks twin 0 of every group committed (on every equation).  A fresh array is all-zero, so zero
// parity — P and Q alike — is already correct for every group; only the
// twin metadata needs initializing.  Statistics are reset afterwards so
// formatting is free, like factory formatting.
func (a *Array) format() {
	write := func(loc Loc, meta disk.Meta) {
		if err := a.disks[loc.Disk].WriteMeta(loc.Block, meta); err != nil {
			panic(fmt.Sprintf("diskarray: format: %v", err))
		}
	}
	committed := disk.Meta{State: disk.StateCommitted, Timestamp: 0}
	obsolete := disk.Meta{State: disk.StateObsolete, Timestamp: 0}
	for g := 0; g < a.numGroups; g++ {
		for _, eq := range a.Equations() {
			write(a.Loc(page.GroupID(g), Red{eq, 0}), committed)
			if a.parities == 2 {
				write(a.Loc(page.GroupID(g), Red{eq, 1}), obsolete)
			}
		}
	}
	a.ResetStats()
}

// PageSize returns the block size in bytes.
func (a *Array) PageSize() int { return a.cfg.PageSize }

// NumDisks returns the number of physical disks.
func (a *Array) NumDisks() int { return len(a.disks) }

// NumGroups returns the number of parity groups (after capacity
// rounding).
func (a *Array) NumGroups() int { return a.numGroups }

// GroupWidth returns N, the number of data pages per parity group.
func (a *Array) GroupWidth() int { return a.cfg.DataDisks }

// NumPages returns the addressable logical page count (numGroups × N,
// which is at least the requested capacity).
func (a *Array) NumPages() int { return a.numGroups * a.cfg.DataDisks }

// ParityPages returns the number of twin indexes per group (1 or 2):
// every equation keeps that many pages.
func (a *Array) ParityPages() int { return a.parities }

// HasQ reports whether the array keeps Q redundancy pages.
func (a *Array) HasQ() bool { return a.qparities > 0 }

// Equations returns the group's redundancy equations, P first.  The slice
// is shared: callers only read it.
func (a *Array) Equations() []Eq {
	if a.qparities > 0 {
		return equationsPQ
	}
	return equationsPQ[:1]
}

var equationsPQ = []Eq{P, Q}

// Twinned reports whether the array keeps twin parity pages.
func (a *Array) Twinned() bool { return a.parities == 2 }

// StorageOverhead returns the fraction of raw capacity spent on
// redundancy: 1/(N+1) for single parity, 2/(N+2) for twin parity, with
// the Q pages added on top when QParity is set.  The paper quotes the
// overhead relative to the database size as about (100/N)% per parity
// copy (Section 6).
func (a *Array) StorageOverhead() float64 {
	r := a.parities + a.qparities
	return float64(r) / float64(a.cfg.DataDisks+r)
}

// --- Address mapping -----------------------------------------------------
//
// Data striping (RAID5/RAID5Twin, Figures 1 and 4): parity group g is the
// stripe of N consecutive logical pages [g·N, g·N+N); every disk
// contributes one block per stripe at block offset g; the parity page of
// stripe g lives on disk g mod numDisks (rotated parity), its twin on the
// next disk, and the data pages occupy the remaining disks in increasing
// order.
//
// Parity striping (ParityStripe/ParityStripeTwin, Figures 2 and 5): each
// disk is divided into numDisks equal areas.  Disk d reserves area d for
// parity (and, in the twin organization, also area (d-1) mod numDisks for
// the twin copies); its other N areas hold data written *sequentially*,
// which is the whole point of Gray's organization.  Logical pages fill
// disk 0's data areas first, then disk 1's, and so on.  The parity group
// is the set of N data blocks found at the same (area, offset) coordinate
// across the N disks for which that area is a data area; its parity lives
// at the same coordinate on disk a (and the twin on disk (a+1) mod
// numDisks), mirroring the paper's P_x / P_x' placement.  Group members
// are therefore *not* consecutive logical pages — they are pages at the
// same relative position of different disks — so all group navigation
// must go through GroupOf/GroupPages rather than arithmetic on page ids.
//
// Both organizations skip the same thing — a run of R = parities +
// qparities consecutive numbers mod NumDisks — and number what is left in
// increasing order: a stripe skips the disks of its redundancy pages (the
// run starting at g mod NumDisks), a parity-striped group likewise (the run
// starting at its area), and a parity-striped disk d skips its parity areas
// (the run *ending* at d).  So one pair of tables, nth and rank, built once
// by New and NumDisks runs long, answers every address question with a
// lookup; the rotation repeats every NumDisks stripes (areas), which is all
// the loops this replaced ever recomputed.
//
// Because NumDisks = N + R and a group's N + R blocks sit on N + R
// different disks, every group keeps exactly one block on every disk: a
// down disk degrades every group of the array.

// inRun marks, in rank, a number inside the skipped run; it also bounds
// NumDisks so that no disk or area number collides with it.
const inRun = math.MaxUint16

// redundancies returns the number of redundancy pages per group: the P
// twins plus, with QParity, the Q twins.
func (a *Array) redundancies() int { return a.parities + a.qparities }

// buildLayout fills nth and rank for an array of nd disks.
func (a *Array) buildLayout(nd int) {
	n, r := a.cfg.DataDisks, a.redundancies()
	a.nth = make([]uint16, nd*n)
	a.rank = make([]uint16, nd*nd)
	for s := 0; s < nd; s++ {
		i := 0
		for x := 0; x < nd; x++ {
			if (x-s+nd)%nd < r {
				a.rank[s*nd+x] = inRun
				continue
			}
			a.nth[s*n+i] = uint16(x)
			a.rank[s*nd+x] = uint16(i)
			i++
		}
	}
}

// rotation returns the start of the run of disks holding group g's
// redundancy pages: page j — P twins first, then Q twins — is on disk
// (rotation + j) mod NumDisks, generalizing the paper's P/P′ twin
// placement.
func (a *Array) rotation(g int) int {
	if a.cfg.Kind.Striped() {
		return g % len(a.disks)
	}
	return g / a.areaSize
}

// parityRun returns the start of the run of areas disk d reserves for
// redundancy: it holds redundancy page j of the groups in area (d-j) mod
// NumDisks, so the run ends at d.
func (a *Array) parityRun(d int) int {
	nd := len(a.disks)
	return (d - a.redundancies() + 1 + nd) % nd
}

// DataLoc returns the physical location of logical data page p: two table
// lookups at most, no loop.
func (a *Array) DataLoc(p page.PageID) Loc {
	n := a.cfg.DataDisks
	if a.cfg.Kind.Striped() {
		g, i := int(p)/n, int(p)%n
		return Loc{Disk: int(a.nth[a.rotation(g)*n+i]), Block: g}
	}
	// Disk d's i-th data area is the i-th area outside its parity run.
	perDisk := n * a.areaSize
	d, r := int(p)/perDisk, int(p)%perDisk
	area := int(a.nth[a.parityRun(d)*n+r/a.areaSize])
	return Loc{Disk: d, Block: area*a.areaSize + r%a.areaSize}
}

// GroupOf returns the parity group of logical page p.
func (a *Array) GroupOf(p page.PageID) page.GroupID {
	if a.cfg.Kind.Striped() {
		return page.GroupOf(p, a.cfg.DataDisks)
	}
	// The coordinate (area, offset) is the group: block = area·areaSize +
	// offset on every participating disk.
	return page.GroupID(a.DataLoc(p).Block)
}

// GroupIndex returns page p's index within its group's member list — the
// position that fixes its Q-equation coefficient g^i.
func (a *Array) GroupIndex(p page.PageID) int {
	if a.cfg.Kind.Striped() {
		return int(p) % a.cfg.DataDisks
	}
	loc := a.DataLoc(p)
	return int(a.rank[a.rotation(loc.Block)*len(a.disks)+loc.Disk])
}

// GroupPage returns the i-th logical page of group g, i in [0, GroupWidth):
// GroupPages(g)[i] without the slice.
func (a *Array) GroupPage(g page.GroupID, i int) page.PageID {
	n := a.cfg.DataDisks
	if a.cfg.Kind.Striped() {
		return page.FirstInGroup(g, n) + page.PageID(i)
	}
	// The member on the i-th disk outside the group's redundancy run, at
	// the rank of the group's area among that disk's data areas.
	area, offset := int(g)/a.areaSize, int(g)%a.areaSize
	d := int(a.nth[area*n+i])
	rank := int(a.rank[a.parityRun(d)*len(a.disks)+area])
	return page.PageID((d*n+rank)*a.areaSize + offset)
}

// GroupPages returns the logical pages of group g in data-index order, in
// a slice the caller owns.  A caller that only walks the members, or asks
// one question of them, uses GroupPage and allocates nothing.
func (a *Array) GroupPages(g page.GroupID) []page.PageID {
	out := make([]page.PageID, a.cfg.DataDisks)
	for i := range out {
		out[i] = a.GroupPage(g, i)
	}
	return out
}

// Loc returns the physical location of redundancy page r of group g.
// r.Twin must be below ParityPages, and r.Eq an equation the array keeps.
func (a *Array) Loc(g page.GroupID, r Red) Loc {
	if r.Twin < 0 || r.Twin >= a.parities || (r.Eq == Q && a.qparities == 0) {
		panic(fmt.Sprintf("diskarray: no %s twin %d on %s", r.Eq, r.Twin, a.cfg.Kind))
	}
	// A group's redundancy pages live at the group's own block number on
	// their rotated disks, P twins first, then Q twins; for parity striping
	// the coordinate (area, offset) addresses the same block number on
	// every participating disk: block = area·areaSize + offset = g.
	return Loc{Disk: (a.rotation(int(g)) + int(r.Eq)*a.parities + r.Twin) % len(a.disks), Block: int(g)}
}

// --- Raw I/O ---------------------------------------------------------------
//
// Every charged block operation goes through the self-healing retry
// wrapper (do, in health.go): transient errors are retried with bounded
// deterministic backoff, per-disk error accounting trips automatic
// fail-stops, and hard failures advance the array health machine.

// read issues one verified payload read: into dst when the caller owns a
// page buffer to reuse, into a fresh one when dst is nil.  A payload that
// differs from the last write the drive acknowledged for the block (NVRAM
// ledger) fails with disk.ErrLostWrite; the comparison takes the sum the
// drive verified the payload against, so the payload is hashed once.
func (a *Array) read(loc Loc, dst page.Buf) (page.Buf, disk.Meta, error) {
	var b page.Buf
	var m disk.Meta
	var sum uint32
	err := a.do(loc.Disk, func() error {
		var err error
		b, m, sum, err = a.disks[loc.Disk].Do(disk.Request{Op: disk.OpRead, Block: loc.Block, Data: dst})
		return err
	})
	if err == nil {
		err = a.checkLedger(loc, sum)
	}
	return b, m, err
}

// write issues one charged block write and, once the drive has
// acknowledged it, records the sum the drive returns for the payload in
// the NVRAM ledger.
func (a *Array) write(loc Loc, b page.Buf, meta disk.Meta) error {
	var sum uint32
	err := a.do(loc.Disk, func() error {
		var err error
		_, _, sum, err = a.disks[loc.Disk].Do(disk.Request{Op: disk.OpWrite, Block: loc.Block, Data: b, Meta: meta})
		return err
	})
	if err == nil {
		a.noteWrite(loc, sum)
	}
	return err
}

// ReadData reads logical data page p into dst (nil: a fresh buffer),
// charging one transfer and verifying the payload (see read).
func (a *Array) ReadData(p page.PageID, dst page.Buf) (page.Buf, disk.Meta, error) {
	return a.read(a.DataLoc(p), dst)
}

// WriteData writes logical data page p, charging one transfer.
func (a *Array) WriteData(p page.PageID, b page.Buf, meta disk.Meta) error {
	return a.write(a.DataLoc(p), b, meta)
}

// PeekData returns a copy of a data page without charging a transfer
// (verification aid).
func (a *Array) PeekData(p page.PageID) (page.Buf, error) {
	loc := a.DataLoc(p)
	return a.disks[loc.Disk].PeekData(loc.Block, nil)
}

// Read reads redundancy page r of group g into dst (nil: a fresh buffer),
// charging one transfer; verified like ReadData.
func (a *Array) Read(g page.GroupID, r Red, dst page.Buf) (page.Buf, disk.Meta, error) {
	return a.read(a.Loc(g, r), dst)
}

// Write writes redundancy page r of group g, charging one transfer.
func (a *Array) Write(g page.GroupID, r Red, b page.Buf, meta disk.Meta) error {
	return a.write(a.Loc(g, r), b, meta)
}

// WriteMeta rewrites only the redundancy page's header (state,
// timestamp), charging one transfer.
func (a *Array) WriteMeta(g page.GroupID, r Red, meta disk.Meta) error {
	loc := a.Loc(g, r)
	return a.do(loc.Disk, func() error {
		return a.disks[loc.Disk].WriteMeta(loc.Block, meta)
	})
}

// ReadMeta reads only the redundancy page's header, charging one
// transfer.  The bitmap-rebuild scan after a crash uses it.
func (a *Array) ReadMeta(g page.GroupID, r Red) (disk.Meta, error) {
	loc := a.Loc(g, r)
	var m disk.Meta
	err := a.do(loc.Disk, func() error {
		var err error
		m, err = a.disks[loc.Disk].ReadMeta(loc.Block)
		return err
	})
	return m, err
}

// PeekMeta returns a redundancy page's header without charging a
// transfer: a verification aid, or a header the caller already holds (see
// disk.Disk.PeekMeta for when the engine may use it).
func (a *Array) PeekMeta(g page.GroupID, r Red) (disk.Meta, error) {
	loc := a.Loc(g, r)
	return a.disks[loc.Disk].PeekMeta(loc.Block)
}

// --- Failure handling ------------------------------------------------------

// FailDisk injects a fail-stop failure on disk d and advances the health
// machine exactly as an organically detected failure would.  The
// injection itself always succeeds — a loss beyond the redundancy budget
// fails the array, and subsequent operations surface the typed
// ErrArrayFailed.
func (a *Array) FailDisk(d int) error {
	if d < 0 || d >= len(a.disks) {
		return fmt.Errorf("diskarray: no disk %d", d)
	}
	a.disks[d].Fail()
	a.noteFailed(d, disk.ErrFailed)
	return nil
}

// DiskFailed reports whether disk d has failed.
func (a *Array) DiskFailed(d int) bool { return a.disks[d].Failed() }

// Disk exposes the underlying drive (for tests and the layout dumper).
func (a *Array) Disk(d int) *disk.Disk { return a.disks[d] }

// SetInjector installs (or, with nil, removes) a fault injector on every
// drive of the array.
func (a *Array) SetInjector(inj disk.Injector) {
	for _, d := range a.disks {
		d.SetInjector(inj)
	}
}

// SetLatency sets the simulated per-transfer service time of every drive
// (see disk.Disk.SetLatency).  Rebuild replacements inherit it: a rebuild
// reuses the repaired drive object.
func (a *Array) SetLatency(lat time.Duration) {
	for _, d := range a.disks {
		d.SetLatency(lat)
	}
}

// Stats returns the aggregate I/O counters across all disks.
func (a *Array) Stats() disk.Stats {
	var s disk.Stats
	for _, d := range a.disks {
		s.Add(d.Stats())
	}
	return s
}

// DiskStats returns per-disk I/O counters, indexed by disk number.
func (a *Array) DiskStats() []disk.Stats {
	out := make([]disk.Stats, len(a.disks))
	for i, d := range a.disks {
		out[i] = d.Stats()
	}
	return out
}

// ResetStats zeroes all disks' I/O counters and the self-healing
// counters (Healing).
func (a *Array) ResetStats() {
	for _, d := range a.disks {
		d.ResetStats()
	}
	a.hmu.Lock()
	a.healing = HealingStats{}
	a.hmu.Unlock()
}

// --- Whole-group operations -------------------------------------------------

// ReadGroup reads all N data pages of group g, issued together when the
// drives queue: page i into bufs[i], the caller's page to reuse (a nil entry
// gets a fresh one).  len(bufs) is N.
func (a *Array) ReadGroup(g page.GroupID, bufs []page.Buf) error {
	return a.Together(a.cfg.DataDisks, func(i int) error {
		b, _, err := a.ReadData(a.GroupPage(g, i), bufs[i])
		if err == nil {
			bufs[i] = b
		}
		return err
	})
}

// Verify reports whether redundancy page r satisfies its equation over
// the group's data pages.  Uses Peek I/O so it is free; verification aid.
// sum and blk are two pages the caller owns and Verify overwrites: the
// equation is summed into one as each block is copied into the other, so a
// verification allocates nothing.
func (a *Array) Verify(g page.GroupID, r Red, sum, blk page.Buf) (bool, error) {
	peek := func(loc Loc) error {
		_, err := a.disks[loc.Disk].PeekData(loc.Block, blk)
		return err
	}
	clear(sum)
	for i := 0; i < a.cfg.DataDisks; i++ {
		if err := peek(a.DataLoc(a.GroupPage(g, i))); err != nil {
			return false, err
		}
		r.Eq.AddMember(sum, blk, i)
	}
	if err := peek(a.Loc(g, r)); err != nil {
		return false, err
	}
	return bytes.Equal(sum, blk), nil
}
