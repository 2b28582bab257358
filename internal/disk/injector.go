package disk

import (
	"fmt"

	"repro/internal/page"
)

// Op classifies a block I/O for fault injection.
type Op uint8

// The four charged block operations a disk serves.
const (
	// OpRead is a full block read (payload + header).
	OpRead Op = iota
	// OpWrite is a full block write (payload + header).
	OpWrite
	// OpReadMeta is a header-only read.
	OpReadMeta
	// OpWriteMeta is a header-only write.
	OpWriteMeta
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpReadMeta:
		return "readmeta"
	case OpWriteMeta:
		return "writemeta"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// IsWrite reports whether the operation persists state (OpWrite or
// OpWriteMeta) — the events a crash-point schedule counts.
func (o Op) IsWrite() bool { return o == OpWrite || o == OpWriteMeta }

// Access identifies one block I/O about to be performed.
type Access struct {
	// Disk is the drive's identifier within its array.
	Disk int
	// Block is the block number on that drive.
	Block int
	// Op is the operation class.
	Op Op
	// Data is the payload an OpWrite is about to store (nil otherwise) and
	// Meta the header an OpWrite or OpWriteMeta carries; observers may
	// read them — to fingerprint the write stream, say — but must not
	// keep or modify Data.
	Data page.Buf
	Meta Meta
}

// String implements fmt.Stringer.
func (a Access) String() string {
	return fmt.Sprintf("%s disk %d block %d", a.Op, a.Disk, a.Block)
}

// Decision tells the disk how to carry out — or subvert — one block I/O.
// The zero value means "proceed normally".  Every op honours Err, FailDisk
// and Panic; only OpWrite honours the others (Torn, FlipBit, LostWrite,
// Redirect), which the other three ops ignore.  A drive carries a decision
// out in one order: it dies on FailDisk; it panics with Panic before the
// transfer unless Torn tears an OpWrite and the drive is alive; a dead
// drive answers ErrFailed, an out-of-range block ErrOutOfRange, a wrong-size
// payload page.ErrBadSize, and only then does Err fail the access.
type Decision struct {
	// Err, when non-nil, aborts the operation with this error before any
	// state changes (a transient I/O error: the block is untouched).
	Err error
	// FailDisk fail-stops the drive before the operation, which then
	// returns ErrFailed like every subsequent I/O until Repair.
	FailDisk bool
	// Torn: the out-of-band header persists but only half of the payload
	// does (TornHead selects which half), and the stored checksum is left
	// stale so subsequent reads return ErrChecksum.  Models a power failure
	// in the middle of the sector transfer; Panic is normally set alongside
	// it, and is raised after the torn mutation.
	Torn     bool
	TornHead bool
	// FlipBit flips payload bit FlipBitOffset (byte FlipBitOffset/8, bit
	// FlipBitOffset%8, modulo the block size) after the write completes,
	// without updating the checksum — silent corruption for scrub tests.
	FlipBit       bool
	FlipBitOffset int
	// LostWrite acknowledges the write without persisting anything: the
	// old block contents survive, internally consistent.  The transfer is
	// still charged (the drive believes it happened).
	LostWrite bool
	// Redirect lands the whole sector — payload, header and location stamp
	// — at block RedirectBlock (modulo the disk size) on the same drive
	// instead of the addressed block.  The stamp keeps the intended
	// position, so reads of the victim surface ErrStamp.
	Redirect      bool
	RedirectBlock int
	// Panic, when non-nil, is panicked with (see the order above).  The
	// harness recovers the sentinel.
	Panic any
}

// Injector observes every charged block I/O of a disk and returns a
// Decision.  It is invoked with the disk's mutex held, so implementations
// must not call back into the disk; panicking is safe (the disk's
// deferred unlock runs).
type Injector interface {
	Observe(a Access) Decision
}

// SetInjector installs (or, with nil, removes) the disk's fault injector.
func (d *Disk) SetInjector(inj Injector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inj = inj
}

// consult hands the access to the injector and does what a drive does
// with any decision: it dies on FailDisk, and it crashes before the
// transfer unless the decision tears a payload write the drive can still
// take.  Must be called with d.mu held.  Only admit calls it, and only on
// a drive with an injector: no other drive builds an Access.
func (d *Disk) consult(blockNum int, op Op, data page.Buf, meta *Meta) Decision {
	a := Access{Disk: d.id, Block: blockNum, Op: op, Data: data}
	if meta != nil {
		a.Meta = *meta
	}
	dec := d.inj.Observe(a)
	if dec.FailDisk {
		d.failed = true
	}
	if dec.Panic != nil && !(dec.Torn && op == OpWrite && !d.failed) {
		panic(dec.Panic)
	}
	return dec
}
