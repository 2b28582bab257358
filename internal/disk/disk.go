// Package disk simulates the individual drives of a redundant disk array.
//
// Each simulated disk is an array of fixed-size blocks.  A block carries a
// small out-of-band header (Meta) in addition to its data payload,
// modelling the per-sector header area that storage systems of the paper's
// era used for exactly the bookkeeping the paper requires: the twin parity
// pages store a timestamp and a state in their header (Section 4.2), and
// pages written back without UNDO logging carry their writer's tag in
// their header (Section 4.3, after TWIST [13]).  Keeping the header out of
// band keeps the XOR parity algebra over the data payload exact.
//
// The disk counts every block read and write.  The paper's performance
// model measures all costs in units of page transfers, so these counters
// are the ground truth for every measured experiment in the repository.
//
// Disks support fail-stop failure injection (Fail/Repair) for the media
// recovery experiments, plus optional corruption injection for checksum
// tests.  Writes of a single block are atomic, matching the standard
// assumption of the recovery literature the paper builds on.
package disk

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/page"
)

// Common error values returned by the simulated disk.
var (
	// ErrFailed reports an I/O against a disk that has suffered a
	// fail-stop failure.
	ErrFailed = errors.New("disk: drive has failed")
	// ErrOutOfRange reports a block number beyond the end of the disk.
	ErrOutOfRange = errors.New("disk: block number out of range")
	// ErrChecksum reports that a block's stored checksum does not match
	// its contents (injected corruption).
	ErrChecksum = errors.New("disk: block checksum mismatch")
	// ErrTransient reports a transient I/O error: the block is untouched
	// and an immediate retry may succeed.  The fault plane injects it;
	// the array's retry layer is responsible for masking it.
	ErrTransient = errors.New("disk: transient I/O error")
	// ErrStamp reports that a block's self-describing location stamp
	// names a different array position than the one read: the sector was
	// written for another LBA (a misdirected write landed here).
	ErrStamp = errors.New("disk: block location stamp mismatch")
	// ErrLostWrite reports that a block's contents differ from the last
	// write the drive acknowledged for it.  The disk itself cannot tell —
	// the stored checksum is self-consistent — so this error is produced
	// by the array's NVRAM write ledger (see diskarray).
	ErrLostWrite = errors.New("disk: block does not match last acknowledged write")
)

// IsTransient reports whether err is a transient, retryable I/O error.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// IsCorrupt reports whether err is one of the silent-corruption classes a
// verified read detects: a checksum mismatch (bit rot, torn write), a
// location stamp mismatch (misdirected write) or a write-ledger mismatch
// (lost or misdirected write).  Every one of them means the block's
// stored bytes must not be trusted and the page should be reconstructed
// from group redundancy.
func IsCorrupt(err error) bool {
	return errors.Is(err, ErrChecksum) || errors.Is(err, ErrStamp) || errors.Is(err, ErrLostWrite)
}

// ParityState is the lifecycle state of a twin parity page, stored in the
// block header (Figure 8 of the paper).  Data blocks leave it at
// StateNone.
type ParityState uint8

// Parity page states from Figure 8, plus StateNone for data blocks.
const (
	StateNone      ParityState = iota // not a parity page
	StateCommitted                    // holds the last committed parity
	StateObsolete                     // holds out-of-date parity
	StateWorking                      // updated by a still-active transaction
	StateInvalid                      // updated by a transaction that aborted
)

// String implements fmt.Stringer.
func (s ParityState) String() string {
	switch s {
	case StateNone:
		return "none"
	case StateCommitted:
		return "committed"
	case StateObsolete:
		return "obsolete"
	case StateWorking:
		return "working"
	case StateInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("ParityState(%d)", uint8(s))
	}
}

// Meta is the out-of-band block header.
//
// For twin parity blocks it stores the Figure 8 state, the timestamp that
// the Current_Parity algorithm (Figure 7) compares, and the transaction
// that last wrote the block.  For data blocks written back without UNDO
// logging it stores the steal tag: the writing transaction and the
// ChainSet mark (Section 4.3).
type Meta struct {
	// State is the twin parity lifecycle state; StateNone on data blocks.
	State ParityState
	// Timestamp orders parity versions (Figure 7).  Zero means "never
	// written" and always loses the Current_Parity comparison.
	Timestamp page.Timestamp
	// Txn is the transaction that last wrote this block.
	Txn page.TxID
	// ChainSet marks a data block written back without UNDO logging by the
	// still-undecided transaction Txn — the steal tag.  Recovery finds
	// stolen pages by scanning for it; the pointer to the transaction's
	// previously stolen page that TWIST chains through these headers is
	// not kept, because no recovery pass walks it.
	ChainSet bool
	// DirtyPage, on a working parity page, is the data page whose
	// no-UNDO-logging write the working parity covers.  The paper keeps
	// this "log N bits" page number in the main-memory Dirty_Set
	// (Section 4.1); mirroring it into the parity header — written in the
	// same transfer anyway — lets crash recovery locate the page to undo
	// with the same header scan that rebuilds the current-parity bitmap.
	DirtyPage page.PageID
	// PairedSet, on a committed parity twin, marks that DirtyPage names
	// the data page whose small-write flip produced this parity version
	// and that the paired data write carries this header's Timestamp —
	// the same log-N-bits trick as above, reused so a *degraded* restart
	// (one data page unreadable, parity unverifiable by recomputation)
	// can tell whether the flip's data write reached disk before the
	// crash.  A broken pair means the parity ran ahead of the data and
	// the other twin still describes the on-disk contents.
	PairedSet bool
}

// Stats counts the I/O traffic a disk has served.
type Stats struct {
	Reads  int64 // block reads
	Writes int64 // block writes
}

// Transfers returns total page transfers (reads + writes), the unit of
// the paper's cost model.
func (s Stats) Transfers() int64 { return s.Reads + s.Writes }

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
}

type block struct {
	data []byte
	meta Meta
	sum  uint32
	// stamp is the self-describing location stamp, written out of band
	// with the header: the array position the sector was intended for.
	// A read whose stamp does not match the addressed position surfaces
	// ErrStamp — the signature of a misdirected write.
	stamp page.Stamp
	bad   bool // corruption injected
}

// Disk is one simulated drive.  It is safe for concurrent use.
type Disk struct {
	mu        sync.Mutex
	id        int
	blockSize int
	blocks    []block
	failed    bool
	stats     Stats
	// inj, when non-nil, observes every charged I/O and may subvert it
	// (see Injector).
	inj Injector
	// latency (ns), when non-zero, is the simulated service time of one
	// charged block transfer, slept while the drive's mutex is held — a
	// single-spindle drive serves one transfer at a time, so queued
	// requests to the same disk serialize while transfers on OTHER disks
	// of the array overlap in wall-clock time.  That makes wall-clock
	// throughput reflect how much array parallelism the caller actually
	// achieves (zero for tests; benchmarks opt in).  In pipelined mode
	// the sleep happens once the picker has given the transfer the drive.
	latency atomic.Int64
	// q is the drive's request queue (see queue.go); disabled by default.
	q queue
}

// New creates a disk with the given identifier, number of blocks and block
// size.  All blocks start zeroed with empty metadata.
func New(id, numBlocks, blockSize int) *Disk {
	if numBlocks <= 0 || blockSize <= 0 {
		panic("disk: non-positive geometry")
	}
	d := &Disk{id: id, blockSize: blockSize, blocks: make([]block, numBlocks)}
	zeroSum := page.NewBuf(blockSize).Checksum()
	for i := range d.blocks {
		d.blocks[i] = block{data: make([]byte, blockSize), sum: zeroSum, stamp: page.MakeStamp(id, i)}
	}
	return d
}

// NumBlocks returns the number of blocks on the disk.
func (d *Disk) NumBlocks() int { return len(d.blocks) }

// SetLatency sets the simulated service time of one block transfer (0
// disables, the default).  Concurrency-safe; takes effect on the next
// transfer.
func (d *Disk) SetLatency(lat time.Duration) { d.latency.Store(int64(lat)) }

// serviceTime sleeps the configured per-transfer latency.  Called with
// d.mu held (see the latency field).
func (d *Disk) serviceTime() {
	if lat := d.latency.Load(); lat > 0 {
		time.Sleep(time.Duration(lat))
	}
}

// Request describes one block I/O (see Do).
type Request struct {
	Op    Op
	Block int
	// Data is the payload for OpWrite and, when it has the block's size,
	// the buffer an OpRead fills and returns instead of allocating one; the
	// caller must leave it alone until Do returns.
	Data page.Buf
	// Meta is the header for OpWrite and OpWriteMeta.
	Meta Meta
}

// Do executes a request and returns its results: the payload and header
// of a read, the header of a header read, and the CRC-32C of the payload
// transferred — for a read the stored sum the payload was just verified
// against, for an acknowledged write the sum of the payload the caller
// handed over, whatever the platter made of it (zero for header-only
// I/O).  It runs on the caller's goroutine either way; on a queued drive
// (StartQueue) it first waits for the picker to hand the caller the
// drive.  A crash point's panic propagates to the caller — and, on a
// queued drive, to every caller waiting behind it.
func (d *Disk) Do(r Request) (page.Buf, Meta, uint32, error) {
	if d.q.on.Load() {
		d.q.enter(r.Block)
		defer d.q.leave()
	}
	switch r.Op {
	case OpRead:
		return d.execRead(r.Block, r.Data)
	case OpWrite:
		sum, err := d.execWrite(r.Block, r.Data, r.Meta)
		return nil, Meta{}, sum, err
	case OpReadMeta:
		meta, err := d.execReadMeta(r.Block)
		return nil, meta, 0, err
	case OpWriteMeta:
		return nil, Meta{}, 0, d.execWriteMeta(r.Block, r.Meta)
	}
	return nil, Meta{}, 0, fmt.Errorf("disk %d: unknown op %v", d.id, r.Op)
}

// Read returns a copy of the block's data and its metadata, charging one
// page transfer.  A caller that owns a page buffer reads into it by
// issuing the request itself (Do, Request.Data).
func (d *Disk) Read(blockNum int) (page.Buf, Meta, error) {
	b, meta, _, err := d.Do(Request{Op: OpRead, Block: blockNum})
	return b, meta, err
}

// execRead copies the block into dst when dst has the block's size, and
// into a fresh buffer otherwise.
func (d *Disk) execRead(blockNum int, dst page.Buf) (page.Buf, Meta, uint32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.serviceTime()
	dec := d.observe(blockNum, OpRead, nil, nil)
	if d.failed {
		return nil, Meta{}, 0, fmt.Errorf("disk %d block %d: %w", d.id, blockNum, ErrFailed)
	}
	if blockNum < 0 || blockNum >= len(d.blocks) {
		return nil, Meta{}, 0, fmt.Errorf("disk %d block %d: %w", d.id, blockNum, ErrOutOfRange)
	}
	if dec.Err != nil {
		return nil, Meta{}, 0, fmt.Errorf("disk %d block %d: %w", d.id, blockNum, dec.Err)
	}
	d.stats.Reads++
	b := &d.blocks[blockNum]
	if b.bad || page.Buf(b.data).Checksum() != b.sum {
		return nil, Meta{}, 0, fmt.Errorf("disk %d block %d: %w", d.id, blockNum, ErrChecksum)
	}
	if !b.stamp.Matches(d.id, blockNum) {
		return nil, Meta{}, 0, fmt.Errorf("disk %d block %d: carries %v: %w", d.id, blockNum, b.stamp, ErrStamp)
	}
	if len(dst) != d.blockSize {
		dst = make(page.Buf, d.blockSize)
	}
	copy(dst, b.data)
	return dst, b.meta, b.sum, nil
}

// Write atomically replaces the block's data and metadata, charging one
// page transfer.
func (d *Disk) Write(blockNum int, data page.Buf, meta Meta) error {
	_, _, _, err := d.Do(Request{Op: OpWrite, Block: blockNum, Data: data, Meta: meta})
	return err
}

// execWrite returns the CRC-32C of data once the drive acknowledges it.
func (d *Disk) execWrite(blockNum int, data page.Buf, meta Meta) (uint32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.serviceTime()
	dec := d.observe(blockNum, OpWrite, data, &meta)
	if d.failed {
		return 0, fmt.Errorf("disk %d block %d: %w", d.id, blockNum, ErrFailed)
	}
	if blockNum < 0 || blockNum >= len(d.blocks) {
		return 0, fmt.Errorf("disk %d block %d: %w", d.id, blockNum, ErrOutOfRange)
	}
	if len(data) != d.blockSize {
		return 0, fmt.Errorf("disk %d block %d: %w", d.id, blockNum, page.ErrBadSize)
	}
	if dec.Err != nil {
		return 0, fmt.Errorf("disk %d block %d: %w", d.id, blockNum, dec.Err)
	}
	d.stats.Writes++
	sum := data.Checksum()
	if dec.LostWrite {
		// The drive acknowledges the write but the sector never reaches
		// the platter: the old contents — payload, header and stamp —
		// survive untouched and remain internally consistent, so the
		// disk's own checksum cannot tell.  Only the array's write ledger
		// exposes the loss.
		return sum, nil
	}
	b := &d.blocks[blockNum]
	if dec.Redirect {
		// The whole sector lands at the wrong LBA on the same drive:
		// payload, header and stamp all overwrite the victim block, while
		// the intended block keeps its stale contents.  The stamp still
		// names the *intended* position, which is what makes the
		// misdirection detectable when the victim is read; the stale
		// intended block is the write ledger's job.
		victim := dec.RedirectBlock % len(d.blocks)
		if victim < 0 {
			victim += len(d.blocks)
		}
		b = &d.blocks[victim]
	}
	if dec.Torn {
		// The header travels out of band and persists; only half of the
		// payload does.  The stored checksum stays stale, so reads return
		// ErrChecksum until the block is repaired from redundancy.
		b.meta = meta
		half := d.blockSize / 2
		if dec.TornHead {
			copy(b.data[:half], data[:half])
		} else {
			copy(b.data[half:], data[half:])
		}
		b.bad = true
		if dec.Panic != nil {
			panic(dec.Panic)
		}
		return sum, nil
	}
	copy(b.data, data)
	b.meta = meta
	b.sum = sum
	b.stamp = page.MakeStamp(d.id, blockNum)
	b.bad = false
	if dec.FlipBit {
		bit := dec.FlipBitOffset % (d.blockSize * 8)
		if bit < 0 {
			bit += d.blockSize * 8
		}
		b.data[bit/8] ^= 1 << (bit % 8)
		b.bad = true
	}
	return sum, nil
}

// ReadMeta reads only the block's out-of-band metadata, charging one page
// transfer (on the paper's hardware the header travels with the sector,
// so a header read costs a full rotation just like a block read).
func (d *Disk) ReadMeta(blockNum int) (Meta, error) {
	_, meta, _, err := d.Do(Request{Op: OpReadMeta, Block: blockNum})
	return meta, err
}

func (d *Disk) execReadMeta(blockNum int) (Meta, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.serviceTime()
	dec := d.observe(blockNum, OpReadMeta, nil, nil)
	if d.failed {
		return Meta{}, fmt.Errorf("disk %d block %d: %w", d.id, blockNum, ErrFailed)
	}
	if blockNum < 0 || blockNum >= len(d.blocks) {
		return Meta{}, fmt.Errorf("disk %d block %d: %w", d.id, blockNum, ErrOutOfRange)
	}
	if dec.Err != nil {
		return Meta{}, fmt.Errorf("disk %d block %d: %w", d.id, blockNum, dec.Err)
	}
	d.stats.Reads++
	return d.blocks[blockNum].meta, nil
}

// WriteMeta rewrites only the block's out-of-band metadata (used to commit
// or invalidate a twin parity page without rewriting its payload).  It
// still charges one page transfer: on the paper's hardware the header
// travels with the sector.
func (d *Disk) WriteMeta(blockNum int, meta Meta) error {
	_, _, _, err := d.Do(Request{Op: OpWriteMeta, Block: blockNum, Meta: meta})
	return err
}

func (d *Disk) execWriteMeta(blockNum int, meta Meta) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.serviceTime()
	dec := d.observe(blockNum, OpWriteMeta, nil, &meta)
	if d.failed {
		return fmt.Errorf("disk %d block %d: %w", d.id, blockNum, ErrFailed)
	}
	if blockNum < 0 || blockNum >= len(d.blocks) {
		return fmt.Errorf("disk %d block %d: %w", d.id, blockNum, ErrOutOfRange)
	}
	if dec.Err != nil {
		return fmt.Errorf("disk %d block %d: %w", d.id, blockNum, dec.Err)
	}
	d.stats.Writes++
	d.blocks[blockNum].meta = meta
	return nil
}

// Fail injects a fail-stop failure: every subsequent I/O returns ErrFailed
// and, as on a real head crash, the stored contents become unavailable.
func (d *Disk) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = true
}

// Repair replaces the failed drive with a fresh, zeroed one (contents are
// NOT restored; that is the array's media recovery job).
func (d *Disk) Repair() {
	d.mu.Lock()
	defer d.mu.Unlock()
	zeroSum := page.NewBuf(d.blockSize).Checksum()
	for i := range d.blocks {
		// Reads and peeks copy out, so nothing outside the drive holds a
		// block's slice: it is zeroed where it lies.
		clear(d.blocks[i].data)
		d.blocks[i] = block{data: d.blocks[i].data, sum: zeroSum, stamp: page.MakeStamp(d.id, i)}
	}
	d.failed = false
}

// Failed reports whether the disk is currently failed.
func (d *Disk) Failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// Corrupt flips a bit in the stored block without updating its checksum,
// modelling a latent sector error for checksum-path tests.
func (d *Disk) Corrupt(blockNum int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if blockNum < 0 || blockNum >= len(d.blocks) {
		return fmt.Errorf("disk %d block %d: %w", d.id, blockNum, ErrOutOfRange)
	}
	d.blocks[blockNum].data[0] ^= 0x80
	d.blocks[blockNum].bad = true
	return nil
}

// Stats returns a snapshot of the disk's I/O counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the I/O counters (used between measurement phases).
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// PeekMeta returns the block metadata without charging a transfer.  It is
// a debugging/verification aid for tests and the array-layout dumper.  On
// a measured code path it may only hand back a header the caller already
// holds: that of a block it has just read, verified, under the latch that
// keeps others from writing it, or that of a mirror copy it rewrites
// unchanged.  It must never stand in for a read the protocol makes.
func (d *Disk) PeekMeta(blockNum int) (Meta, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if blockNum < 0 || blockNum >= len(d.blocks) {
		return Meta{}, fmt.Errorf("disk %d block %d: %w", d.id, blockNum, ErrOutOfRange)
	}
	return d.blocks[blockNum].meta, nil
}

// PeekData returns a copy of the block payload without charging a
// transfer — in dst when dst has the block's size, in a fresh buffer
// otherwise (nil), as a read does.  Verification aid only, as PeekMeta.
func (d *Disk) PeekData(blockNum int, dst page.Buf) (page.Buf, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if blockNum < 0 || blockNum >= len(d.blocks) {
		return nil, fmt.Errorf("disk %d block %d: %w", d.id, blockNum, ErrOutOfRange)
	}
	if len(dst) != d.blockSize {
		dst = make(page.Buf, d.blockSize)
	}
	copy(dst, d.blocks[blockNum].data)
	return dst, nil
}
