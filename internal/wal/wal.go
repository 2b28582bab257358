// Package wal implements the write-ahead log used by every recovery
// scheme in the repository.
//
// The paper's algorithms log before-images for UNDO, after-images for
// REDO (in the ¬FORCE case), EOT/abort transaction brackets,
// checkpoint records, and — specific to RDA recovery — the *log chain
// head* record that anchors the TWIST-style chain of pages a transaction
// wrote back without UNDO logging (Section 4.3).  Record logging
// (Section 5.3) additionally logs record-granularity images addressed by
// (page, slot).  There is no BOT record: the brackets and checkpoints
// carry a durable floor instead (Record.Floor), and a transaction the log
// has never seen is committed if its id lies below the last durable floor
// and a loser otherwise — presumed abort above the floor.
//
// The log models stable storage: its contents survive DB.Crash().  Append
// forces; AppendUnforced leaves a record in the volatile log tail, Force
// makes everything up to an LSN durable (charging the covered log pages
// once, however many records they hold), and DropUnforced models a crash
// by discarding the unforced tail.  A record that carries undo material or
// must outlive a crash on its own — before-images, checkpoints, aborts —
// is durable before the disk writes it covers: the write-ahead
// rule.  Most take a forced Append.  A FORCE commit's flush appends the
// before-images of every page it is bound to write through the logging
// path unforced and makes them durable with one Force before its first
// array write, the write-ahead rule at batch granularity.  A
// transaction's after-images are appended unforced and ride its EOT's
// force: the EOT's forced Append drags them along as one sequential log
// write, or, under group commit, the EOT is unforced too and the Forcer's
// batched Force — concurrent Force calls gathered within a configurable
// window — writes it and its after-images with other commits' in one log
// write.  A ¬FORCE commit logs an after-image for every page it modified;
// a FORCE commit only for the pages of parity groups that have lost a
// block, since the array's redundancy is the second copy of every other
// page it forced.
//
// Cost accounting follows the paper's model, which charges every log
// write like a small write to the disk array (4 page transfers: read old
// data, read old parity, write data, write parity).  Appending a record
// charges WriteCost transfers for the forced tail page plus WriteCost for
// each additional log page the record spills into.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/page"
)

// Type identifies a log record type.
type Type uint8

// Log record types.
const (
	// Value 1 is retired: it named the BOT record Section 4.3 puts on the
	// log before a transaction's first page reaches the database.  The
	// durable floor (Record.Floor) replaced it: a transaction the log has
	// never seen is decided by whether its id lies below the floor.
	_ Type = iota + 1
	// TypeEOT marks a successful commit.  It carries the durable floor.
	TypeEOT
	// TypeAbort marks a completed rollback of a transaction that logged
	// before-images.  It carries the durable floor.
	TypeAbort
	// TypeBeforeImage carries a page (Slot < 0) or record (Slot >= 0)
	// before-image for UNDO.
	TypeBeforeImage
	// TypeAfterImage carries a page or record after-image for REDO.
	// ¬FORCE commits log them for every modified page, FORCE commits only
	// for pages of degraded parity groups; only a committed transaction's
	// are read back.
	TypeAfterImage
	// Value 6 is retired: it named the anchor record of a per-transaction
	// log chain that nothing ever appended.  The types keep their numbers.
	_
	// TypeCheckpoint records a checkpoint; Active lists the transactions
	// alive when it was taken, and Txn holds the durable floor.
	TypeCheckpoint
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeEOT:
		return "EOT"
	case TypeAbort:
		return "ABORT"
	case TypeBeforeImage:
		return "BEFORE"
	case TypeAfterImage:
		return "AFTER"
	case TypeCheckpoint:
		return "CKPT"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// LSN is a log sequence number: the 1-based index of a record in the log.
type LSN uint64

// NoSlot marks a page-granularity image.
const NoSlot int32 = -1

// Record is one log record.
type Record struct {
	LSN    LSN       // assigned by Append
	Type   Type      //
	Txn    page.TxID // owning transaction (checkpoints: the durable floor)
	Page   page.PageID
	Slot   int32       // record slot for record-granularity images, NoSlot otherwise
	Image  []byte      // before/after image payload
	Active []page.TxID // checkpoint only: active transactions
}

// floorBias is what an EOT or abort record's Page holds for a floor equal
// to its own transaction: Page is F − Txn + floorBias, and 0 — the value
// of a record built without a floor — carries none.
const floorBias = 1 << 31

// Bracket returns the EOT or abort record (t) of transaction txn carrying
// the durable floor f: a transaction id such that no transaction below it
// is undecided once the record is durable.  The floor rides the record's
// Page, which a bracket does not otherwise use, as its distance from txn;
// a floor more than 2^31 − 1 above txn is lowered to that distance, which
// only ever claims less, and one that far below it is not carried at all.
func Bracket(t Type, txn, f page.TxID) Record {
	r := Record{Type: t, Txn: txn, Slot: NoSlot}
	if d := int64(f - txn); d >= -(floorBias - 1) {
		r.Page = page.PageID(min(d, floorBias-1) + floorBias)
	}
	return r
}

// Checkpoint returns a checkpoint record carrying the durable floor f and
// the transactions active when it was taken.
func Checkpoint(f page.TxID, active []page.TxID) Record {
	return Record{Type: TypeCheckpoint, Txn: f, Slot: NoSlot, Active: active}
}

// Floor returns the durable floor r carries, and whether it carries one:
// every transaction with a lower id is decided — committed or rolled back
// — once r is durable.  An EOT, an abort and a checkpoint carry one.
func (r Record) Floor() (page.TxID, bool) {
	switch {
	case r.Type == TypeCheckpoint:
		return r.Txn, true
	case (r.Type == TypeEOT || r.Type == TypeAbort) && r.Page != 0:
		return r.Txn + page.TxID(int64(r.Page)-floorBias), true
	}
	return 0, false
}

// Stats reports the log's I/O cost in the paper's units.
type Stats struct {
	Records   int64 // records appended
	Bytes     int64 // payload bytes appended
	LogPages  int64 // distinct log pages the encoded stream occupies
	Transfers int64 // page transfers charged for writes (the model's cost unit)
	// ReadTransfers counts page transfers charged for recovery-time log
	// reads (ChargeScan); one transfer per log page read.
	ReadTransfers int64
}

// Config parameterizes the log.
type Config struct {
	// LogPageSize is l_p, the physical log page size in bytes
	// (paper: 2020 for the record logging analysis).
	LogPageSize int
	// WriteCost is the page transfers charged per log page written; the
	// paper's model uses 4 (a small array write).
	WriteCost int
	// Packed selects the buffered-log cost model the paper's analysis
	// assumes (Section 5.3: log entries of length L pack into physical
	// pages of length l_p): a log page is charged once, when the stream
	// crosses into it, instead of re-charging the forced tail page on
	// every append.  Contents are durable either way — this is purely a
	// cost-accounting policy.
	Packed bool
}

// DefaultConfig mirrors the paper's parameters.
func DefaultConfig() Config { return Config{LogPageSize: 2020, WriteCost: 4} }

// Log is an append-only, always-forced log on stable storage.  It is safe
// for concurrent use.
//
// The log supports truncation: records before a safe point (bounded by
// the Begin of the transaction the last durable floor names and by the
// last checkpoint) can be discarded to reclaim space.  LSNs are stable
// across truncation, and the floor survives it (SetFloor).
type Log struct {
	mu  sync.Mutex
	cfg Config
	// segs holds the retained records, oldest first; every segment holds
	// at least one live record.  spares are emptied segments kept for the
	// next appends (see release for how many), so a warmed log appends and
	// truncates without allocating while its heap footprint tracks the
	// retained records.
	segs   []*segment
	spares []*segment
	// firstLSN is the LSN of the oldest retained record (1 when nothing
	// has been truncated); nextLSN is the LSN the next append receives.
	firstLSN, nextLSN LSN
	// baseOff and endOff are the absolute byte positions of the first
	// retained frame and of the log tail in the record stream.  All cost
	// accounting runs on these stream positions, never on where a frame
	// sits in memory.
	baseOff, endOff int
	// forcedLSN is the durability watermark: every record with LSN <=
	// forcedLSN has reached stable storage.  Forced appends advance it
	// past themselves (dragging any unforced predecessors along — a log
	// force is sequential); AppendUnforced leaves it behind.
	forcedLSN LSN
	// forcedOff is the absolute byte offset charged so far; the span
	// [forcedOff, end of the forced record) is charged at force time,
	// which is what lets records folded into one force share log pages.
	forcedOff int
	// forceDelay, when non-zero, is slept once per Force call — the
	// simulated service time of the physical log write.  Zero (the
	// default) keeps forces instantaneous, matching the pre-group-commit
	// engine where log cost lives purely in the transfer accounting.
	forceDelay time.Duration
	// floor is the log's anchored durable floor (SetFloor): kept beside
	// firstLSN, where truncation leaves it, so that a log emptied by
	// truncation still tells a restart which transactions are decided.
	floor page.TxID
	stats Stats
}

// segmentSize is the capacity of an ordinary log segment.  A frame lies
// wholly inside one segment; a frame larger than this (a checkpoint
// listing thousands of active transactions) gets a segment of its own.
// The size is the memory an almost-empty log still holds in its tail.
const segmentSize = 16 << 10

// maxSpares bounds the emptied segments kept for reuse.  A commit of the
// benchmark's update workloads that logs images — a ¬FORCE commit's
// after-images, a degraded FORCE commit's before- and after-images —
// appends two to three segments (a healthy FORCE commit, its EOT, under
// fifty bytes), and one truncation frees the handful the oldest
// open transaction was pinning, so a few spares absorb every burst; a
// checkpoint that frees hundreds still gives all but these back to the
// collector.
const maxSpares = 8

// segment is one fixed-capacity run of encoded frames.  Its buffer is
// never reallocated, so truncation frees whole segments instead of
// copying the survivors.
type segment struct {
	buf  []byte // frames, back to back
	offs []int  // frame start offsets within buf
	lsn0 LSN    // LSN of the frame at offs[0]
	base int    // stream position of buf[0]
}

// end returns the LSN one past the segment's last frame.
func (s *segment) end() LSN { return s.lsn0 + LSN(len(s.offs)) }

// New creates an empty log.
func New(cfg Config) *Log {
	if cfg.LogPageSize <= 0 {
		cfg.LogPageSize = DefaultConfig().LogPageSize
	}
	if cfg.WriteCost <= 0 {
		cfg.WriteCost = DefaultConfig().WriteCost
	}
	return &Log{cfg: cfg, firstLSN: 1, nextLSN: 1}
}

// SetForceDelay sets the simulated wall-clock service time of one
// physical log force (0 disables, the default).
func (l *Log) SetForceDelay(d time.Duration) {
	l.mu.Lock()
	l.forceDelay = d
	l.mu.Unlock()
}

// ErrCorrupt reports a malformed record frame during decoding.
var ErrCorrupt = errors.New("wal: corrupt record frame")

// frameLen returns the encoded size of r's frame.
func frameLen(r *Record) int { return 25 + len(r.Image) + 4 + 8*len(r.Active) }

// encode appends the frame for r to dst and returns the result.
func encode(dst []byte, r *Record) []byte {
	// Frame: u32 payloadLen | u8 type | u64 txn | u32 page | i32 slot |
	//        u32 imageLen | image | u32 activeLen | active txns.
	var hdr [25]byte
	hdr[4] = byte(r.Type)
	binary.LittleEndian.PutUint64(hdr[5:], uint64(r.Txn))
	binary.LittleEndian.PutUint32(hdr[13:], uint32(r.Page))
	binary.LittleEndian.PutUint32(hdr[17:], uint32(r.Slot))
	binary.LittleEndian.PutUint32(hdr[21:], uint32(len(r.Image)))
	payload := 21 + len(r.Image) + 4 + 8*len(r.Active)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(payload))
	dst = append(dst, hdr[:]...)
	dst = append(dst, r.Image...)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(r.Active)))
	dst = append(dst, n[:]...)
	for _, tx := range r.Active {
		var t [8]byte
		binary.LittleEndian.PutUint64(t[:], uint64(tx))
		dst = append(dst, t[:]...)
	}
	return dst
}

// decode parses one frame starting at off, returning the record and the
// offset of the next frame.
func decode(buf []byte, off int) (Record, int, error) {
	if off+4 > len(buf) {
		return Record{}, 0, ErrCorrupt
	}
	payload := int(binary.LittleEndian.Uint32(buf[off:]))
	start := off + 4
	end := start + payload
	if payload < 21 || end > len(buf) {
		return Record{}, 0, ErrCorrupt
	}
	var r Record
	r.Type = Type(buf[start])
	r.Txn = page.TxID(binary.LittleEndian.Uint64(buf[start+1:]))
	r.Page = page.PageID(binary.LittleEndian.Uint32(buf[start+9:]))
	r.Slot = int32(binary.LittleEndian.Uint32(buf[start+13:]))
	imgLen := int(binary.LittleEndian.Uint32(buf[start+17:]))
	p := start + 21
	if p+imgLen+4 > end {
		return Record{}, 0, ErrCorrupt
	}
	if imgLen > 0 {
		r.Image = append([]byte(nil), buf[p:p+imgLen]...)
	}
	p += imgLen
	nActive := int(binary.LittleEndian.Uint32(buf[p:]))
	p += 4
	if p+8*nActive != end {
		return Record{}, 0, ErrCorrupt
	}
	for i := 0; i < nActive; i++ {
		r.Active = append(r.Active, page.TxID(binary.LittleEndian.Uint64(buf[p+8*i:])))
	}
	return r, end, nil
}

// Append writes r to stable storage, assigns its LSN, and charges page
// transfers for the forced log page(s).  A forced append also forces any
// unforced predecessors — a log force is sequential — so the watermark
// always ends up at this record's LSN.
func (l *Log) Append(r Record) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.appendLocked(&r)
	l.forceLocked(lsn)
	return lsn
}

// AppendUnforced appends r to the volatile log tail without forcing it.
// The record is readable immediately (the engine reads its own log
// buffer) but does not survive a crash until Force covers its LSN; no
// transfers are charged until then.  Undo-critical records
// (before-images, checkpoints) must be durable before the disk writes they
// cover — the write-ahead rule: Append them, or AppendUnforced them and
// Force past the last before the first such write.
func (l *Log) AppendUnforced(r Record) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(&r)
}

// appendLocked encodes r into the tail segment — a fresh one when the
// frame does not fit — and assigns its LSN.
func (l *Log) appendLocked(r *Record) LSN {
	r.LSN = l.nextLSN
	need := frameLen(r)
	var s *segment
	if n := len(l.segs); n > 0 && len(l.segs[n-1].buf)+need <= cap(l.segs[n-1].buf) {
		s = l.segs[n-1]
	} else {
		if n := len(l.spares); n > 0 && need <= segmentSize {
			s, l.spares = l.spares[n-1], l.spares[:n-1]
		} else {
			s = &segment{buf: make([]byte, 0, max(need, segmentSize))}
		}
		s.lsn0, s.base = l.nextLSN, l.endOff
		l.segs = append(l.segs, s)
	}
	s.offs = append(s.offs, len(s.buf))
	s.buf = encode(s.buf, r)
	l.nextLSN++
	l.endOff += need
	l.stats.Records++
	l.stats.Bytes += int64(need)
	l.stats.LogPages = int64((l.endOff-1)/l.cfg.LogPageSize + 1)
	return r.LSN
}

// locate returns the segment holding retained record n and its index
// there.
func (l *Log) locate(n LSN) (*segment, int) {
	i := sort.Search(len(l.segs), func(i int) bool { return l.segs[i].end() > n })
	return l.segs[i], int(n - l.segs[i].lsn0)
}

// offsetOf returns the stream position of retained record n's frame, or
// of the log tail for n == nextLSN.
func (l *Log) offsetOf(n LSN) int {
	if n == l.nextLSN {
		return l.endOff
	}
	s, i := l.locate(n)
	return s.base + s.offs[i]
}

// release drops segs[lo:hi] from the retained list, keeping the
// ordinary-sized ones as spares while there is room: never more than
// maxSpares, and never more than two (one commit's logged images) beyond
// the segments still retained, so a log that shrinks to nothing holds two
// spares, not eight.
func (l *Log) release(lo, hi int) {
	room := min(maxSpares, len(l.segs)-(hi-lo)+2)
	for _, s := range l.segs[lo:hi] {
		if len(l.spares) < room && cap(s.buf) == segmentSize {
			s.buf, s.offs = s.buf[:0], s.offs[:0]
			l.spares = append(l.spares, s)
		}
	}
	n := lo + copy(l.segs[lo:], l.segs[hi:])
	clear(l.segs[n:])
	l.segs = l.segs[:n]
}

// Force makes every record with LSN <= upTo durable, charging the log
// pages between the previous watermark and the end of the covered span
// once — however many records folded into them.  It returns the number
// of page transfers charged.  When a force delay is configured the call
// sleeps it once, modelling the physical log write; already-covered
// LSNs return immediately without sleeping.
func (l *Log) Force(upTo LSN) int64 {
	l.mu.Lock()
	if upTo <= l.forcedLSN {
		l.mu.Unlock()
		return 0
	}
	before := l.stats.Transfers
	l.forceLocked(upTo)
	charged := l.stats.Transfers - before
	delay := l.forceDelay
	l.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return charged
}

// ForcedLSN returns the durability watermark.
func (l *Log) ForcedLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forcedLSN
}

// forceLocked advances the watermark to min(upTo, tail) and charges the
// newly forced span.  Charging by absolute byte span keeps the cost
// accounting identical to the always-forced model when there is no
// unforced backlog: the span then starts exactly at the appended frame.
// Under the Packed policy only newly entered pages are charged: the pages
// after the one holding the last byte already forced (page 0, where the
// stream starts, counts as entered), so a span costs the same however it
// is split into forces — a force that starts on a page boundary pays for
// the page it enters.
func (l *Log) forceLocked(upTo LSN) {
	if upTo >= l.nextLSN {
		upTo = l.nextLSN - 1
	}
	if upTo <= l.forcedLSN {
		return
	}
	if endOff := l.offsetOf(upTo + 1); endOff > l.forcedOff {
		lastPage := (endOff - 1) / l.cfg.LogPageSize
		pagesTouched := int64(lastPage - l.forcedOff/l.cfg.LogPageSize + 1)
		if l.cfg.Packed {
			pagesTouched = int64(lastPage - (l.forcedOff-1)/l.cfg.LogPageSize)
		}
		l.stats.Transfers += pagesTouched * int64(l.cfg.WriteCost)
		l.forcedOff = endOff
	}
	l.forcedLSN = upTo
}

// DropUnforced models the crash loss of the volatile log tail: every
// record above the durability watermark is discarded.  It returns the
// number of records dropped.  With no unforced appends outstanding it is
// a no-op, which is why pre-group-commit configurations are unaffected.
func (l *Log) DropUnforced() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	cut := max(l.forcedLSN+1, l.firstLSN) // first record dropped
	dropped := int(l.nextLSN - cut)
	if dropped <= 0 {
		return 0
	}
	l.endOff = l.offsetOf(cut)
	lo := len(l.segs)
	for lo > 0 && l.segs[lo-1].lsn0 >= cut {
		lo--
	}
	l.release(lo, len(l.segs))
	if n := len(l.segs); n > 0 && cut < l.segs[n-1].end() {
		s := l.segs[n-1]
		i := int(cut - s.lsn0)
		s.buf, s.offs = s.buf[:s.offs[i]], s.offs[:i]
	}
	l.nextLSN = cut
	return dropped
}

// Truncate discards every record with an LSN below keep, reclaiming
// space.  LSNs are stable: surviving records keep their numbers, and the
// next Append continues the sequence.  It returns the number of records
// dropped.  Callers are responsible for choosing a safe keep point (no
// record of an undecided transaction below it, nor the last checkpoint),
// and for anchoring the floor the dropped records carried (SetFloor).
func (l *Log) Truncate(keep LSN) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if keep <= l.firstLSN {
		return 0
	}
	if keep > l.nextLSN {
		keep = l.nextLSN
	}
	drop := int(keep - l.firstLSN)
	l.baseOff = l.offsetOf(keep)
	// Whole segments below keep go; the first survivor keeps its dead
	// prefix until its last record is truncated too.
	k := 0
	for k < len(l.segs) && l.segs[k].end() <= keep {
		k++
	}
	l.release(0, k)
	l.firstLSN = keep
	// Records dropped by truncation are gone whether or not they were
	// ever forced; keep the watermark consistent so DropUnforced never
	// resurrects a truncated range (and never charges discarded bytes).
	if l.forcedLSN < l.firstLSN-1 {
		l.forcedLSN = l.firstLSN - 1
	}
	if l.forcedOff < l.baseOff {
		l.forcedOff = l.baseOff
	}
	return drop
}

// SetFloor raises the log's anchored durable floor to f: a restart takes
// the higher of it and the floors the retained records carry
// (Record.Floor).  The caller sets it, from a durable record or a finished
// restart, before it truncates the records that carried it.
func (l *Log) SetFloor(f page.TxID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.floor = max(l.floor, f)
}

// Floor returns the log's anchored durable floor (0 until SetFloor).
func (l *Log) Floor() page.TxID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.floor
}

// FirstLSN returns the LSN of the oldest retained record (one past the
// tail when the log is empty).
func (l *Log) FirstLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstLSN
}

// Len returns the tail LSN: the number of records ever appended
// (truncated records keep counting, since LSNs are stable).
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.nextLSN) - 1
}

func (l *Log) readLocked(n LSN) (Record, error) {
	if n < l.firstLSN || n >= l.nextLSN {
		return Record{}, fmt.Errorf("wal: LSN %d out of range [%d,%d]", n, l.firstLSN, l.nextLSN-1)
	}
	seg, i := l.locate(n)
	r, _, err := decode(seg.buf, seg.offs[i])
	if err != nil {
		return Record{}, err
	}
	r.LSN = n
	return r, nil
}

// Scan calls fn for every record with LSN >= from, in LSN order, until fn
// returns false or the log is exhausted.
func (l *Log) Scan(from LSN, fn func(Record) bool) error {
	l.mu.Lock()
	if from < l.firstLSN {
		from = l.firstLSN
	}
	l.mu.Unlock()
	for n := from; ; n++ {
		l.mu.Lock()
		if n >= l.nextLSN {
			l.mu.Unlock()
			return nil
		}
		r, err := l.readLocked(n)
		l.mu.Unlock()
		if err != nil {
			return err
		}
		if !fn(r) {
			return nil
		}
	}
}

// ChargeScan charges read transfers (one per log page) for scanning the
// records in [from, to] and returns the number charged.  Recovery calls
// it after its analysis and undo passes so that restart cost appears in
// the measured page-transfer totals, as in the paper's c_s terms.
func (l *Log) ChargeScan(from, to LSN) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	from, to = max(from, l.firstLSN), min(to, l.nextLSN-1)
	if from > to { // also: an empty log, or a range wholly truncated
		return 0
	}
	startOff, endOff := l.offsetOf(from), l.offsetOf(to+1)
	pages := int64((endOff-1)/l.cfg.LogPageSize - startOff/l.cfg.LogPageSize + 1)
	l.stats.ReadTransfers += pages
	return pages
}

// Stats returns the accumulated I/O cost counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// ResetStats zeroes the counters: records and bytes appended, write and
// read transfers.  LogPages is a position in the record stream, not a
// count of work done, and stays; so do the log's contents.
func (l *Log) ResetStats() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats = Stats{LogPages: l.stats.LogPages}
}
